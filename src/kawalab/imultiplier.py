"""Smoothing multiplier m(xi) of the almost-conservation machinery.

m is even, equals 1 for |xi| <= N and ``N^-s |xi|^s`` for |xi| >= 2N, and
interpolates on [N, 2N] by a monotone cubic Hermite in (log|xi|, log m)
matching values and slopes at both ends. In closed form, with
``t = log2(|xi|/N)``:  ``m = 2**(s * t^2 * (2 - t))``.
"""

from dataclasses import dataclass

import numpy as np

from .grid import apply_multiplier

__all__ = ["IMultiplier", "apply_I"]


@dataclass(frozen=True)
class IMultiplier:
    """Threshold ``threshold`` (N) and Sobolev index ``sobolev_s`` (s)."""

    threshold: float
    sobolev_s: float = -1.75

    def __post_init__(self):
        if not (0.0 < self.threshold < np.inf):
            raise ValueError("threshold N must be positive and finite")
        if not (-1.75 <= self.sobolev_s <= 0.0):
            raise ValueError("sobolev index must lie in [-7/4, 0]")

    def __call__(self, xi):
        return self.m(xi)

    def m(self, xi):
        scalar = np.isscalar(xi) or np.ndim(xi) == 0
        a = np.abs(np.atleast_1d(np.asarray(xi, dtype=np.float64)))
        N, s = self.threshold, self.sobolev_s
        out = np.ones_like(a)
        hi = a >= 2.0 * N
        out[hi] = (a[hi] / N) ** s
        mid = (a > N) & ~hi
        t = np.log2(a[mid] / N)
        out[mid] = 2.0 ** (s * t * t * (2.0 - t))
        return float(out[0]) if scalar else out

    def m2(self, xi):
        v = self.m(xi)
        return v * v


def apply_I(u, mult):
    """Multiply coefficients by ``m(xi)``; the identity below threshold."""
    return apply_multiplier(u, mult.m(u.grid.xi))
