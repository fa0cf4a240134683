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

    def m2x_jet(self, xi):
        """``g = m^2(xi) xi`` and its first two derivatives, in closed form.

        With ``l = d ln m^2 / d ln|xi|`` (``2s(4t - 3t^2)`` on (N, 2N), 0
        below N, 2s above 2N): ``g' = m^2 (1 + l)`` and
        ``g'' = (m^2 / xi) (l (1 + l) + dl/dln|xi|)``. ``g`` equals
        ``m2(xi) * xi`` bit for bit.
        """
        xi = np.asarray(xi, dtype=np.float64)
        m2 = self.m2(xi)
        N, s = self.threshold, self.sobolev_s
        a = np.abs(xi)
        t = np.log2(np.clip(a / N, 1.0, 2.0))
        ell = 2.0 * s * t * (4.0 - 3.0 * t)
        mid = (a > N) & (a < 2.0 * N)
        dell = np.where(mid, 2.0 * s * (4.0 - 6.0 * t) / np.log(2.0), 0.0)
        curv = ell * (1.0 + ell) + dell
        d2 = np.divide(m2 * curv, xi, out=np.zeros_like(m2), where=curv != 0.0)
        return m2 * xi, m2 * (1.0 + ell), d2


def apply_I(u, mult):
    """Multiply coefficients by ``m(xi)``; the identity below threshold."""
    return apply_multiplier(u, mult.m(u.grid.xi))
