"""Dyadic frequency decomposition.

``eta0`` is even, equal to 1 on [-5/4, 5/4] and supported in [-8/5, 8/5],
with a cubic smoothstep in between; ``eta_k = eta0(./2^k) - eta0(./2^(k-1))``
for k >= 1. The differences telescope bitwise, so summing the projections
of a field over all shells reproduces it exactly.
"""

import numpy as np

from .grid import apply_multiplier

__all__ = [
    "PLATEAU",
    "SUPPORT",
    "eta0",
    "eta_k",
    "shell_count",
    "project_dyadic",
    "project_low",
]

PLATEAU = 1.25
SUPPORT = 1.6


def eta0(x):
    """Even plateau cutoff: 1 on [-5/4, 5/4], 0 outside [-8/5, 8/5]."""
    r = (np.abs(np.asarray(x, dtype=np.float64)) - PLATEAU) / (SUPPORT - PLATEAU)
    r = np.clip(r, 0.0, 1.0)
    return 1.0 - r * r * (3.0 - 2.0 * r)


def eta_k(xi, k):
    """Dyadic shell cutoff at scale 2^k (k >= 1); k = 0 is eta0 itself."""
    if k < 0:
        raise ValueError("shell index must be nonnegative")
    if k == 0:
        return eta0(xi)
    xi = np.asarray(xi, dtype=np.float64)
    return eta0(xi / 2.0 ** k) - eta0(xi / 2.0 ** (k - 1))


def shell_count(grid):
    """Smallest K with ``eta0(xi/2^K) == 1`` across the lattice, plus one:
    projections 0..K then sum to the identity."""
    k = 0
    top = grid.xi_max
    while PLATEAU * 2.0 ** k < top:
        k += 1
    return k + 1


def project_dyadic(u, k):
    """Littlewood-Paley piece ``P_k u``."""
    return apply_multiplier(u, eta_k(u.grid.xi, k))


def project_low(u, l):
    """``P_{<=l} u``; equals ``P_0 u`` for l = 0."""
    if l < 0:
        raise ValueError("cutoff index must be nonnegative")
    return apply_multiplier(u, eta0(u.grid.xi / 2.0 ** l))
