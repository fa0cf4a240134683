"""Dispersion relation ``omega(xi) = mu*xi^3 - xi^5`` and the free flow."""

from dataclasses import dataclass

import numpy as np

from .grid import _full_spectrum, apply_multiplier

__all__ = [
    "DispersionParams",
    "omega",
    "omega_prime",
    "omega_second",
    "phasor",
    "free_evolve",
    "resonance",
    "dispersive_order_audit",
]


@dataclass(frozen=True)
class DispersionParams:
    """Third-order coefficient ``mu``; the quintic coefficient is -1."""

    mu: float = 1.0

    def __post_init__(self):
        if not abs(self.mu) <= 1.0:
            raise ValueError("|mu| <= 1 required")


def omega(xi, disp):
    # explicit products: exactly odd in xi (vectorized pow is not)
    xi = np.asarray(xi, dtype=np.float64)
    x2 = xi * xi
    x3 = x2 * xi
    return disp.mu * x3 - x3 * x2


def omega_prime(xi, disp):
    xi = np.asarray(xi, dtype=np.float64)
    x2 = xi * xi
    return 3.0 * disp.mu * x2 - 5.0 * x2 * x2


def omega_second(xi, disp):
    xi = np.asarray(xi, dtype=np.float64)
    return 6.0 * disp.mu * xi - 20.0 * xi * xi * xi


# Cody-Waite split of 2 pi: _P1 and _P2 carry 26 significant bits each, so
# k * _P1 and k * _P2 are exact for |k| < 2**27; _P3 is the rest
_P1 = float.fromhex("0x1.921fb58p+2")
_P2 = float.fromhex("-0x1.dde974p-25")
_P3 = float.fromhex("0x1.1a62633145c07p-52")
PHASE_EXACT_RANGE = 2.0 ** 27 * _P1  # 8.43e8
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting factor


def _split(a):
    """``a = hi + lo`` exactly, each half of 26 bits (Dekker)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def phasor(w, t):
    """``exp(i w t)``, ``t`` a scalar or a column, in float64 only.

    ``p = w t`` and its rounding error ``e`` come from Dekker's exact two-
    product; ``k = rint(p / 2 pi)`` is removed against a three-part
    Cody-Waite split of 2 pi, and ``cos`` and ``sin`` of the reduced phase
    fill one complex array. For ``|w t| < PHASE_EXACT_RANGE`` (8.43e8) the
    reduced phase errs by a few ulp of pi (the phasor by under 1e-15);
    above it ``k * _P1`` rounds, and the error grows like that of a plain
    double product, ``~1.1e-16 |w t|``. Every step is odd, so
    ``phasor(-w, t)`` and ``phasor(w, -t)`` are bit for bit the conjugate
    of ``phasor(w, t)``."""
    w = np.asarray(w, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    wh, wl = _split(w)
    th, tl = _split(t)
    p = np.multiply(w, t)
    e = np.multiply(wh, th)
    e -= p
    tmp = np.empty_like(p)
    np.multiply(wh, tl, out=tmp)
    e += tmp
    np.multiply(wl, th, out=tmp)
    e += tmp
    np.multiply(wl, tl, out=tmp)
    e += tmp
    k = p / (2 * np.pi)
    np.rint(k, out=k)
    np.multiply(k, _P1, out=tmp)
    p -= tmp
    np.multiply(k, _P2, out=tmp)
    p -= tmp
    np.multiply(k, _P3, out=tmp)
    e -= tmp
    p += e
    del e, k, tmp
    out = np.empty(p.shape, dtype=np.complex128)
    np.cos(p, out=out.real)
    np.sin(p, out=out.imag)
    return out


def free_evolve(u, t, disp):
    """Linear flow: multiply each coefficient by ``exp(i*omega(xi)*t)``."""
    w = omega(u.grid.xi[:u.grid.size // 2 + 1], disp)
    return apply_multiplier(u, _full_spectrum(phasor(w, t)))


def resonance(xi1, xi2, disp):
    """Two-frequency resonance ``omega(xi1)+omega(xi2)-omega(xi1+xi2)``."""
    xi1 = np.asarray(xi1, dtype=np.float64)
    xi2 = np.asarray(xi2, dtype=np.float64)
    return omega(xi1, disp) + omega(xi2, disp) - omega(xi1 + xi2, disp)


def dispersive_order_audit(disp, xi_samples):
    """Ratios ``|omega^(k)(xi)| / |xi|^(5-k)`` for k = 1, 2.

    Only ``|xi| >= 2`` samples are admissible; for ``|mu| <= 1`` both
    ratios stay inside a fixed bracket away from 0 and infinity, which is
    the quintic-order dispersive-range property this audit reports.
    """
    xi = np.asarray(xi_samples, dtype=np.float64)
    if np.any(np.abs(xi) < 2.0):
        raise ValueError("dispersive-order audit requires |xi| >= 2")
    r1 = np.abs(omega_prime(xi, disp)) / np.abs(xi) ** 4
    r2 = np.abs(omega_second(xi, disp)) / np.abs(xi) ** 3
    return {
        "first_order": {"min": float(r1.min()), "max": float(r1.max())},
        "second_order": {"min": float(r2.min()), "max": float(r2.max())},
        "samples": int(xi.size),
    }
