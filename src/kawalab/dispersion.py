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


def phasor(w, t):
    """``exp(i w t)``, ``t`` a scalar or a column. A double ``w t`` loses
    digits at fifth-power symbols, so it is formed in long double and reduced
    by the odd ``fmod`` against 2 pi to long-double precision (a double pi
    errs by ``|w t| * 4e-17``); ``phasor(-w, t)`` is bit for bit the
    conjugate of ``phasor(w, t)``."""
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    arg = np.fmod(np.asarray(w, dtype=np.longdouble) * np.asarray(t, dtype=np.longdouble), two_pi)
    return np.exp(1j * arg.astype(np.float64))


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
