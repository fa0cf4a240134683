"""Space-time transforms, modulation-weighted norms, and the Duhamel
bilinear operator.

A :class:`SpaceTimeField` holds the 2-D coefficients of a time-windowed
trajectory: the window is the plateau cutoff ``eta0(t)``, and the time
transform uses the same unitary convention as the spatial one, with
``d_tau = 2*pi/T_box``.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import omega
from .dyadic import SUPPORT, eta0, eta_k, shell_count
from .grid import require_hermitian
from .solver import dealias_mask

__all__ = [
    "SpaceTimeField",
    "free_trajectory",
    "uniform_times",
    "xsb_norm",
    "xk_norm",
    "modulation_profiles",
    "low_frequency_norm",
    "fbar_norm",
    "duhamel_bilinear",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)
_BLOCK = 64  # time samples per batched FFT


def uniform_times(t_lo, t_hi, count):
    if count < 4:
        raise ValueError("time window needs at least 4 samples")
    return np.linspace(t_lo, t_hi, count, endpoint=False)


def free_trajectory(phi, disp, times):
    """Exact linear evolution of the real field ``phi`` sampled on ``times``
    (any signs): ``(times, coeffs)`` with one row of coefficients per sample."""
    if not phi.real:
        raise ValueError("the free trajectory is sampled for real-flagged fields only")
    times = np.asarray(times, dtype=np.float64)
    w = omega(phi.grid.xi, disp)
    coeffs = np.empty((times.size, phi.grid.size), dtype=np.complex128)
    for lo in range(0, times.size, _BLOCK):
        rows = coeffs[lo:lo + _BLOCK]
        np.multiply(phi.coeffs, np.exp(1j * w * times[lo:lo + _BLOCK, None]), out=rows)
        rows[:, phi.grid.nyquist_index] = 0.0
    require_hermitian(coeffs)
    return times, coeffs


@dataclass(frozen=True)
class SpaceTimeField:
    """2-D coefficients over the (xi, tau) lattice of a windowed signal."""

    grid: object
    t_box: float
    coeffs2d: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs2d, dtype=np.complex128)
        if c.ndim != 2 or c.shape[1] != self.grid.size:
            raise ValueError("coefficient array must be (n_t, n_x)")
        object.__setattr__(self, "coeffs2d", c)

    @property
    def n_t(self):
        return self.coeffs2d.shape[0]

    @property
    def dtau(self):
        return 2.0 * np.pi / self.t_box

    @property
    def tau(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n_t) * self.n_t / self.t_box

    @property
    def cell(self):
        return self.grid.dxi * self.dtau

    @classmethod
    def from_samples(cls, grid, times, coeffs, window=True):
        """Windowed 2-D transform of uniform samples, ``coeffs`` holding one
        row of spectral coefficients per time."""
        times = np.asarray(times, dtype=np.float64)
        if times.size < 4:
            raise ValueError("time window needs at least 4 samples")
        dts = np.diff(times)
        if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
            raise ValueError("time samples must be uniform")
        dt = float(dts[0])
        t_box = dt * times.size
        mat = coeffs * eta0(times)[:, None] if window else coeffs
        # continuum-convention transform in t, with the absolute phase of t0
        F = cls(grid=grid, t_box=t_box, coeffs2d=np.fft.fft(mat, axis=0) * (dt / _SQRT2PI))
        F.coeffs2d[...] *= np.exp(-1j * F.tau[:, None] * times[0])
        return F


def _modulation(F, disp):
    return F.tau[:, None] - omega(F.grid.xi, disp)[None, :]


def _physical_rows(grid, coeffs, multiplier=None):
    """Physical values of real samples, one row each (axis-1 ifft);
    ``multiplier`` (FFT order) is applied first with the Nyquist mode zeroed."""
    if multiplier is not None:
        coeffs = coeffs * multiplier
        coeffs[:, grid.nyquist_index] = 0.0
    return (np.fft.ifft(coeffs, axis=1) * (_SQRT2PI / grid.dx)).real


def xsb_norm(F, s, b, disp):
    """Weighted space-time norm with ``<tau - omega(xi)>^b <xi>^s``."""
    mod = _modulation(F, disp)
    wt = (1.0 + mod ** 2) ** b * (1.0 + F.grid.xi[None, :] ** 2) ** s
    return float(np.sqrt(np.sum(wt * np.abs(F.coeffs2d) ** 2) * F.cell))


def _first_shell(a):
    """Smallest j >= 0 with ``a / 2^j < SUPPORT``, entrywise for ``a >= 0``:
    ``eta0(a/2^j)`` is 0 for every smaller j and 1 from j + 1 on. The
    exponent of the rounded ``a / SUPPORT`` gives it exactly: a double below
    ``SUPPORT * 2^j`` lies a relative 2^-52/1.6 or more below it, more than
    the half ulp that could round the quotient up to ``2^j``."""
    return np.maximum(np.frexp(a / SUPPORT)[1], 0)


def modulation_profiles(F, disp):
    """``A[j, xi] = sum_tau eta_j(tau - omega(xi))^2 |F|^2`` for the
    modulation shells j = 0..j_max that cover the lattice."""
    mod = _modulation(F, disp)
    top = np.max(np.abs(mod))
    j_max = 0
    while 1.25 * 2.0 ** j_max < top:
        j_max += 1
    # eta_j = eta0(./2^j) - eta0(./2^(j-1)) telescopes, so an entry lies in
    # shell j0 = _first_shell(|mod|), where eta_j0 is eta0(mod/2^j0), and in
    # shell j0 + 1, where eta0(mod/2^(j0+1)) is exactly 1
    j0 = _first_shell(np.abs(mod))
    e = eta0(np.ldexp(mod, -j0))
    mag2 = np.abs(F.coeffs2d) ** 2
    # each row's two shells side by side, so every bin sums in row order
    # (written in place to keep the temporaries few); shell j_max + 1 lies
    # past the lattice and is dropped
    n_t, n = mag2.shape
    weights = np.empty((n_t, 2, n))
    np.multiply(e ** 2, mag2, out=weights[:, 0])
    np.multiply((1.0 - e) ** 2, mag2, out=weights[:, 1])
    index = np.empty((n_t, 2, n), dtype=np.intp)
    np.add(j0 * n, np.arange(n), out=index[:, 0])
    np.add(index[:, 0], n, out=index[:, 1])
    sums = np.bincount(index.ravel(), weights.ravel(), minlength=(j_max + 2) * n)
    return sums.reshape(j_max + 2, n)[:j_max + 1]


def _shell_norm(F, profiles, k):
    pieces = profiles @ (eta_k(F.grid.xi, k) ** 2) * F.cell
    return float(np.sum(2.0 ** (np.arange(pieces.size) / 2.0) * np.sqrt(pieces)))


def xk_norm(F, k, disp, profiles=None):
    """Dyadic-shell norm: ``sum_j 2^(j/2) ||eta_j(tau - omega) eta_k(xi) F||``.
    ``profiles``, if given, is ``modulation_profiles(F, disp)``."""
    if profiles is None:
        profiles = modulation_profiles(F, disp)
    return _shell_norm(F, profiles, k)


def low_frequency_norm(grid, times, coeffs, window=True):
    """``L_x^2 L_t^inf`` of the (windowed) low-frequency piece P_{<=0} of
    real samples, one row of ``coeffs`` per time."""
    v = np.abs(_physical_rows(grid, coeffs, eta0(grid.xi)))
    if window:
        v *= eta0(times)[:, None]
    return float(np.sqrt(np.sum(np.max(v, axis=0) ** 2) * grid.dx))


def fbar_norm(grid, times, coeffs, s, disp, window=True, F=None, profiles=None):
    """Resolution-space norm: dyadic X_k pieces for k >= 1 plus the
    low-frequency ``L_x^2 L_t^inf`` piece. ``F`` and ``profiles``, if given,
    are the samples' transform (with the same ``window``) and
    ``modulation_profiles(F, disp)``, so a caller holding them does not
    rebuild them."""
    if F is None:
        F = SpaceTimeField.from_samples(grid, times, coeffs, window=window)
    if profiles is None:
        profiles = modulation_profiles(F, disp)
    total = low_frequency_norm(grid, times, coeffs, window=window) ** 2
    for k in range(1, shell_count(grid) + 1):
        total += 2.0 ** (2.0 * s * k) * _shell_norm(F, profiles, k) ** 2
    return float(np.sqrt(total))


def duhamel_bilinear(grid, times, coeffs_u, coeffs_v, disp, dealias_fraction=2.0 / 3.0):
    """``B(u, v)(t) = psi(t/4) int_0^t W(t-s) d/dx (psi^2(s) u v)(s) ds``.

    Composite trapezoid in the integration variable with the linear flow
    applied exactly on real samples (one row of ``coeffs_u``/``coeffs_v`` per
    time); returns the output coefficients on the input time grid plus
    a self-convergence estimate from the stride-2 subgrid (which must
    change the output L^2 norm by < 0.5% for a trustworthy quadrature).
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 9:
        raise ValueError("time grid too coarse for the Duhamel quadrature")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ValueError("time samples must be uniform")
    i0 = int(np.argmin(np.abs(times)))
    if times[0] > 0.0 or times[-1] < 0.0 or abs(times[i0]) > 0.1 * dts[0]:
        raise ValueError("time grid must contain t = 0")
    w = omega(grid.xi, disp)
    ixi_mask = 1j * grid.xi * dealias_mask(grid, dealias_fraction)
    # integrand W(-s) d/dx (psi^2 u v)(s) on every sample, in blocks
    integrand = np.empty((times.size, grid.size), dtype=np.complex128)
    for lo in range(0, times.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        ts = times[rows]
        prod = (eta0(ts) ** 2)[:, None] * _physical_rows(grid, coeffs_u[rows])
        prod *= _physical_rows(grid, coeffs_v[rows])
        q = np.fft.fft(prod, axis=1) * (grid.dx / _SQRT2PI) * ixi_mask
        q[:, grid.nyquist_index] = 0.0
        integrand[rows] = q * np.exp(-1j * w * ts[:, None])

    def integrate(a, ts, j0, out):
        # trapezoid sums from t = 0, forward above it and backward below it;
        # ``out`` may be ``a`` itself: row j0 is read by both halves, then zeroed
        h = 0.5 * (ts[1] - ts[0])
        np.multiply(a[j0:-1] + a[j0 + 1:], h, out=out[j0 + 1:])
        np.multiply(a[:j0] + a[1:j0 + 1], -h, out=out[:j0])
        out[j0] = 0.0
        np.cumsum(out[j0 + 1:], axis=0, out=out[j0 + 1:])
        np.cumsum(out[:j0][::-1], axis=0, out=out[:j0][::-1])
        for lo in range(0, ts.size, _BLOCK):
            tb = ts[lo:lo + _BLOCK, None]
            out[lo:lo + _BLOCK] *= eta0(tb / 4.0) * np.exp(1j * w * tb)
        return out

    # the stride-2 subgrid first, so the full grid can integrate in place
    sub = slice(i0 % 2, None, 2)
    coarse = integrate(integrand[sub], times[sub], i0 // 2, np.empty_like(integrand[sub]))
    full = integrate(integrand, times, i0, integrand)
    require_hermitian(coarse)
    require_hermitian(full)
    den = np.linalg.norm(full[sub])
    rel_change = np.linalg.norm(full[sub] - coarse) / den if den > 0 else 0.0
    return {"times": times, "coeffs": full, "quadrature_change": float(rel_change)}
