"""Space-time transforms, modulation-weighted norms, and the Duhamel
bilinear operator.

A :class:`SpaceTimeField` holds the 2-D coefficients of a time-windowed
trajectory: the window is the plateau cutoff ``eta0(t)``, and the time
transform uses the same unitary convention as the spatial one, with
``d_tau = 2*pi/T_box``.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import omega, phasor
from .dyadic import SUPPORT, eta0, eta_k, shell_count
from .grid import _SQRT2PI, _full_spectrum, require_hermitian
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

_BLOCK = 64  # time samples per batched FFT


def uniform_times(t_lo, t_hi, count):
    if count < 4:
        raise ValueError("time window needs at least 4 samples")
    return np.linspace(t_lo, t_hi, count, endpoint=False)


def free_trajectory(phi, disp, times):
    """Exact linear evolution of the real field ``phi`` sampled on ``times``
    (any signs): ``(times, coeffs)`` with one row of coefficients per sample,
    each ``free_evolve(phi, t, disp).coeffs``."""
    times = np.asarray(times, dtype=np.float64)
    w = omega(phi.grid.xi[:phi.grid.size // 2 + 1], disp)
    coeffs = np.empty((times.size, phi.grid.size), dtype=np.complex128)
    for lo in range(0, times.size, _BLOCK):
        phase = _full_spectrum(phasor(w, times[lo:lo + _BLOCK, None]))
        np.multiply(phi.coeffs, phase, out=coeffs[lo:lo + _BLOCK])
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
    def from_samples(cls, grid, times, coeffs):
        """Windowed 2-D transform of uniform samples, ``coeffs`` holding one
        row of spectral coefficients per time; the window is ``eta0(t)``."""
        times = np.asarray(times, dtype=np.float64)
        if times.size < 4:
            raise ValueError("time window needs at least 4 samples")
        dts = np.diff(times)
        if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
            raise ValueError("time samples must be uniform")
        dt = float(dts[0])
        t_box = dt * times.size
        mat = coeffs * eta0(times)[:, None]
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


def low_frequency_norm(grid, times, coeffs):
    """``L_x^2 L_t^inf`` of the windowed low-frequency piece P_{<=0} of
    real samples, one row of ``coeffs`` per time; the window is
    ``eta0(t)``."""
    v = np.abs(_physical_rows(grid, coeffs, eta0(grid.xi)))
    v *= eta0(times)[:, None]
    return float(np.sqrt(np.sum(np.max(v, axis=0) ** 2) * grid.dx))


def fbar_norm(grid, times, coeffs, s, disp, F=None, profiles=None):
    """Resolution-space norm of the windowed samples: dyadic X_k pieces for
    k >= 1 plus the low-frequency ``L_x^2 L_t^inf`` piece. ``F`` and
    ``profiles``, if given, are ``SpaceTimeField.from_samples(grid, times,
    coeffs)`` and ``modulation_profiles(F, disp)``, so a caller holding them
    does not rebuild them."""
    if F is None:
        F = SpaceTimeField.from_samples(grid, times, coeffs)
    if profiles is None:
        profiles = modulation_profiles(F, disp)
    total = low_frequency_norm(grid, times, coeffs) ** 2
    for k in range(1, shell_count(grid) + 1):
        total += 2.0 ** (2.0 * s * k) * _shell_norm(F, profiles, k) ** 2
    return float(np.sqrt(total))


def duhamel_bilinear(u0, v0, disp, times):
    """``B(u, v)(t) = psi(t/4) int_0^t W(t-s) d/dx (psi^2(s) u v)(s) ds`` for
    the free flows ``u(s) = W(s) u0`` and ``v(s) = W(s) v0`` of two real
    fields.

    Composite trapezoid in the integration variable with the linear flow
    applied exactly; returns the output coefficients on the uniform time
    grid ``times`` (which holds t = 0) plus a self-convergence estimate from
    the stride-2 subgrid (which must change the output L^2 norm by < 0.5%
    for a trustworthy quadrature). The product is dealiased as in the
    solver, at ``solver.DEALIAS_FRACTION``.

    Two sweeps outward from t = 0, forward and backward, take ``_BLOCK``
    samples at a time: each block evaluates ``exp(i w s)`` once, for both
    flows, the integrand phase and the output factor, and carries the
    running trapezoid sums of both grids to the next. No flow, phase or
    integrand lattice is held beyond a block.
    """
    if u0.grid != v0.grid:
        raise ValueError("the two data live on different grids")
    grid = u0.grid
    times = np.asarray(times, dtype=np.float64)
    if times.size < 9:
        raise ValueError("time grid too coarse for the Duhamel quadrature")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ValueError("time samples must be uniform")
    i0 = int(np.argmin(np.abs(times)))
    if times[0] > 0.0 or times[-1] < 0.0 or abs(times[i0]) > 0.1 * dts[0]:
        raise ValueError("time grid must contain t = 0")
    w = omega(grid.xi[:grid.size // 2 + 1], disp)
    ixi_mask = 1j * grid.xi * dealias_mask(grid)
    h = 0.5 * (times[1] - times[0])
    h_sub = 0.5 * (times[i0 % 2 + 2] - times[i0 % 2])
    coeffs = np.empty((times.size, grid.size), dtype=np.complex128)

    def sweep(out, ts, sign):
        # rows of ``out`` and ``ts`` run outward from t = 0, where the
        # trapezoid sums of both grids start at 0; the stride-2 rows are the
        # even ones. ``a`` holds a block's integrand rows after the last two
        # rows of the block before. Returns the squared L^2 norms, over the
        # stride-2 rows, of the output and of its change on the stride-2 grid.
        a = np.zeros((_BLOCK + 2, grid.size), dtype=np.complex128)
        norms = np.zeros(2)
        for lo in range(0, ts.size, _BLOCK):
            tb = ts[lo:lo + _BLOCK]
            m = tb.size
            rows = out[lo:lo + m]
            phase = _full_spectrum(phasor(w, tb[:, None]))
            pu = _physical_rows(grid, u0.coeffs * phase)
            prod = (eta0(tb) ** 2)[:, None] * pu
            prod *= pu if v0 is u0 else _physical_rows(grid, v0.coeffs * phase)
            q = np.fft.fft(prod, axis=1) * (grid.dx / _SQRT2PI) * ixi_mask
            np.multiply(q, np.conj(phase), out=a[2:m + 2])
            np.add(a[1:m + 1], a[2:m + 2], out=rows)
            rows *= sign * h
            coarse = (a[0:m:2] + a[2:m + 2:2]) * (sign * h_sub)
            if lo == 0:
                rows[0] = coarse[0] = 0.0
            else:
                rows[0] += carry
                coarse[0] += carry_sub
            np.cumsum(rows, axis=0, out=rows)
            np.cumsum(coarse, axis=0, out=coarse)
            carry, carry_sub = rows[-1].copy(), coarse[-1].copy()
            a[:2] = a[m:m + 2]
            factor = eta0(tb[:, None] / 4.0) * phase
            rows *= factor
            coarse *= factor[::2]
            coarse -= rows[::2]
            norms += [_squared_norm(rows[::2]), _squared_norm(coarse)]
        return norms

    # t = 0 is the first row of both sweeps; its output is 0
    full_sq, change_sq = sweep(coeffs[i0:], times[i0:], 1.0) + sweep(
        coeffs[i0::-1], times[i0::-1], -1.0)
    require_hermitian(coeffs)
    rel_change = np.sqrt(change_sq / full_sq) if full_sq > 0 else 0.0
    return {"times": times, "coeffs": coeffs, "quadrature_change": float(rel_change)}


def _squared_norm(z):
    """``sum |z|^2`` by ufunc sums, which never reach a threaded BLAS."""
    return np.sum(z.real ** 2) + np.sum(z.imag ** 2)
