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
from .dyadic import eta0, eta_k
from .grid import SpectralField
from .solver import dealias_mask

__all__ = [
    "SpaceTimeField",
    "free_trajectory",
    "uniform_times",
    "xsb_norm",
    "xk_norm",
    "low_frequency_norm",
    "fbar_norm",
    "duhamel_bilinear",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)


def uniform_times(t_lo, t_hi, count):
    if count < 4:
        raise ValueError("time window needs at least 4 samples")
    return np.linspace(t_lo, t_hi, count, endpoint=False)


def free_trajectory(phi, disp, times):
    """Exact linear evolution sampled on ``times`` (any signs)."""
    w = omega(phi.grid.xi, disp)
    out = []
    for t in times:
        c = phi.coeffs * np.exp(1j * w * t)
        c[phi.grid.nyquist_index] = 0.0
        out.append(phi.with_coeffs(c))
    return list(times), out


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
    def from_samples(cls, grid, times, fields, window=True):
        """Windowed 2-D transform of uniformly sampled spectral fields."""
        times = np.asarray(times, dtype=np.float64)
        if times.size < 4:
            raise ValueError("time window needs at least 4 samples")
        dts = np.diff(times)
        if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
            raise ValueError("time samples must be uniform")
        dt = float(dts[0])
        t_box = dt * times.size
        mat = np.stack([f.coeffs for f in fields])
        if window:
            mat = mat * eta0(times)[:, None]
        # continuum-convention transform in t, with the absolute phase of t0
        co = np.fft.fft(mat, axis=0) * (dt / _SQRT2PI)
        tau = 2.0 * np.pi * np.fft.fftfreq(times.size) * times.size / t_box
        co *= np.exp(-1j * tau[:, None] * times[0])
        return cls(grid=grid, t_box=t_box, coeffs2d=co)


def _modulation(F, disp):
    return F.tau[:, None] - omega(F.grid.xi, disp)[None, :]


def xsb_norm(F, s, b, disp):
    """Weighted space-time norm with ``<tau - omega(xi)>^b <xi>^s``."""
    mod = _modulation(F, disp)
    wt = (1.0 + mod ** 2) ** b * (1.0 + F.grid.xi[None, :] ** 2) ** s
    return float(np.sqrt(np.sum(wt * np.abs(F.coeffs2d) ** 2) * F.cell))


def xk_norm(F, k, disp):
    """Dyadic-shell norm: ``sum_j 2^(j/2) ||eta_j(tau - omega) eta_k(xi) F||``."""
    mod = _modulation(F, disp)
    fk = eta_k(F.grid.xi, k)[None, :] * F.coeffs2d
    mag2 = np.abs(fk) ** 2
    top = np.max(np.abs(mod))
    j_max = 0
    while 1.25 * 2.0 ** j_max < top:
        j_max += 1
    total = 0.0
    for j in range(j_max + 1):
        wj = eta_k(mod, j) if j > 0 else eta0(mod)
        piece = np.sum(wj ** 2 * mag2) * F.cell
        total += 2.0 ** (j / 2.0) * np.sqrt(piece)
    return float(total)


def low_frequency_norm(times, fields, window=True):
    """``L_x^2 L_t^inf`` of the (windowed) low-frequency piece P_{<=0}."""
    from .dyadic import project_low

    times = np.asarray(times, dtype=np.float64)
    profiles = []
    for t, f in zip(times, fields):
        low = project_low(f, 0)
        v = np.abs(low.to_physical())
        if window:
            v = v * eta0(t)
        profiles.append(v)
    sup = np.max(np.stack(profiles), axis=0)
    grid = fields[0].grid
    return float(np.sqrt(np.sum(sup ** 2) * grid.dx))


def fbar_norm(times, fields, s, disp, window=True):
    """Resolution-space norm: dyadic X_k pieces for k >= 1 plus the
    low-frequency ``L_x^2 L_t^inf`` piece."""
    grid = fields[0].grid
    F = SpaceTimeField.from_samples(grid, times, fields, window=window)
    from .dyadic import shell_count

    total = low_frequency_norm(times, fields, window=window) ** 2
    for k in range(1, shell_count(grid) + 1):
        total += 2.0 ** (2.0 * s * k) * xk_norm(F, k, disp) ** 2
    return float(np.sqrt(total))


def duhamel_bilinear(times, fields_u, fields_v, disp, dealias_fraction=2.0 / 3.0):
    """``B(u, v)(t) = psi(t/4) int_0^t W(t-s) d/dx (psi^2(s) u v)(s) ds``.

    Composite trapezoid in the integration variable with the linear flow
    applied exactly; returns the output fields on the input time grid plus
    a self-convergence estimate from the stride-2 subgrid (which must
    change the output L^2 norm by < 0.5% for a trustworthy quadrature).
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 9:
        raise ValueError("time grid too coarse for the Duhamel quadrature")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ValueError("time samples must be uniform")
    if times[0] > 0.0 or times[-1] < 0.0:
        raise ValueError("time grid must contain t = 0")
    grid = fields_u[0].grid
    w = omega(grid.xi, disp)
    mask = dealias_mask(grid, dealias_fraction)

    def forcing(t, fu, fv):
        vu = fu.to_physical()
        vv = fv.to_physical()
        prod = (eta0(t) ** 2) * vu * vv
        q = np.fft.fft(prod) * (grid.dx / _SQRT2PI)
        q = 1j * grid.xi * q * mask
        q[grid.nyquist_index] = 0.0
        return q

    def integrate(sub):
        ts = times[sub]
        dt = ts[1] - ts[0]
        integrand = np.stack(
            [
                forcing(times[i], fields_u[i], fields_v[i]) * np.exp(-1j * w * times[i])
                for i in sub
            ]
        )
        i0 = int(np.argmin(np.abs(ts)))
        if abs(ts[i0]) > 0.1 * dt:
            raise ValueError("time grid must contain t = 0")
        cum = np.zeros_like(integrand)
        for i in range(i0 + 1, ts.size):
            cum[i] = cum[i - 1] + 0.5 * dt * (integrand[i - 1] + integrand[i])
        for i in range(i0 - 1, -1, -1):
            cum[i] = cum[i + 1] - 0.5 * dt * (integrand[i] + integrand[i + 1])
        outs = []
        for i, t in enumerate(ts):
            c = eta0(t / 4.0) * np.exp(1j * w * t) * cum[i]
            c[grid.nyquist_index] = 0.0
            outs.append(SpectralField(grid, c, real=True))
        return outs

    i0_full = int(np.argmin(np.abs(times)))
    sub = np.arange(i0_full % 2, times.size, 2)
    full = integrate(np.arange(times.size))
    coarse = integrate(sub)
    # difference the coefficients: a real-flagged difference of two nearly
    # equal fields can fail the field's relative Hermitian check
    num = sum(np.sum(np.abs(full[i].coeffs - g.coeffs) ** 2) * grid.dxi
              for i, g in zip(sub, coarse))
    den = sum(full[i].l2_norm() ** 2 for i in sub)
    rel_change = np.sqrt(num / den) if den > 0 else 0.0
    return {"times": times, "fields": full, "quadrature_change": float(rel_change)}
