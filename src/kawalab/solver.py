"""Pseudospectral time integration of ``u_t + mu*u_xxx + u_xxxxx + u*u_x = 0``.

The linear phase is applied exactly (integrating factor), so the quintic
symbol never limits the step; classical RK4 handles the dealiased
nonlinearity. The zero mode is untouched by every stage, so the spatial
mean is conserved to the bit. A real field is stepped as its half spectrum
(modes 0..n/2, real-FFT transforms), so its Hermitian symmetry holds by
construction; full-spectrum fields are built only at monitor samples.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import omega
from .grid import SpectralField, sobolev_norm

__all__ = [
    "SolverConfig",
    "Trajectory",
    "SolverDivergenceError",
    "PetviashviliError",
    "dealias_cutoff_index",
    "dealias_mask",
    "nonlinear_rhs",
    "step",
    "simulate",
    "petviashvili_wave",
    "trajectory_to_rows",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)

DIVERGENCE_THRESHOLD = 1e15
PHASE_GUARD = 1e6


class SolverDivergenceError(RuntimeError):
    def __init__(self, t):
        super().__init__(f"solution diverged at t = {t!r}")
        self.t = t


class PetviashviliError(RuntimeError):
    def __init__(self, residual, iterations):
        super().__init__(
            f"fixed-point iteration did not converge "
            f"({iterations} iterations, last update {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    grid: object
    disp: object
    dt: float
    t_end: float
    dealias_fraction: float = 2.0 / 3.0
    monitor_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if not (0.5 < self.dealias_fraction < 1.0):
            raise ValueError("dealias_fraction must lie in (1/2, 1)")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be at least 1")
        wmax = float(np.max(np.abs(omega(self.grid.xi, self.disp))))
        if self.dt * wmax > PHASE_GUARD:
            raise ValueError(
                f"phase-accuracy guard violated: dt*max|omega| = {self.dt * wmax:.3e} > 1e6"
            )


@dataclass
class Trajectory:
    """Ordered (t, field) samples plus per-sample conserved quantities."""

    times: list = dc_field(default_factory=list)
    fields: list = dc_field(default_factory=list)
    means: list = dc_field(default_factory=list)
    l2_masses: list = dc_field(default_factory=list)
    dealias_cutoff: float = np.inf

    def append(self, t, u):
        if self.times and t <= self.times[-1]:
            raise ValueError("trajectory times must increase strictly")
        self.times.append(float(t))
        self.fields.append(u)
        self.means.append(u.mean())
        self.l2_masses.append(u.l2_norm() ** 2)

    def __len__(self):
        return len(self.times)


def dealias_cutoff_index(grid, fraction=2.0 / 3.0):
    """Largest retained mode index: ``floor(fraction * n/2)``."""
    return int(np.floor(fraction * (grid.size // 2)))


def dealias_mask(grid, fraction=2.0 / 3.0):
    return (np.abs(grid.modes) <= dealias_cutoff_index(grid, fraction)).astype(np.float64)


def nonlinear_rhs(u, dealias_fraction=2.0 / 3.0):
    """Dealiased ``-(1/2) d/dx (u^2)`` by transform-square-transform.

    Masking before and after the pointwise square makes the retained band
    alias-free for the quadratic product; the output is an exact spatial
    derivative, so its mean vanishes identically.
    """
    band, mult = _rhs_multiplier(u.grid, dealias_fraction)
    return u.with_coeffs(_full_spectrum(mult * _square(u.coeffs[:band], u.grid.size)))


def _square(c, n):
    """``rfft(v*v)`` for ``v = irfft(c, n)``, unscaled (modes missing from a
    short ``c`` count as zero); for unitary coefficients the half spectrum
    of ``F[u^2]`` is this times ``sqrt(2 pi)/dx``."""
    v = np.fft.irfft(c, n)
    return np.fft.rfft(v * v)


def _full_spectrum(half):
    """FFT-order coefficients of the real field with half spectrum ``half``
    (modes 0..n/2), conjugate on mirrored modes; the Nyquist slot is zero."""
    return np.concatenate((half[:-1], [0.0], np.conj(half[-2:0:-1])))


def _rhs_multiplier(grid, dealias_fraction):
    """``(band, mult)``: the retained modes ``0..band-1`` and the multiplier
    folding the dealias mask, ``-(1/2) d/dx`` and both transform scales, so
    ``mult * _square(c[:band], n)`` is the half-spectrum nonlinear term."""
    band = dealias_cutoff_index(grid, dealias_fraction) + 1
    mult = np.zeros(grid.size // 2 + 1, dtype=np.complex128)
    mult[:band] = (-0.5j * _SQRT2PI / grid.dx) * (np.arange(band) * grid.dxi)
    return band, mult


def _half_spectrum(u, grid):
    """Modes 0..n/2 of a real datum that lives on ``grid``."""
    if not u.real:
        raise ValueError("the solver steps real-flagged fields only")
    if u.grid != grid:
        raise ValueError(f"datum grid {u.grid} does not match the configured grid {grid}")
    return u.coeffs[:grid.size // 2 + 1]


def _unit_phasor(w, t):
    """``exp(i w t)`` for the symbol ``w`` on modes m >= 0, the argument reduced
    mod 2 pi in extended precision: plain double products drift by ~|w t|
    ulps per step, which dominates long integrations."""
    arg = np.mod(w.astype(np.longdouble) * np.longdouble(t),
                 2 * np.longdouble(np.pi)).astype(np.float64)
    return np.exp(1j * arg)


class _Stepper:
    """Integrating-factor RK4 on the half spectrum (modes 0..n/2) of a real field.
    Modes outside the dealias band evolve by the linear phase alone."""

    def __init__(self, grid, disp, dt, dealias_fraction):
        self.n = grid.size
        self.dt = dt
        self.band, self.mult = _rhs_multiplier(grid, dealias_fraction)
        w = omega(np.arange(grid.size // 2 + 1) * grid.dxi, disp)
        self.e_half = _unit_phasor(w, 0.5 * dt)
        self.e_full = self.e_half * self.e_half

    def rhs(self, c):
        return self.mult * _square(c[:self.band], self.n)

    def step(self, c):
        dt, eh, ef = self.dt, self.e_half, self.e_full
        k1 = self.rhs(c)
        k2 = self.rhs(eh * (c + 0.5 * dt * k1))
        k3 = self.rhs(eh * c + 0.5 * dt * k2)
        k4 = self.rhs(ef * c + dt * eh * k3)
        out = ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
        # negated test: NaN compares false and must count as divergence
        if not np.max(np.abs(out)) <= DIVERGENCE_THRESHOLD:
            return None
        return out


def step(u, dt, config):
    """One integrating-factor RK4 step of size ``dt`` for a real field."""
    stepper = _Stepper(config.grid, config.disp, dt, config.dealias_fraction)
    c = stepper.step(_half_spectrum(u, config.grid))
    if c is None:
        raise SolverDivergenceError(dt)
    return u.with_coeffs(_full_spectrum(c))


def simulate(u0, config, t0=0.0):
    """Integrate from ``t0`` to ``t0 + t_end``, sampling every
    ``monitor_stride`` steps. The datum is projected into the dealias band
    first, so the computed dynamics are an exact Galerkin system."""
    grid = config.grid
    half = _half_spectrum(u0, grid)
    n_steps = max(1, int(round(config.t_end / config.dt)))
    dt = config.t_end / n_steps
    stepper = _Stepper(grid, config.disp, dt, config.dealias_fraction)

    traj = Trajectory(dealias_cutoff=dealias_cutoff_index(grid, config.dealias_fraction) * grid.dxi)
    c = np.pad(half[:stepper.band], (0, half.size - stepper.band))
    traj.append(t0, u0.with_coeffs(_full_spectrum(c)))
    for i in range(1, n_steps + 1):
        c = stepper.step(c)
        if c is None:
            raise SolverDivergenceError(t0 + i * dt)
        if i % config.monitor_stride == 0 or i == n_steps:
            traj.append(t0 + i * dt, u0.with_coeffs(_full_spectrum(c)))
    return traj


def trajectory_to_rows(traj, s=0.0):
    """Plot-ready rows (t, mean, l2_mass, h_s_norm)."""
    rows = []
    for t, u, mean, mass in zip(traj.times, traj.fields, traj.means, traj.l2_masses):
        rows.append((t, mean, mass, sobolev_norm(u, s)))
    return rows


def petviashvili_wave(c, disp, grid, width=4.0, center=None, tol=1e-12, max_iter=500):
    """Traveling-wave profile of ``-c*phi + mu*phi'' + phi'''' + phi^2/2 = 0``.

    The iteration inverts ``Q(xi) = xi^4 - mu*xi^2 - c`` (which must be
    positive on the whole lattice) against the quadratic term, with the
    standard exponent-2 normalization factor for a quadratic nonlinearity.
    Returns ``(field, residual_l2, iterations)``.
    """
    xi = grid.xi
    Q = xi ** 4 - disp.mu * xi ** 2 - c
    if np.any(Q <= 0.0):
        raise ValueError(
            "c*u + mu*u_xx + u_xxxx (speed-reversed symbol xi^4 - mu*xi^2 - c) "
            "must be positive-definite on the lattice"
        )
    if center is None:
        center = grid.length / 2.0
    guess = -np.exp(-((grid.x - center) / width) ** 2)
    c_hat = SpectralField.from_physical(grid, guess).coeffs

    dxi = grid.dxi
    for it in range(1, max_iter + 1):
        rhs = _quadratic(c_hat, grid)
        num = np.sum(Q * np.abs(c_hat) ** 2) * dxi
        den = np.sum(np.conj(c_hat) * rhs).real * dxi
        if den == 0.0:
            raise PetviashviliError(np.inf, it)
        gamma = (num / den) ** 2
        new = gamma * rhs / Q
        update = float(np.sqrt(np.sum(np.abs(new - c_hat) ** 2) * dxi))
        c_hat = new
        if update < tol:
            residual = _profile_residual(c_hat, Q, grid)
            return SpectralField(grid, c_hat, real=True), residual, it
    raise PetviashviliError(update, max_iter)


def _quadratic(c, grid):
    """Full spectrum of ``-phi^2/2`` for the real field with coefficients ``c``."""
    half = _square(c[:grid.size // 2 + 1], grid.size)
    return _full_spectrum(half * (-0.5 * _SQRT2PI / grid.dx))


def _profile_residual(c_hat, Q, grid):
    """L^2 norm of ``-Q*phi_hat - F[phi^2]/2`` (the profile equation)."""
    res = _quadratic(c_hat, grid) - Q * c_hat
    return float(np.sqrt(np.sum(np.abs(res) ** 2) * grid.dxi))
