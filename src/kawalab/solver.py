"""Pseudospectral time integration of ``u_t + mu*u_xxx + u_xxxxx + u*u_x = 0``.

The linear phase is applied exactly (integrating factor), so the quintic
symbol never limits the step; classical RK4 handles the dealiased
nonlinearity. The zero mode is untouched by every stage, so the spatial
mean is conserved to the bit. A real field is stepped as the dealias band
of its half spectrum (modes 0..K, real-FFT transforms), so its Hermitian
symmetry holds by construction; full-spectrum fields are built only at
monitor samples.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import omega, phasor
from .grid import _SQRT2PI, SpectralField, _full_spectrum, sobolev_norm

__all__ = [
    "SolverConfig",
    "Trajectory",
    "SolverDivergenceError",
    "PetviashviliError",
    "dealias_cutoff_index",
    "dealias_mask",
    "guarded_dt",
    "nonlinear_rhs",
    "step",
    "simulate",
    "petviashvili_wave",
    "trajectory_to_rows",
]

# The real transforms call pocketfft's gufuncs, the kernels np.fft.irfft and
# np.fft.rfft end in, without the wrapper's per-call dispatch and checks;
# numpy >= 2.0 ships them. _irfft(c, fct, out=v) fills the real v of length
# n from the half spectrum c (modes missing from a short c count as zero) and
# _rfft(v, fct, out=spec) fills spec of length n/2+1; both scale by fct. As
# np.fft does, the forward rfft and the stepper's unscaled inverse (the
# wrapper's norm="forward") run at fct = 1.0 and _square's default-normalised
# inverse at 1/n. rfft_n_even is valid for every Grid: n is a power of two
# >= 8. A numpy without that private module gets the public wrappers below,
# which take the same arguments and give the same bits.


def _public_irfft(c, fct, out):
    """``_irfft`` through ``np.fft.irfft``. The solver passes fct 1.0, its
    ``norm="forward"``, or 1/n, its default norm."""
    return np.fft.irfft(c, out.shape[-1], norm="forward" if fct == 1.0 else "backward",
                        out=out)


def _public_rfft(v, fct, out):
    """``_rfft`` through ``np.fft.rfft``. The solver passes fct 1.0, its
    default norm."""
    return np.fft.rfft(v, out=out)


try:
    from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft
except ImportError:
    _irfft, _rfft = _public_irfft, _public_rfft

DIVERGENCE_THRESHOLD = 1e15
PHASE_GUARD = 1e6
# share of the half spectrum the nonlinearity keeps: the 2/3 rule, fixed, as
# the widest band in which the quadratic product does not alias
DEALIAS_FRACTION = 2.0 / 3.0


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
    monitor_stride: int = 1

    def __post_init__(self):
        if not (0.0 <= self.t_end < np.inf):
            raise ValueError("t_end must be nonnegative and finite")
        # an integer type first: NaN and Inf compare false against 1, and a
        # fractional stride would sample wherever i % stride happens to be 0
        if not (isinstance(self.monitor_stride, (int, np.integer)) and self.monitor_stride >= 1):
            raise ValueError(f"monitor_stride must be an integer >= 1, got {self.monitor_stride!r}")
        _check_dt(self.grid, self.disp, self.dt)


def _max_omega(grid, disp):
    """max|omega| over the whole grid: the scope of the phase guard."""
    return float(np.max(np.abs(omega(grid.xi, disp))))


def guarded_dt(grid, disp, share):
    """The step that spends ``share`` of the phase guard on ``grid``:
    ``share * PHASE_GUARD / max|omega|``, the maximum taken as at least 1.
    ``SolverConfig`` accepts it for ``share < 1``; at ``share = 1`` the
    rounded ``dt*max|omega|`` can land one ulp over the guard."""
    return share * PHASE_GUARD / max(_max_omega(grid, disp), 1.0)


def _check_dt(grid, disp, dt):
    """Raise ValueError unless ``0 < dt < inf`` and ``dt*max|omega|`` over
    the whole grid is at most ``PHASE_GUARD``."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    wmax = _max_omega(grid, disp)
    if dt * wmax > PHASE_GUARD:
        raise ValueError(
            f"phase-accuracy guard violated: dt*max|omega| = {dt * wmax:.3e} > 1e6"
        )


@dataclass
class Trajectory:
    """Ordered (t, field) samples plus per-sample conserved quantities.

    ``steps`` and ``dt`` are the step count and size that were run, and
    ``peak_growth`` is the largest max|c| over all steps divided by the
    band-projected datum's max|c|, both taken over the modes other than
    the mean, which the solver conserves to the bit (0.0 for a datum with
    no such mode); ``simulate`` sets all three. ``dealias_cutoff`` is the
    frequency at which the solver's band ends; it has no default."""

    dealias_cutoff: float
    times: list = dc_field(default_factory=list)
    fields: list = dc_field(default_factory=list)
    means: list = dc_field(default_factory=list)
    l2_masses: list = dc_field(default_factory=list)
    steps: int = 0
    dt: float = 0.0
    peak_growth: float = 0.0

    def append(self, t, u):
        # NaN would pass the strict-increase test below, which compares false
        if not np.isfinite(t):
            raise ValueError(f"trajectory times must be finite, got {t!r}")
        if self.times and t <= self.times[-1]:
            raise ValueError("trajectory times must increase strictly")
        self.times.append(float(t))
        self.fields.append(u)
        self.means.append(u.mean())
        self.l2_masses.append(u.l2_norm() ** 2)

    def __len__(self):
        return len(self.times)


def dealias_cutoff_index(grid):
    """Largest retained mode index: ``floor(DEALIAS_FRACTION * n/2)``."""
    return int(np.floor(DEALIAS_FRACTION * (grid.size // 2)))


def dealias_mask(grid):
    return (np.abs(grid.modes) <= dealias_cutoff_index(grid)).astype(np.float64)


def nonlinear_rhs(u):
    """Dealiased ``-(1/2) d/dx (u^2)`` by transform-square-transform.

    Masking before and after the pointwise square makes the retained band
    alias-free for the quadratic product; the output is an exact spatial
    derivative, so its mean vanishes identically.
    """
    band, mult = _rhs_multiplier(u.grid)
    return u.with_coeffs(_full_spectrum(mult * _square(u.coeffs[:band], u.grid.size)))


def _square(c, n):
    """``rfft(v*v)`` for ``v = irfft(c, n)``, unscaled (modes missing from a
    short ``c`` count as zero); for unitary coefficients the half spectrum
    of ``F[u^2]`` is this times ``sqrt(2 pi)/dx``."""
    v = _irfft(c, 1.0 / n, out=np.empty(n))
    np.multiply(v, v, out=v)
    return _rfft(v, 1.0, out=np.empty(n // 2 + 1, dtype=np.complex128))


def _band_field(u, c):
    """``u``'s real field with band coefficients ``c``, zero above the band."""
    half = np.zeros(u.grid.size // 2 + 1, dtype=np.complex128)
    half[:c.size] = c
    return u.with_coeffs(_full_spectrum(half))


def _rhs_multiplier(grid):
    """``(band, mult)``: the retained modes ``0..band-1`` and the multiplier
    folding the dealias mask, ``-(1/2) d/dx`` and both transform scales, so
    ``mult * _square(c[:band], n)`` is the half-spectrum nonlinear term."""
    band = dealias_cutoff_index(grid) + 1
    mult = np.zeros(grid.size // 2 + 1, dtype=np.complex128)
    mult[:band] = (-0.5j * _SQRT2PI / grid.dx) * (np.arange(band) * grid.dxi)
    return band, mult


def _half_spectrum(u, grid):
    """Modes 0..n/2 of a datum that lives on ``grid``."""
    if u.grid != grid:
        raise ValueError(f"datum grid {u.grid} does not match the configured grid {grid}")
    return u.coeffs[:grid.size // 2 + 1]


class _Stepper:
    """Integrating-factor RK4 on the dealias band (modes 0..band-1) of a real
    field's half spectrum. Modes band..n/2 of a datum projected into the band
    stay zero (the multiplier vanishes there), so they are not stored. The
    stages write into buffers the stepper owns; only each returned state is a
    fresh array. ``peak`` is the largest max|c| over modes 1..band-1 the
    guard has passed."""

    def __init__(self, grid, disp, dt):
        n = grid.size
        band, mult = _rhs_multiplier(grid)
        # the inverse transform runs unscaled (fct = 1.0), which leaves
        # the square n**2 times larger; n is a power of two, so folding
        # 1/n**2 into the multiplier keeps every bit
        self.band, self.mult = band, mult[:band] * (1.0 / (n * n))
        eh = phasor(omega(np.arange(band) * grid.dxi, disp), 0.5 * dt)
        self.e_half, self.e_full = eh, eh * eh
        # the array factors of dt*eh*k3 and 2.0*eh*(k2+k3), which evaluate
        # left to right, so precomputing them keeps every bit
        self.dt_eh, self.two_eh = dt * eh, 2.0 * eh
        # the scalar factors dt/2 and dt/6 as 0-d complex arrays: a float
        # operand is cast to exactly this complex value on every call, so
        # casting once keeps every bit and skips the per-call conversion
        self.h, self.dt6 = np.array(0.5 * dt + 0j), np.array(dt / 6.0 + 0j)
        self.peak = 0.0
        self._v = np.empty(n)
        self._spec = np.empty(n // 2 + 1, dtype=np.complex128)
        self._spec_band = self._spec[:band]
        self._k = tuple(np.empty((4, band), dtype=np.complex128))
        self._s, self._t, self._efc = np.empty((3, band), dtype=np.complex128)
        self._abs = np.empty(band)
        self._abs_tail = self._abs[1:]  # never empty: band >= 3 since n >= 8

    def _rhs(self, c, k):
        v = _irfft(c, 1.0, out=self._v)
        np.multiply(v, v, out=v)
        _rfft(v, 1.0, out=self._spec)
        np.multiply(self.mult, self._spec_band, out=k)

    def step(self, c):
        """One step from band coefficients ``c``, which are left unchanged.
        Returns the new state, or None if its max|c| exceeds
        ``DIVERGENCE_THRESHOLD`` or is NaN. Each operation has the operands
        and order of ``ef*c + (dt/6)*(ef*k1 + 2*eh*(k2+k3) + k4)`` with
        ``k2 = rhs(eh*(c + dt/2*k1))``, ``k3 = rhs(eh*c + dt/2*k2)`` and
        ``k4 = rhs(ef*c + dt*eh*k3)``."""
        eh, ef, h = self.e_half, self.e_full, self.h
        k1, k2, k3, k4 = self._k
        s, t, efc = self._s, self._t, self._efc
        self._rhs(c, k1)
        np.multiply(h, k1, out=s)
        np.add(c, s, out=s)
        np.multiply(eh, s, out=s)
        self._rhs(s, k2)
        np.multiply(eh, c, out=s)
        np.multiply(h, k2, out=t)
        np.add(s, t, out=s)
        self._rhs(s, k3)
        np.multiply(ef, c, out=efc)
        np.multiply(self.dt_eh, k3, out=s)
        np.add(efc, s, out=s)
        self._rhs(s, k4)
        np.multiply(ef, k1, out=k1)
        np.add(k2, k3, out=k2)
        np.multiply(self.two_eh, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.add(k1, k4, out=k1)
        out = np.multiply(self.dt6, k1)
        np.add(efc, out, out=out)
        np.abs(out, out=self._abs)
        # maximum.reduce propagates NaN as max() does
        peak = np.maximum.reduce(self._abs_tail)
        # negated test: NaN compares false and must count as divergence; the
        # mean mode stays out of the peak but not out of the guard
        if not (peak <= DIVERGENCE_THRESHOLD and self._abs[0] <= DIVERGENCE_THRESHOLD):
            return None
        self.peak = max(self.peak, peak)
        return out


def step(u, dt, config):
    """One integrating-factor RK4 step of size ``dt`` for a real field. As in
    ``simulate``, the datum is projected into the dealias band first. ``dt``
    obeys ``SolverConfig``'s rule (positive, finite and within the phase
    guard on ``config.grid``), else ValueError."""
    _check_dt(config.grid, config.disp, dt)
    stepper = _Stepper(config.grid, config.disp, dt)
    c = stepper.step(_half_spectrum(u, config.grid)[:stepper.band])
    if c is None:
        raise SolverDivergenceError(dt)
    return _band_field(u, c)


def simulate(u0, config, t0=0.0):
    """Integrate from ``t0`` to ``t0 + t_end``, sampling every
    ``monitor_stride`` steps; a non-finite ``t0`` raises ValueError. The
    datum is projected into the dealias band first, so the computed
    dynamics are an exact Galerkin system. With
    ``t_end = 0`` no step is taken: the trajectory is the datum's sample
    alone, with ``steps``, ``dt`` and ``peak_growth`` all 0. The step run
    is ``t_end`` over ``round(t_end/dt)`` steps, or over ``ceil(t_end/dt)``
    where the rounded count would break the phase guard."""
    grid = config.grid
    half = _half_spectrum(u0, grid)
    n_steps = max(1, int(round(config.t_end / config.dt))) if config.t_end > 0.0 else 0
    dt = config.t_end / max(n_steps, 1)
    # rounding the count down stretches the step past config.dt, which may
    # then break the phase guard config.dt obeys; only then round it up
    if dt > config.dt and dt * _max_omega(grid, config.disp) > PHASE_GUARD:
        n_steps = int(np.ceil(config.t_end / config.dt))
        dt = config.t_end / n_steps
    stepper = _Stepper(grid, config.disp, dt)

    traj = Trajectory(dealias_cutoff=dealias_cutoff_index(grid) * grid.dxi,
                      steps=n_steps, dt=dt)
    c = half[:stepper.band]
    traj.append(t0, _band_field(u0, c))
    for i in range(1, n_steps + 1):
        c = stepper.step(c)
        if c is None:
            raise SolverDivergenceError(t0 + i * dt)
        if i % config.monitor_stride == 0 or i == n_steps:
            traj.append(t0 + i * dt, _band_field(u0, c))
    start = float(np.abs(half[1:stepper.band]).max(initial=0.0))
    traj.peak_growth = float(stepper.peak) / start if start > 0.0 else 0.0
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
            return SpectralField(grid, c_hat), residual, it
    raise PetviashviliError(update, max_iter)


def _quadratic(c, grid):
    """Full spectrum of ``-phi^2/2`` for the real field with coefficients ``c``."""
    half = _square(c[:grid.size // 2 + 1], grid.size)
    return _full_spectrum(half * (-0.5 * _SQRT2PI / grid.dx))


def _profile_residual(c_hat, Q, grid):
    """L^2 norm of ``-Q*phi_hat - F[phi^2]/2`` (the profile equation)."""
    res = _quadratic(c_hat, grid) - Q * c_hat
    return float(np.sqrt(np.sum(np.abs(res) ** 2) * grid.dxi))
