"""Multilinear lattice functionals and almost-conserved energies.

``Lambda_k(mult; u_1..u_k)`` sums ``mult * prod u_hat_i`` over exact
zero-sum mode tuples (integer index sums, never aliased) with hyperplane
weight ``(2*pi/L)**(k-1) * (2*pi)**(-(k-2)/2)``. With the coefficient
convention of :mod:`kawalab.grid` this makes ``Lambda_2(m(x1)m(x2))``
equal ``||Iu||_L2^2`` exactly and gives the derivative identities

    d/dt ||Iu||^2        = Lambda_3(M3)
    d/dt (E2 + L3(s3))   = Lambda_4(M4)
    d/dt (E3 + L4(s4))   = Lambda_5(M5)

with no stray constants, exactly for the dealiased Galerkin dynamics of
:func:`kawalab.solver.simulate` when the kernels carry the trajectory's
band cutoff.

``Lambda_4(sigma4)`` and the product-structure ``Lambda_5(M5)`` share one
quartic pair-table engine. Its summand is symmetric in the first three
slots, so it visits only the sorted support triples i <= j <= k, each
weighted by its 6, 3 or 1 distinct orderings; the removable singularities
of sigma4 are resolved in one batch per quartic sum. The limit is taken
at the sorted 4-tuple (see :mod:`kawalab.multipliers`), so each ordering
of a singular tuple has the same value bit for bit and the weights agree
with the direct sum over all orderings.
"""

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import sobolev_norm, rescale_datum
from .imultiplier import apply_I
from .multipliers import EnergyMultipliers
from .solver import SolverConfig, simulate
from .summation import ordered_sum

__all__ = [
    "EnergyReport",
    "GwpConfig",
    "GwpResult",
    "lambda_k",
    "lambda3_kernel",
    "lambda4_sigma4",
    "lambda5_m5",
    "modified_energies",
    "energy_derivative_audit",
    "gwp_experiment",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)

_CHUNK = 1 << 16

# modes above this share of the largest coefficient, at or above 0.8 of the
# dealias cutoff, raise energy_derivative_audit's dealias warning
_CUTOFF_ENERGY_TOL = 1e-8

# dt * max|omega| of the I-method's own trajectories: just under the
# solver's phase-accuracy guard (the linear part is exact); gwp_experiment
# also caps dt at _GWP_DT_MAX
_GUARDED_PHASE = 0.98e6
_GWP_DT_MAX = 2e-3

# distinct orderings of a sorted triple i <= j <= k, indexed by the count
# of (i == j, j == k): all distinct, one pair equal, all equal
_ORDERINGS = np.array([6.0, 3.0, 1.0])


def _hyperplane_weight(k, dxi):
    return dxi ** (k - 1) * (2.0 * np.pi) ** (-(k - 2) / 2.0)


def _support(u):
    idx = u.support_indices()
    ms = u.grid.modes[idx]
    order = np.argsort(ms)
    return ms[order], u.coeffs[idx][order]


def _mode_lookup(u):
    """Dense mode -> coefficient table, indexed by mode + n/2."""
    n = u.grid.size
    return u.coeffs[u.grid.index_of_mode(np.arange(-(n // 2), n // 2))]


def _gather(coeff_by_mode, modes, n):
    """Coefficients for integer ``modes``; zero outside [-n/2, n/2)."""
    valid = (modes >= -(n // 2)) & (modes < n // 2)
    safe = np.where(valid, modes, 0)
    return np.where(valid, coeff_by_mode[safe + n // 2], 0.0)


def lambda_k(mult, fields):
    """Generic hyperplane functional; ``mult`` maps k frequency arrays to
    multiplier values. The first k-1 slots run over their supports, the
    last is gathered at ``-(sum of the others)``, and ``mult`` is evaluated
    once per block of whole first-slot rows holding at most ``_CHUNK``
    tuples. Cost grows like the product of the first k-1 supports, so more
    than 2**24 tuples are refused; dedicated evaluators below handle the
    production k = 4, 5 kernels.
    """
    k = len(fields)
    if k not in (2, 3, 4, 5):
        raise ValueError("k must be in {2, 3, 4, 5}")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("grid mismatch")
    supports = [_support(f) for f in fields]
    if any(ms.size == 0 for ms, _ in supports):
        return 0.0 + 0.0j
    ms, cs = zip(*supports[:-1])
    if math.prod(m.size for m in ms) > 2 ** 24:
        raise ValueError("direct sum too large; use the dedicated evaluators")
    dxi = grid.dxi
    lookup = _mode_lookup(fields[-1])
    rows = max(1, _CHUNK // math.prod(m.size for m in ms[1:]))
    blocks = []
    for r in range(0, ms[0].size, rows):
        modes = np.meshgrid(ms[0][r:r + rows], *ms[1:], indexing="ij")
        coeffs = functools.reduce(np.multiply.outer, [cs[0][r:r + rows], *cs[1:]])
        last = -sum(modes)
        vals = mult(*[m * dxi for m in modes], last * dxi)
        blocks.append(vals * (coeffs * _gather(lookup, last, grid.size)))
    return complex(ordered_sum(blocks) * _hyperplane_weight(k, dxi))


def lambda3_kernel(u, kernel):
    """``Lambda_3(kernel; u, u, u)``."""
    # kept as its own name: perfbench/tracer.py wraps it by name
    return lambda_k(kernel, [u, u, u])


class _SigmaTables:
    """Support-indexed tables for the quartic/quintic lattice sums."""

    def __init__(self, u, kernels):
        self.kernels = kernels
        self.ms, self.cs = _support(u)
        self.n = u.grid.size
        self.dxi = u.grid.dxi
        self.pos_by_mode = self.positions_of(self.ms)
        self.t_table = self.pair_table(self.ms)

    def positions_of(self, modes):
        """Dense mode -> position-in-``modes`` table, -1 off ``modes``."""
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[modes + self.n // 2] = np.arange(modes.size)
        return pos

    def pair_table(self, modes):
        """``T[a, b] = sigma3(xa, xb, -(xa+xb)) (xa+xb)``, band-masked, for
        support row a against column b of ``modes``."""
        XA, XB = np.meshgrid(self.ms * self.dxi, modes * self.dxi, indexing="ij")
        return self.kernels._t_pair(XA, XB)


def _triple_blocks(size):
    """The triples i <= j <= k of ``range(size)`` in blocks of whole rows i,
    at most ``_CHUNK`` triples per block (at least one row).

    Yields ``(i, pair)``: each triple's row and its position in the pair
    list ``np.triu_indices(size)`` (j <= k, ordered by j then k), whose
    pairs with j >= i are its contiguous tail from ``start[i]``.
    """
    rows = np.arange(size)
    start = rows * size - rows * (rows - 1) // 2
    counts = size * (size + 1) // 2 - start
    ends = np.cumsum(counts)
    r = 0
    while r < size:
        stop = max(r + 1, int(np.searchsorted(ends, ends[r] - counts[r] + _CHUNK, "right")))
        first = ends[r:stop] - counts[r:stop]  # each row's first triple
        pair = np.arange(first[0], ends[stop - 1]) - np.repeat(first - start[r:stop],
                                                               counts[r:stop])
        yield np.repeat(rows[r:stop], counts[r:stop]), pair
        r = stop


def _quartic_sum(tab, kernels, pos4, c4, t4, weigh):
    """``sum weigh(sigma4(xi, xj, xk, xl), xl) * (ci cj ck c4_l)`` over the
    ordered support triples (i, j, k) of ``tab``, with ``l = -(i+j+k)``.

    The summand is symmetric in (i, j, k), so only the sorted triples
    i <= j <= k are visited, each weighted by its number of distinct
    orderings: 6, 3 or 1. They are taken in blocks of whole rows i
    (``_triple_blocks``) and the block partials combined with
    ``ordered_sum``.

    The fourth slot is given by tables over its own support: ``pos4`` maps
    a mode (offset by n/2) to its column, -1 off the support; ``c4`` holds
    the column coefficients and ``t4`` the pair terms ``T[a, col]`` against
    the rows of ``tab``. Pair-sum zeros are removable singularities: a
    first pass collects those of every block and resolves them in one
    ``sigma4`` call, and the second pass computes each block and takes its
    slice of the limits in block order. Only one block is held at a time.
    """
    ms, cs, dxi, n = tab.ms, tab.cs, tab.dxi, tab.n
    mu = kernels.disp.mu
    T = tab.t_table.ravel()
    t4_flat = t4.ravel()
    cols4 = t4.shape[1]
    size = ms.size
    J, K = np.triu_indices(size)
    xs = ms * dxi

    def block(i, pair):
        j, k = J[pair], K[pair]
        mi, mj, mk = ms[i], ms[j], ms[k]
        ml = -mi - mj - mk
        valid = (ml >= -(n // 2)) & (ml < n // 2)
        pl = np.where(valid, pos4[np.where(valid, ml, 0) + n // 2], -1)
        live = pl >= 0
        singular = (mi + mj == 0) | (mi + mk == 0) | (mj + mk == 0)
        return j, k, ml, pl, live, singular

    limit_args = ([], [], [], [])
    for i, pair in _triple_blocks(size):
        j, k, ml, _, live, singular = block(i, pair)
        sing = singular & live
        for dest, col in zip(limit_args, (xs[i], xs[j], xs[k], ml * dxi)):
            dest.append(col[sing])
    limits = np.concatenate(limit_args[0])
    if limits.size:
        limits = kernels.sigma4(*[np.concatenate(c) for c in limit_args])

    partials = []
    done = 0
    for i, pair in _triple_blocks(size):
        j, k, ml, pl, live, singular = block(i, pair)
        plc = np.where(live, pl, 0)
        cl = np.where(live, c4[plc], 0.0)
        xi, xj, xk = xs[i], xs[j], xs[k]
        xl = ml * dxi
        m4 = 0.25j * (
            T[i * size + j] + T[i * size + k] + T[j * size + k]
            + t4_flat[i * cols4 + plc] + t4_flat[j * cols4 + plc] + t4_flat[k * cols4 + plc]
        )
        squares = xi * xi + xj * xj + xk * xk + xl * xl
        hv4 = 1j * (xi + xj) * (xi + xk) * (xj + xk) * (2.5 * squares - 3.0 * mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            s4 = np.where(singular | ~live, 0.0, -m4 / np.where(hv4 == 0, 1.0, hv4))
        sing = singular & live
        count = np.count_nonzero(sing)
        s4[sing] = limits[done:done + count]
        done += count
        weight = _ORDERINGS[(i == j).astype(np.intp) + (j == k)]
        vals = weigh(s4, xl) * (cs[i] * (cs[j] * cs[k]) * cl) * weight
        partials.append(vals.sum())
    return ordered_sum(partials)


def lambda4_sigma4(u, kernels):
    """``Lambda_4(sigma4; u,u,u,u)`` via the pair-sum table.

    On the zero-sum hyperplane the six-pair form of M4 reduces to six
    lookups of ``T[a,b] = sigma3(xa, xb, -(xa+xb)) (xa+xb)``, which turns
    the O(S^3) sum into gathers plus the factored denominator; the
    singular limit is resolved in one batch for the whole sum.
    """
    tab = _SigmaTables(u, kernels)
    if tab.ms.size == 0:
        return 0.0 + 0.0j
    total = _quartic_sum(tab, kernels, tab.pos_by_mode, tab.cs, tab.t_table,
                         lambda s4, xl: s4)
    return complex(total * _hyperplane_weight(4, tab.dxi))


def _squared_field_coeffs(u, cutoff_index=None):
    """Transform of u^2 on the lattice; band-masked when a cutoff is set."""
    grid = u.grid
    if cutoff_index is None:
        idx = u.support_indices()
        extent = int(np.max(np.abs(grid.modes[idx]))) if idx.size else 0
        if 2 * extent >= grid.size // 2:
            raise ValueError("u^2 would alias; set a band cutoff or shrink the support")
    v = u.to_physical()
    q = np.fft.fft(v * v) * (grid.dx / _SQRT2PI)
    if cutoff_index is not None:
        q[np.abs(grid.modes) > cutoff_index] = 0.0
    q[grid.nyquist_index] = 0.0
    return q


def lambda5_m5(u, kernels):
    """``Lambda_5(M5; u^5)`` through its product structure.

    Grouping the two slots inside M5's pair argument against the
    convolution ``F[u^2]`` reduces the quintic functional to a quartic
    sum over (a, b, c, eta), at the same cost as ``Lambda_4``: the fourth
    slot eta runs over the nonzero modes of ``F[u^2]`` with weight
    ``xi_eta * band(xi_eta)``.
    """
    tab = _SigmaTables(u, kernels)
    if tab.ms.size == 0:
        return 0.0 + 0.0j
    grid = u.grid
    n = grid.size
    cutoff_index = None
    if kernels.band_cutoff is not None:
        cutoff_index = int(round(kernels.band_cutoff / tab.dxi))
    qhat = _squared_field_coeffs(u, cutoff_index)
    modes = np.arange(-(n // 2), n // 2)
    q_by_mode = qhat[grid.index_of_mode(modes)]
    eta = modes[q_by_mode != 0.0]
    band = kernels._band
    total = _quartic_sum(
        tab, kernels, tab.positions_of(eta), q_by_mode[eta + n // 2], tab.pair_table(eta),
        lambda s4, xe: s4 * xe * band(xe),
    )
    total = total * tab.dxi ** 3 / (2.0 * np.pi)
    return complex(-2j * total)


@dataclass
class EnergyReport:
    """Modified energies at one time; imaginary residues are diagnostics."""

    t: float
    e2: float
    corr3: float
    corr4: float
    imag3: float
    imag4: float

    @property
    def e3(self):
        return self.e2 + self.corr3

    @property
    def e4(self):
        return self.e3 + self.corr4


def modified_energies(u, mult, disp, band_cutoff=None, t=0.0):
    """E2 = ||Iu||^2 with the cubic and quartic correction terms."""
    if not u.real:
        raise ValueError("modified energies are defined for real-flagged fields")
    kernels = EnergyMultipliers(mult, disp, band_cutoff=band_cutoff)
    e2 = apply_I(u, mult).l2_norm() ** 2
    corr3 = lambda3_kernel(u, kernels.sigma3)
    corr4 = lambda4_sigma4(u, kernels)
    return EnergyReport(
        t=t,
        e2=float(e2),
        corr3=float(np.real(corr3)),
        corr4=float(np.real(corr4)),
        imag3=float(np.imag(corr3)),
        imag4=float(np.imag(corr4)),
    )


def suggest_audit_stride(u, safety=0.02):
    """Sample stride making centered differences of the modified energies
    accurate: the energy derivative carries components oscillating at the
    three-frequency phase speed ``|h3 - v3|``, up to about ``7.5 xi_max^5``
    over the field's support, and the O(stride^2) difference error is
    ``(theta * stride)^2 / 6`` per component."""
    idx = u.support_indices()
    if idx.size == 0:
        return 1e-3
    ximax = float(np.max(np.abs(u.grid.xi[idx])))
    theta_max = 7.5 * ximax ** 5 + 3.0 * ximax ** 3
    return safety / theta_max


def energy_derivative_audit(traj, mult, disp, include_quintic=None):
    """Centered-difference derivatives of E2 and E4 against the direct
    Lambda_3(M3) and Lambda_5(M5) sums, per interior sample.

    The quintic check is evaluated only on small grids (n <= 128) unless
    forced, since it costs a full quartic sum per sample. A warning flag
    is raised when modes above ``_CUTOFF_ENERGY_TOL`` of the largest sit
    near the dealias cutoff, where the computed Galerkin dynamics stop
    tracking the continuum equation.
    """
    if len(traj) < 3:
        raise ValueError("need at least three samples for centered differences")
    grid = traj.fields[0].grid
    if include_quintic is None:
        include_quintic = grid.size <= 128
    kernels = EnergyMultipliers(mult, disp, band_cutoff=traj.dealias_cutoff)

    cutoff_warning = False
    for u in traj.fields:
        mags = np.abs(u.coeffs)
        top = mags.max()
        if top == 0.0:
            continue
        near = np.abs(grid.modes) * grid.dxi >= 0.8 * traj.dealias_cutoff
        if np.any(mags[near] > _CUTOFF_ENERGY_TOL * top):
            cutoff_warning = True

    reports = [
        modified_energies(u, mult, disp, band_cutoff=traj.dealias_cutoff, t=t)
        for t, u in zip(traj.times, traj.fields)
    ]
    rows = []
    for i in range(1, len(traj) - 1):
        dt_c = traj.times[i + 1] - traj.times[i - 1]
        d_e2 = (reports[i + 1].e2 - reports[i - 1].e2) / dt_c
        lam3 = np.real(lambda3_kernel(traj.fields[i], kernels.m3))
        resid3 = abs(d_e2 - lam3) / max(abs(d_e2), abs(lam3), 1e-300)
        row = {
            "t": traj.times[i],
            "e2": reports[i].e2,
            "corr3": reports[i].corr3,
            "corr4": reports[i].corr4,
            "e4": reports[i].e4,
            "de2_dt": d_e2,
            "lambda3_m3": lam3,
            "resid3": resid3,
            "resid5": float("nan"),
        }
        if include_quintic:
            d_e4 = (reports[i + 1].e4 - reports[i - 1].e4) / dt_c
            lam5 = np.real(lambda5_m5(traj.fields[i], kernels))
            row["de4_dt"] = d_e4
            row["lambda5_m5"] = lam5
            row["resid5"] = abs(d_e4 - lam5) / max(abs(d_e4), abs(lam5), 1e-300)
        rows.append(row)
    return {"rows": rows, "dealias_warning": cutoff_warning}


@dataclass(frozen=True)
class GwpConfig:
    """Unit-step global-iteration experiment parameters."""

    threshold: float
    eps0: float = 0.1
    steps: int = 20
    sobolev_s: float = -1.75
    track_e4: bool = False

    def __post_init__(self):
        if not (0.0 < self.eps0 < np.inf and self.steps >= 1
                and 0.0 < self.threshold < np.inf):
            raise ValueError("invalid experiment parameters")


@dataclass
class GwpResult:
    """The experiment's records: ``times``, ``e2``, ``growth_norm`` and
    ``passed`` hold one entry for the datum and one per unit step (``e4``
    too when tracked); ``steps``, ``dt`` and ``peak_growth`` hold one entry
    per unit step, the counters of that step's trajectory."""

    lam: float
    eps0: float
    threshold: float
    times: list = dc_field(default_factory=list)
    e2: list = dc_field(default_factory=list)
    e4: list = dc_field(default_factory=list)
    growth_norm: list = dc_field(default_factory=list)
    passed: list = dc_field(default_factory=list)
    steps: list = dc_field(default_factory=list)
    dt: list = dc_field(default_factory=list)
    peak_growth: list = dc_field(default_factory=list)
    first_failure: int = -1
    growth_exponent: float = float("nan")
    growth_reference: float = 7.0 / 15.0

    @property
    def all_passed(self):
        return all(self.passed)


def _rescaled_I_norm(datum, mult):
    """``lam -> apply_I(rescale_datum(datum, lam), mult).l2_norm()``, bit for
    bit: the same operands in the same order, but no fields, so no Hermitian
    re-checks (scaling a Hermitian datum by lam**3 and by the even m keeps it
    Hermitian)."""
    grid = datum.grid
    modes, nyquist = grid.modes, grid.nyquist_index

    def norm_at(lam):
        dxi = 2.0 * np.pi / (grid.length / lam)
        c = datum.coeffs * lam ** 3
        c *= mult.m(modes * dxi)
        c[nyquist] = 0.0
        return float(np.sqrt(np.sum(np.abs(c) ** 2) * dxi))

    return norm_at


def _solve_lambda(datum, mult, eps0):
    """Largest lam in (0, 1] with ||I rescale(datum, lam)|| ~= eps0."""
    norm_at = _rescaled_I_norm(datum, mult)
    if norm_at(1.0) <= eps0:
        return 1.0
    lo, hi = 1e-8, 1.0
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if norm_at(mid) > eps0:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return lo


def almost_conservation_sweep(u0, disp, thresholds, sobolev_s=-1.75):
    """Unit-time quartic-energy increment for a fixed datum, per threshold.

    The trajectory is shared across thresholds (the dynamics do not see
    the multiplier); the modified energies at both endpoints use the
    trajectory's band cutoff. Returns per-threshold increments plus the
    fitted log2-log2 slope, the numerical counterpart of the N^(-35/4)
    envelope of the almost-conservation law.
    """
    from .dispersion import omega as _omega
    from .imultiplier import IMultiplier

    grid = u0.grid
    wmax = float(np.max(np.abs(_omega(grid.xi, disp))))
    cfg = SolverConfig(grid, disp, dt=_GUARDED_PHASE / max(wmax, 1.0), t_end=1.0,
                       monitor_stride=10 ** 9)
    traj = simulate(u0, cfg)
    start, end = traj.fields[0], traj.fields[-1]
    # the Galerkin flow conserves the plain mass exactly, so its measured
    # drift is pure integrator error, common to every threshold; subtract
    # it so the increments compare the I-weighted part alone
    mass_drift = end.l2_norm() ** 2 - start.l2_norm() ** 2
    rows = []
    for N in thresholds:
        mult = IMultiplier(N, sobolev_s)
        rep0 = modified_energies(start, mult, disp, band_cutoff=traj.dealias_cutoff)
        rep1 = modified_energies(end, mult, disp, band_cutoff=traj.dealias_cutoff)
        rows.append({
            "threshold": N,
            "e4_start": rep0.e4,
            "e4_end": rep1.e4,
            "increment": abs(rep1.e4 - rep0.e4 - mass_drift),
            "raw_increment": abs(rep1.e4 - rep0.e4),
            "e2_start": rep0.e2,
        })
    incs = np.array([r["increment"] for r in rows])
    ns = np.array([r["threshold"] for r in rows], dtype=np.float64)
    slope = float(np.polyfit(np.log2(ns), np.log2(incs), 1)[0])
    return {
        "rows": rows,
        "slope": slope,
        "monotone": bool(np.all(np.diff(incs) < 0)),
        "envelope": -35.0 / 4.0,
    }


def gwp_experiment(config, datum, disp):
    """Rescale, then iterate unit time steps watching ``E_I^2 < 4 eps0^2``.

    Records the rescaled-back H^s norm after each unit step and fits its
    growth exponent in rescaled time. The quartic energy is re-evaluated
    directly per step when ``track_e4`` is set (affordable only for
    compactly supported spectra).
    """
    from .imultiplier import IMultiplier

    mult = IMultiplier(config.threshold, config.sobolev_s)
    lam = _solve_lambda(datum, mult, config.eps0)
    u = rescale_datum(datum, lam)
    start_norm = apply_I(u, mult).l2_norm()
    if start_norm > 2.0 * config.eps0:
        raise ValueError(
            f"rescaled datum too large: ||I u0|| = {start_norm:.3e} > 2*eps0"
        )
    grid = u.grid

    from .dispersion import omega as _omega

    wmax = float(np.max(np.abs(_omega(grid.xi, disp))))
    dt = min(_GWP_DT_MAX, _GUARDED_PHASE / max(wmax, 1.0))
    steps_per_unit = max(1, int(np.ceil(1.0 / dt)))
    dt = 1.0 / steps_per_unit

    # undo the rescaling: ||u(t)||_{H^s} = lam**(-(s + 7/2)) ||u_lam(tau)||_{H^s}
    scale_back = lam ** (-(config.sobolev_s + 3.5))

    result = GwpResult(lam=lam, eps0=config.eps0, threshold=config.threshold)
    bound = 4.0 * config.eps0 ** 2

    def record(step_index, field):
        e2 = apply_I(field, mult).l2_norm() ** 2
        result.times.append(float(step_index))
        result.e2.append(float(e2))
        result.growth_norm.append(float(scale_back * sobolev_norm(field, config.sobolev_s)))
        healthy = e2 < bound
        result.passed.append(bool(healthy))
        if not healthy and result.first_failure < 0:
            result.first_failure = step_index
        if config.track_e4:
            rep = modified_energies(field, mult, disp)
            result.e4.append(rep.e4)

    record(0, u)
    current = u
    for j in range(1, config.steps + 1):
        cfg = SolverConfig(grid, disp, dt=dt, t_end=1.0, monitor_stride=10 ** 9)
        traj = simulate(current, cfg)
        current = traj.fields[-1]
        result.steps.append(traj.steps)
        result.dt.append(traj.dt)
        result.peak_growth.append(traj.peak_growth)
        record(j, current)

    tau = np.asarray(result.times, dtype=np.float64)
    y = np.asarray(result.growth_norm, dtype=np.float64)
    good = y > 0
    if np.count_nonzero(good) >= 3:
        slope = np.polyfit(np.log1p(tau[good]), np.log(y[good]), 1)[0]
        result.growth_exponent = float(slope)
    return result
