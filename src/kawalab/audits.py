"""Sampling audits: resonance size, indicator-box trilinear functional,
the extremal thin-box configuration, free-flow mixed-norm estimates, and
pointwise multiplier-bound checks.

All audits are seed-reproducible: a fixed seed fixes every sample, and
reductions run in a fixed chunk order.
"""

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import DispersionParams, omega, phasor, resonance
from .dyadic import eta_k
from .grid import _SQRT2PI, Grid
from .multipliers import EnergyMultipliers

__all__ = [
    "BoundCheckReport",
    "resonance_size_audit",
    "Box",
    "j_functional",
    "KnappConfig",
    "knapp_sharpness",
    "linear_estimate_audit",
    "sigma3_extension",
    "sigma3_bound_audit",
    "sigma4_bound_audit",
    "m5_bound_audit",
    "bound_shell",
    "bound_report",
]

# resonance_size_audit: the magnitude range of its samples, and pairs per draw
_RESONANCE_MAGNITUDES = (1e-2, 1e4)
_RESONANCE_CHUNK = 1 << 18
# j_functional: the relative standard error at which it stops doubling its
# budget, and the most doublings it makes
_SE_GATE = 0.02
_MAX_DOUBLINGS = 3
# widening factor of the extremal output box's modulation interval, which
# absorbs the quadratic spread of the curved box
_KNAPP_GAMMA = 40.0
# linear_estimate_audit: shell k's window [0, _WINDOW_FACTOR * 2^(-4k)], the
# exponent p of its stretched samples t_max * (j / count)^p, and the time
# samples per batched ifft
_WINDOW_FACTOR = 4.0
_STRETCH_POWER = 3.0
_TIME_BLOCK = 128
# linear_estimate_audit's (q, r) pairs: each satisfies 2/q = 1/2 - 1/r, and
# each r is even, as sum_x v^r is taken from v^2 by products
_QR_PAIRS = ((6.0, 6.0), (8.0, 4.0), (np.inf, 2.0))
# the sigma4 and m5 bound audits leave out tuples with a pair sum below this
# share of their largest magnitude
_SINGULAR_GUARD = 1e-3


@dataclass
class BoundCheckReport:
    bound_name: str
    seed: int
    samples_evaluated: int
    max_ratio: float
    argmax: tuple  # None for a report without samples
    min_ratio: float = float("nan")
    cell_table: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    def as_dict(self):
        return {
            "bound_name": self.bound_name,
            "seed": self.seed,
            "samples_evaluated": self.samples_evaluated,
            "max_ratio": self.max_ratio,
            "min_ratio": self.min_ratio,
            "argmax": None if self.argmax is None else list(self.argmax),
            "cell_table": self.cell_table,
            "extras": self.extras,
        }


# -- resonance size ----------------------------------------------------


def _resonance_ratio(x1, x2, mus):
    """``(keep, ratio)``: ``keep`` marks the admissible pairs
    (``max(|x1|, |x2|, |x1+x2|) >= 10``, no zero frequency) and ``ratio`` is
    ``|Omega| / (|xi|_max^4 |xi|_min)`` on every pair, meaningful where
    ``keep`` holds; ``mus`` is each pair's third-order coefficient. Callers
    mask the ratio, because a boolean gather of the inputs costs more than
    this arithmetic on all of them."""
    x3 = x1 + x2
    a1, a2, a3 = np.abs(x1), np.abs(x2), np.abs(x3)
    amax = np.maximum(a1, np.maximum(a2, a3))
    amin = np.minimum(a1, np.minimum(a2, a3))
    keep = (amax >= 10.0) & (amin > 0.0)
    # explicit products, as in dispersion.omega: numpy's pow takes a slow
    # per-element path on negative bases, and products are exactly odd
    s1, s2, s3 = x1 * x1, x2 * x2, x3 * x3
    c1, c2, c3 = s1 * x1, s2 * x2, s3 * x3
    om = mus * c1 - c1 * s1 + mus * c2 - c2 * s2 - (mus * c3 - c3 * s3)
    q = amax * amax
    with np.errstate(divide="ignore", invalid="ignore"):  # amin == 0 is not kept
        return keep, np.abs(om) / (q * q * amin)


def resonance_size_audit(n_samples, seed, mu=None):
    """Ratio ``|Omega(x1, x2)| / (|xi|_max^4 |xi|_min)`` over random pairs.

    Magnitudes are log-uniform in ``_RESONANCE_MAGNITUDES`` with random
    signs, drawn ``_RESONANCE_CHUNK`` pairs at a time; the hypothesis
    ``max(|x1|, |x2|, |x1+x2|) >= 10`` filters the admissible set.
    ``mu=None`` samples the third-order coefficient uniformly in [-1, 1]
    per pair; a float pins it.
    """
    if n_samples < 1:
        raise ValueError(f"the resonance audit needs n_samples >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    lo, hi = np.log(_RESONANCE_MAGNITUDES)
    best_max = -np.inf
    best_min = np.inf
    arg_max = arg_min = (0.0, 0.0, 0.0)
    accepted = 0
    remaining = n_samples
    first = True
    while remaining > 0:
        m = min(_RESONANCE_CHUNK, remaining)
        remaining -= m
        x1 = np.exp(rng.uniform(lo, hi, m)) * rng.choice([-1.0, 1.0], m)
        x2 = np.exp(rng.uniform(lo, hi, m)) * rng.choice([-1.0, 1.0], m)
        mus = rng.uniform(-1.0, 1.0, m) if mu is None else np.full(m, float(mu))
        if first and m >= 4:
            # deterministic probes, including the equal-frequency worked point
            x1[:4] = (10.0, -10.0, 10.0, -10.0)
            x2[:4] = (10.0, -10.0, -20.0, 20.0)
            first = False
        keep, ratio = _resonance_ratio(x1, x2, mus)
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            continue
        accepted += kept
        i_hi = int(np.argmax(np.where(keep, ratio, -np.inf)))
        i_lo = int(np.argmin(np.where(keep, ratio, np.inf)))
        if ratio[i_hi] > best_max:
            best_max = float(ratio[i_hi])
            arg_max = (float(x1[i_hi]), float(x2[i_hi]), float(mus[i_hi]))
        if ratio[i_lo] < best_min:
            best_min = float(ratio[i_lo])
            arg_min = (float(x1[i_lo]), float(x2[i_lo]), float(mus[i_lo]))
    return BoundCheckReport(
        bound_name="resonance_size",
        seed=seed,
        samples_evaluated=accepted,
        max_ratio=best_max,
        min_ratio=best_min,
        argmax=arg_max,
        extras={"argmin": list(arg_min), "mu": "sampled" if mu is None else float(mu)},
    )


# -- indicator-box trilinear functional --------------------------------


@dataclass(frozen=True)
class Box:
    """Indicator support in the (frequency, modulation) plane. An optional
    ``m_center`` callable shears the modulation interval along frequency."""

    xi_lo: float
    xi_hi: float
    m_lo: float
    m_hi: float
    m_center: object = None

    def __post_init__(self):
        if not (self.xi_hi > self.xi_lo and self.m_hi > self.m_lo):
            raise ValueError("box intervals must be nondegenerate")

    @property
    def xi_width(self):
        return self.xi_hi - self.xi_lo

    @property
    def m_width(self):
        return self.m_hi - self.m_lo

    @property
    def area(self):
        return self.xi_width * self.m_width

    def l2_norm(self):
        return float(np.sqrt(self.area))


def _trapezoid_mass(l1, l2, k1, a, b):
    """Integral over [a, b] of the convolution of two indicator intervals
    with lengths l1, l2 whose supports start summing at k1."""
    r = min(l1, l2)
    big = max(l1, l2)
    k2, k3, k4 = k1 + r, k1 + big, k1 + r + big

    def F(y):
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros_like(y)
        seg = (y > k1) & (y <= k2)
        out[seg] = 0.5 * (y[seg] - k1) ** 2
        seg = (y > k2) & (y <= k3)
        out[seg] = 0.5 * r * r + r * (y[seg] - k2)
        seg = (y > k3) & (y <= k4)
        d = y[seg] - k3
        out[seg] = 0.5 * r * r + r * (big - r) + r * d - 0.5 * d * d
        out[y > k4] = r * big
        return out

    return F(b) - F(a)


def j_functional(f_box, g_box, h_box, disp, n_samples, seed, lattice_spacing=None):
    """Monte-Carlo value of the trilinear box functional.

    Frequencies are sampled uniformly over the two input boxes; the two
    modulation integrals are carried out exactly per sample (the integral
    of an interval convolution over the sheared target interval), which
    keeps the estimator unbiased while removing two sampling dimensions.
    Doubles the budget (up to ``_MAX_DOUBLINGS`` times) until the standard
    error is within ``_SE_GATE`` of the estimate.
    """
    if n_samples < 1:
        raise ValueError(f"the box functional needs n_samples >= 1, got {n_samples}")
    for box in (f_box, g_box, h_box):
        if lattice_spacing is not None and (
            box.xi_width < lattice_spacing or box.m_width < lattice_spacing
        ):
            raise ValueError("unresolvable box: width below the lattice spacing")
    rng = np.random.default_rng(seed)
    budget = int(n_samples)
    for attempt in range(_MAX_DOUBLINGS + 1):
        x1 = rng.uniform(f_box.xi_lo, f_box.xi_hi, budget)
        x2 = rng.uniform(g_box.xi_lo, g_box.xi_hi, budget)
        x3 = x1 + x2
        inside = (x3 >= h_box.xi_lo) & (x3 <= h_box.xi_hi)
        om = resonance(x1, x2, disp)
        target_lo = np.full(budget, h_box.m_lo)
        target_hi = np.full(budget, h_box.m_hi)
        if h_box.m_center is not None:
            centers = h_box.m_center(x3)
            target_lo = target_lo + centers
            target_hi = target_hi + centers
        # mu1 + mu2 must land in [target_lo, target_hi] - Omega
        mass = _trapezoid_mass(
            f_box.m_width, g_box.m_width,
            f_box.m_lo + g_box.m_lo,
            target_lo - om, target_hi - om,
        )
        vals = np.where(inside, mass, 0.0)
        measure = f_box.xi_width * g_box.xi_width
        estimate = float(measure * np.mean(vals))
        se = float(measure * np.std(vals) / np.sqrt(budget))
        if estimate == 0.0 and not np.any(vals):
            return {"estimate": 0.0, "standard_error": 0.0, "samples": budget,
                    "converged": True}
        if se <= _SE_GATE * abs(estimate):
            return {"estimate": estimate, "standard_error": se, "samples": budget,
                    "converged": True}
        budget *= 2
    return {"estimate": estimate, "standard_error": se, "samples": budget // 2,
            "converged": False}


# -- extremal thin-box configuration ------------------------------------


@dataclass(frozen=True)
class KnappConfig:
    """Thin-box extremal configuration at shell scale N1 with modulation
    scales L1 <= L2; the output box is widened by ``_KNAPP_GAMMA``."""

    n1: float
    l1: float
    l2: float
    mu: float = 1.0

    def __post_init__(self):
        if self.l1 > self.l2:
            raise ValueError("modulation scales must satisfy L1 <= L2")
        if self.l2 > self.n1 ** 5:
            raise ValueError("L2 <= N1^5 required for resolvable box widths")
        if self.n1 < 2.0 ** 10 * self.lattice_spacing:
            raise ValueError("N1 >= 2^10 * lattice spacing required")

    @property
    def xi_halfwidth(self):
        return self.n1 ** -1.5 * np.sqrt(self.l2)

    @property
    def lattice_spacing(self):
        # bookkeeping resolution: a fraction of the thinnest box width
        return self.n1 ** -1.5 * np.sqrt(self.l2) / 16.0


def knapp_sharpness(config, n_samples=1 << 20, seed=0):
    """Measure the trilinear functional on the extremal configuration.

    Two aligned thin boxes at frequency N1 (modulation widths L1, L2) feed
    an output box at 2*N1 whose modulation support follows the shifted
    curve ``mu*xi^3/4 - xi^5/16``; the functional then equals nearly the
    full product measure, which is the sharpness mechanism: it exceeds the
    dyadic estimate's right-hand side by an N1-independent constant.
    """
    disp = DispersionParams(config.mu)
    w = config.xi_halfwidth
    n1, l1, l2, gamma = config.n1, config.l1, config.l2, _KNAPP_GAMMA
    f1 = Box(n1 - w, n1 + w, -l1, l1)
    f2 = Box(n1 - w, n1 + w, -l2, l2)

    def center(xi):
        # tau-support center mu*xi^3/4 - xi^5/16, expressed in modulation
        # coordinates m = tau - omega(xi)
        return config.mu * xi ** 3 / 4.0 - xi ** 5 / 16.0 - omega(xi, disp)

    f3 = Box(2 * n1 - 2 * w, 2 * n1 + 2 * w, -gamma * l2, gamma * l2, m_center=center)
    result = j_functional(
        f1, f2, f3, disp, n_samples, seed, lattice_spacing=config.lattice_spacing
    )
    j_val = result["estimate"]
    norm_product = f1.l2_norm() * f2.l2_norm() * f3.l2_norm()
    j1, j2 = np.log2(l1), np.log2(l2)
    k_max = np.log2(2 * n1)
    rhs = 2.0 ** (j1 / 2.0) * 2.0 ** (j2 / 4.0) * 2.0 ** (-0.75 * k_max) * norm_product
    return {
        "config": {"n1": n1, "l1": l1, "l2": l2, "mu": config.mu, "gamma": gamma},
        "j_estimate": j_val,
        "j_standard_error": result["standard_error"],
        "samples": result["samples"],
        "full_measure": f1.area * f2.area,
        "norm_product": norm_product,
        "norm_product_scaling": norm_product / (n1 ** -2.25 * l1 ** 0.5 * l2 ** 1.75),
        "j_scaling": j_val / (n1 ** -3.0 * l1 * l2 ** 2),
        "sharpness_ratio": j_val / rhs,
    }


# -- free-flow mixed-norm estimates --------------------------------------


def _packet(grid, k, rng):
    """Coherent randomized wave packet supported in shell k, unit L^2:
    random center, mild random chirp, random smooth shell modulation."""
    xi = grid.xi
    base = np.sqrt(eta_k(xi, k))
    x0 = rng.uniform(0.0, grid.length)
    beta = rng.uniform(-0.5, 0.5)
    mod_amp = rng.uniform(0.0, 0.3)
    mod_phase = rng.uniform(0.0, 2 * np.pi)
    xc = 1.5 * 2.0 ** k
    rel = (np.abs(xi) - xc) / 2.0 ** k
    envelope = base * (1.0 + mod_amp * np.cos(2.0 * np.pi * rel + mod_phase))
    phase = x0 * xi + beta * np.pi * rel ** 2
    c = envelope * np.exp(1j * phase)
    c[grid.nyquist_index] = 0.0
    nrm = np.sqrt(np.sum(np.abs(c) ** 2) * grid.dxi)
    return c / nrm


def _stretched_times(t_max, count):
    j = np.arange(count + 1, dtype=np.float64)
    t = t_max * (j / count) ** _STRETCH_POWER
    w = np.zeros(count + 1)
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    return t, w


def _runs(mask):
    """``(run, part)`` slice pairs: each maximal run of True in ``mask``, and
    where that run sits in ``array[mask]``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    pairs, offset = [], 0
    for a, b in zip(edges[0::2], edges[1::2]):
        pairs.append((slice(a, b), slice(offset, offset + b - a)))
        offset += b - a
    return pairs


def linear_estimate_audit(disp, ks, trials, seed, grid=None, n_times=1024):
    """Mixed-norm ratios of the free flow on shell-localized packets.

    For each shell the time samples live on the dispersive accrual window
    ``[0, _WINDOW_FACTOR * 2^(-4k)]`` (power-stretched toward 0 so both the
    coherent peak and the spreading tail are resolved); on the periodic
    box, later times are dominated by wrap-around recurrence which the
    whole-line decay estimates do not describe. Tabulates, per shell:

    * ``L_t^q L_x^r`` ratios against ``2^(-3k/q)`` for the admissible pairs
      (q, r) = (6, 6), (8, 4), (inf, 2);
    * the ``L_x^4 L_t^inf`` maximal ratio against ``2^(k/4)``;
    * the ``L_x^inf L_t^2`` smoothing ratio against ``2^(-2k)``.

    The ``(inf, 2)`` pair is exact unitarity and must come out 1.

    A shell's packets are drawn first, in trial order. Every packet vanishes
    off the shell support ``eta_k > 0`` (and on the Nyquist mode), so each
    block of ``_TIME_BLOCK`` samples evaluates ``exp(i omega t)`` there only,
    once for all trials, and scatters ``phase * c`` into one zero-padded
    buffer that is transformed in place; each trial's sums of powers of
    ``v^2`` accumulate block by block.
    """
    if trials < 1:
        raise ValueError(f"the mixed-norm audit needs trials >= 1, got {trials}")
    rs = sorted({r for _, r in _QR_PAIRS})
    if grid is None:
        grid = Grid(4.0 * np.pi, 8192)
    rng = np.random.default_rng(seed)
    w_all = omega(grid.xi, disp)
    dx = grid.dx
    s2 = (_SQRT2PI / dx) ** 2  # v^2 over the squared unscaled ifft
    results = {f"Lt{q}Lx{r}": {} for q, r in _QR_PAIRS}
    results["maximal_Lx4"] = {}
    results["smoothing"] = {}

    for k in ks:
        t_max = min(1.0, _WINDOW_FACTOR * 2.0 ** (-4.0 * k))
        times, weights = _stretched_times(t_max, n_times)
        supp = eta_k(grid.xi, k) > 0.0
        supp[grid.nyquist_index] = False
        runs = _runs(supp)
        gaps = [run for run, _ in _runs(~supp)]
        w_supp = w_all[supp]
        packets = [_packet(grid, k, rng)[supp] for _ in range(trials)]
        # per trial: sum_x v^r per sample for each even r (r = 2 included),
        # sup over t of v^2, and the weighted L_t^2 sum of v^2 per point
        accs = [({r: np.zeros(times.size) for r in rs}, np.zeros(grid.size),
                 np.zeros(grid.size)) for _ in packets]
        m = min(_TIME_BLOCK, times.size)
        buf = np.empty((m, grid.size), dtype=np.complex128)
        v2 = np.empty((m, grid.size))
        for lo in range(0, times.size, _TIME_BLOCK):
            hi = min(lo + _TIME_BLOCK, times.size)
            phase = phasor(w_supp, times[lo:hi, None])
            rows, sq = buf[:hi - lo], v2[:hi - lo]
            for c, (sums_r, sup2_x, l2t_x) in zip(packets, accs):
                # the previous ifft overwrote the zero padding
                for gap in gaps:
                    rows[:, gap] = 0.0
                for run, part in runs:
                    np.multiply(phase[:, part], c[part], out=rows[:, run])
                np.fft.ifft(rows, axis=1, out=rows)
                # v^2 / s2 = re^2 + im^2 of the ifft, squared in place
                flat = rows.view(np.float64)
                np.multiply(flat, flat, out=flat)
                np.add(flat[:, 0::2], flat[:, 1::2], out=sq)
                for r, sums in sums_r.items():
                    sums[lo:hi] = np.einsum(",".join(["ij"] * int(r // 2)) + "->i",
                                            *[sq] * int(r // 2))
                np.maximum(sup2_x, sq.max(axis=0), out=sup2_x)
                l2t_x += weights[lo:hi] @ sq
        per_trial = {key: [] for key in results}
        for sums_r, sup2_x, l2t_x in accs:
            for q, r in _QR_PAIRS:
                g = (sums_r[r] * (s2 ** (r / 2.0) * dx)) ** (1.0 / r)
                if q == np.inf:
                    val = float(np.max(g))
                else:
                    val = float(np.sum(weights * g ** q) ** (1.0 / q))
                scale = 2.0 ** (-3.0 * k / q) if q != np.inf else 1.0
                per_trial[f"Lt{q}Lx{r}"].append(val / scale)
            sup2 = sup2_x * s2
            per_trial["maximal_Lx4"].append(
                float((np.sum(sup2 * sup2) * dx) ** 0.25) / 2.0 ** (k / 4.0)
            )
            smooth = np.sqrt(np.max(l2t_x) * s2)
            per_trial["smoothing"].append(float(smooth) / 2.0 ** (-2.0 * k))
        for key in results:
            results[key][k] = float(np.mean(per_trial[key]))

    slopes = _log2_slopes(ks, results) if len(ks) >= 2 else {}
    return {"ratios": results, "slopes": slopes, "seed": seed}


def _log2_slopes(ks, ratios):
    """Least-squares slope of ``log2(table[k])`` against the shell ``k``,
    for each table of ``ratios`` (a dict of ``{k: ratio}`` tables)."""
    karr = np.asarray(ks, dtype=np.float64)
    return {key: float(np.polyfit(karr, np.log2([table[k] for k in ks]), 1)[0])
            for key, table in ratios.items()}


# -- pointwise multiplier-bound audits -----------------------------------


def sigma3_extension(kernels, x1, x2, x3):
    """Off-hyperplane extension of sigma3 on a dyadic cell with
    ``|x1| ~ lam <= eta ~ |x2|, |x3|``.

    For comparable scales the numerator keeps the three-term form; when
    the first frequency is much smaller, the third term is rewritten
    through the pair sum, which is what makes the first-slot derivative
    bounds hold. Both agree with sigma3 on the zero-sum hyperplane.
    """
    return _sigma3_jet(kernels, x1, x2, x3)[0]


_BETA_ORDERS = [
    (0, 0, 0),
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (2, 0, 0), (0, 2, 0), (0, 0, 2),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
]


def _sigma3_jet(kernels, x1, x2, x3):
    """``sigma3_extension`` and its exact partial derivatives, one row per
    multi-index of ``_BETA_ORDERS``: the quotient rule on num / den, with
    the numerator of each sample's branch differentiated in closed form."""
    x = (x1, x2, x3)
    jet = kernels.mult.m2x_jet
    g = [jet(v) for v in x]
    s12 = x1 + x2
    gs = jet(s12)
    lam = np.abs(x1)
    eta = 0.5 * (np.abs(x2) + np.abs(x3))
    comparable = lam >= 0.25 * eta
    head = g[0][0] + g[1][0]
    num = np.where(comparable, head + g[2][0], head - gs[0])
    # num = sum_i weight_i g(x_i) - far g(x1 + x2): the far branch trades
    # g(x3) for the pair term, which moves with both x1 and x2
    far = (~comparable).astype(np.float64)
    weight = (1.0, 1.0, 1.0 - far)
    pair = (far, far, 0.0)
    # den = 7.5 p q with p = x1 x2 x3 and q = |x|^2 - 1.2 mu
    squares = x1 * x1 + x2 * x2 + x3 * x3
    q = squares - 1.2 * kernels.disp.mu
    den = 7.5 * x1 * x2 * x3 * q
    p = x1 * x2 * x3
    dp = (x2 * x3, x1 * x3, x1 * x2)
    dden = [7.5 * (dp[i] * q + 2.0 * x[i] * p) for i in range(3)]
    f = num / den
    f1 = [(weight[i] * g[i][1] - pair[i] * gs[1] - f * dden[i]) / den for i in range(3)]
    rows = [f] + f1
    for beta in _BETA_ORDERS[4:]:
        i, j = np.repeat(np.arange(3), beta)
        if i == j:
            d2num = weight[i] * g[i][2] - pair[i] * gs[2]
            d2den = 7.5 * (4.0 * x[i] * dp[i] + 2.0 * p)
        else:
            d2num = -pair[i] * pair[j] * gs[2]
            d2den = 7.5 * (x[3 - i - j] * q + 2.0 * (x[j] * dp[i] + x[i] * dp[j]))
        rows.append((d2num - f1[i] * dden[j] - f1[j] * dden[i] - f * d2den) / den)
    return rows


def _exceeds(ratio, best):
    """Whether ``ratio`` replaces the running maximum ``best``: it is
    larger, or it is the first NaN. A NaN ratio marks a bound that could
    not be evaluated, so it must reach the report, not lose every
    comparison."""
    return ratio > best or (np.isnan(ratio) and not np.isnan(best))


def _dyadic_cells(cap_exp):
    cells = []
    for a in range(0, cap_exp + 1):
        for b in range(a, cap_exp + 1):
            cells.append((2.0 ** a, 2.0 ** b))
    return cells


def _sigma3_cell(kernels, lam, eta, per_cell, seed):
    """One dyadic cell ``(lam, eta)`` of the sigma3 audit: its table row and
    the argmax of its largest ratio (None for a cell that keeps no sample).
    The cell draws from its own seed substream with a cap-independent
    budget; all ten derivative rows of its samples come from one
    ``_sigma3_jet`` call."""
    rng = np.random.default_rng([seed, int(np.log2(lam)), int(np.log2(eta))])
    x1 = rng.uniform(lam, 2 * lam, per_cell) * rng.choice([-1.0, 1.0], per_cell)
    x2 = rng.uniform(eta, 2 * eta, per_cell) * rng.choice([-1.0, 1.0], per_cell)
    x3 = -x1 - x2
    keep = (np.abs(x3) >= eta) & (np.abs(x3) < 2 * eta)
    # keep clear of the low-frequency resonance sphere
    squares = x1 ** 2 + x2 ** 2 + x3 ** 2
    keep &= np.abs(squares - 1.2 * kernels.disp.mu) > 0.1 * eta ** 2
    if not np.any(keep):
        return {"lam": lam, "eta": eta, "samples": 0, "max_ratio": float("nan")}, None
    x1, x2, x3 = x1[keep], x2[keep], x3[keep]
    cell_best = -np.inf
    arg = None
    m2lam = kernels.mult.m2(lam)
    for beta, d in zip(_BETA_ORDERS, _sigma3_jet(kernels, x1, x2, x3)):
        dv = np.abs(d)
        rhs = (
            m2lam * eta ** -4.0 * lam ** -float(beta[0])
            * eta ** -float(beta[1] + beta[2])
        )
        ratio = dv / rhs
        i = int(np.argmax(ratio))  # the first NaN, if any
        if _exceeds(ratio[i], cell_best):
            cell_best = float(ratio[i])
            arg = (float(x1[i]), float(x2[i]), float(x3[i]))
    return {"lam": lam, "eta": eta, "samples": int(x1.size), "max_ratio": cell_best}, arg


def _shell_tuples(seed, top_exp, cap_exp, per_shell, width):
    """Zero-sum tuples (width 4 or 5) of dyadic shell ``top_exp``, drawn from
    the shell's own seed substream: one coordinate's magnitude lies in
    [2^top_exp, 2^(top_exp+1)), no magnitude exceeds 2^(cap_exp+1), and the
    tuples stay clear of the vanishing pair-sum band (that set belongs to
    the lattice limit policy, not to the region bound). The draws do not
    depend on the cap, so a lower cap keeps a subset of a higher cap's
    tuples, in the same order."""
    free = width - 1
    rng = np.random.default_rng([seed, top_exp])
    e = rng.uniform(0.0, top_exp + 1.0, (per_shell, free))
    e[:, 0] = rng.uniform(top_exp, top_exp + 1.0, per_shell)
    # random roles for the shell-pinned coordinate
    perm = rng.integers(0, free, per_shell)
    swap = e[np.arange(per_shell), perm].copy()
    e[np.arange(per_shell), perm] = e[:, 0]
    e[:, 0] = swap
    mags = 2.0 ** e
    signs = rng.choice([-1.0, 1.0], (per_shell, free))
    xfree = mags * signs
    xlast = -xfree.sum(axis=1)
    x = np.column_stack([xfree, xlast])
    top = np.max(np.abs(x), axis=1)
    keep = (np.abs(xlast) > 0) & (top <= 2.0 ** (cap_exp + 1))
    for a in range(width):
        for b in range(a + 1, width):
            keep &= np.abs(x[:, a] + x[:, b]) > _SINGULAR_GUARD * top
    return x[keep]


# compare-exchange steps of the optimal sorting networks on 3 and 4 items
_NETWORKS = {3: ((0, 1), (1, 2), (0, 1)),
             4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def _sort_desc(cols):
    """The columns ``cols`` sorted per row in descending order by a min/max
    sorting network; it only selects values, so on NaN-free columns it
    equals ``np.sort(np.column_stack(cols), axis=1)[:, ::-1]`` bit for bit."""
    cols = list(cols)
    for i, j in _NETWORKS[len(cols)]:
        cols[i], cols[j] = np.maximum(cols[i], cols[j]), np.minimum(cols[i], cols[j])
    return cols


def _m4_bound_rhs(mult, x):
    """``m^2(min over frequencies and pair sums) / ((N+N1)^2 (N+N2)^2
    (N+N3)^3 (N+N4))`` with N1 >= ... >= N4 the sorted magnitudes."""
    N = mult.threshold
    n1, n2, n3, n4 = _sort_desc(np.abs(x).T)
    p12 = np.abs(x[:, 0] + x[:, 1])
    p13 = np.abs(x[:, 0] + x[:, 2])
    p23 = np.abs(x[:, 1] + x[:, 2])
    m2min = mult.m2(np.minimum.reduce([n4, p12, p13, p23]))
    return m2min / ((N + n1) ** 2 * (N + n2) ** 2 * (N + n3) ** 3 * (N + n4))


def _m5_bound_rhs(mult, x):
    """The symmetrized quotient ``[m^2(N_*45) N45 / ((N+N1)^2 (N+N2)^2
    (N+N3)^3 (N+N45))]_sym`` over the ten pair groupings."""
    N = mult.threshold
    mags = np.abs(x)
    rhs = np.zeros(x.shape[0])
    for a, b in itertools.combinations(range(5), 2):
        rest = [i for i in range(5) if i not in (a, b)]
        n45 = np.abs(x[:, a] + x[:, b])
        r1, r2, r3 = _sort_desc(mags[:, rest].T)
        p12 = np.abs(x[:, rest[0]] + x[:, rest[1]])
        p13 = np.abs(x[:, rest[0]] + x[:, rest[2]])
        p23 = np.abs(x[:, rest[1]] + x[:, rest[2]])
        nstar = np.minimum.reduce([r3, n45, p12, p13, p23])
        rhs += mult.m2(nstar) * n45 / (
            (N + r1) ** 2 * (N + r2) ** 2 * (N + r3) ** 3 * (N + n45)
        )
    return rhs / 10.0


# per tuple bound: tuple width, report name, and the ratio lhs / rhs
_TUPLE_BOUNDS = {
    "sigma4": (4, "sigma4_region_bound",
               lambda k, x: np.abs(k.sigma4(*x.T)) / _m4_bound_rhs(k.mult, x)),
    "m5": (5, "m5_pointwise_bound",
           lambda k, x: np.abs(k.m5(*x.T)) / _m5_bound_rhs(k.mult, x)),
}


def bound_shell(name, mult, disp, shell, cap_exp, n_samples, seed):
    """The samples of dyadic shell ``shell`` of bound ``name``
    (``"sigma3"``, ``"sigma4"`` or ``"m5"``), drawn at cap exponent
    ``cap_exp`` (at least ``shell``) and evaluated once; :func:`bound_report`
    reduces shells 0..cap into the report at any cap up to ``cap_exp``.

    For sigma4 and m5 the shell holds the tuples whose pinned coordinate
    lies in [2^shell, 2^(shell+1)) and whose magnitudes are at most
    2^(cap_exp+1): it returns ``(x, ratio, top)``, the tuples, their ratios
    and each tuple's largest magnitude. For sigma3 it holds the cells
    ``(2^a, 2^shell)`` with ``a <= shell``, which no cap restricts: it
    returns each cell's table row and argmax (:func:`_sigma3_cell`).
    """
    if n_samples < 1:
        raise ValueError(f"the bound audits need samples >= 1, got {n_samples}")
    kernels = EnergyMultipliers(mult, disp)
    if name == "sigma3":
        per_cell = max(256, n_samples // 36)
        return [_sigma3_cell(kernels, 2.0 ** a, 2.0 ** shell, per_cell, seed)
                for a in range(shell + 1)]
    width, _, ratio_fn = _TUPLE_BOUNDS[name]
    x = _shell_tuples(seed, shell, cap_exp, max(256, n_samples // 8), width)
    return x, ratio_fn(kernels, x), np.max(np.abs(x), axis=1)


def bound_report(name, mult, shells, cap_exp, seed):
    """The ``BoundCheckReport`` of bound ``name`` at cap ``2^cap_exp``, from
    the :func:`bound_shell` samples ``shells`` of shells 0..cap_exp (in
    shell order, drawn at any cap from ``cap_exp`` up). For sigma4 and m5 it
    keeps the tuples with every magnitude at most 2^(cap_exp+1). One pass
    over the samples in shell and cell order reduces them: the argmax is the
    first largest ratio, or the first NaN (``_exceeds``). A report without
    samples has ``max_ratio`` -inf and ``argmax`` None."""
    extras = {"cap_exp": cap_exp, "threshold": mult.threshold}
    if name == "sigma3":
        cells = [shells[int(np.log2(eta))][int(np.log2(lam))]
                 for lam, eta in _dyadic_cells(cap_exp)]
        total, best, arg = 0, -np.inf, None
        for row, where in cells:
            total += row["samples"]
            if where is not None and _exceeds(row["max_ratio"], best):
                best, arg = row["max_ratio"], where
        return BoundCheckReport(
            bound_name="sigma3_extension_derivatives", seed=seed,
            samples_evaluated=total, max_ratio=best, argmax=arg,
            cell_table=[row for row, _ in cells], extras=extras,
        )
    xs, ratio, top = zip(*shells)
    ratio, top = np.concatenate(ratio), np.concatenate(top)
    kept = np.flatnonzero(top <= 2.0 ** (cap_exp + 1))
    best, arg, table = -np.inf, None, []
    if kept.size:
        ratio = ratio[kept]
        i = int(np.argmax(ratio))  # the first NaN, if any
        # the argmax's row, read from its shell: the tuples are not copied
        j, k = int(kept[i]), 0
        while j >= len(xs[k]):
            j, k = j - len(xs[k]), k + 1
        best, arg = float(ratio[i]), tuple(float(v) for v in xs[k][j])
        scale = np.floor(np.log2(top[kept])).astype(int)
        counts = np.bincount(scale)
        peaks = np.full(counts.size, -np.inf)
        with np.errstate(invalid="ignore"):  # a NaN ratio is its scale's maximum
            np.maximum.at(peaks, scale, ratio)
        table = [{"scale_exp": int(sc), "samples": int(counts[sc]),
                  "max_ratio": float(peaks[sc])} for sc in np.flatnonzero(counts)]
    return BoundCheckReport(
        bound_name=_TUPLE_BOUNDS[name][1], seed=seed,
        samples_evaluated=int(kept.size), max_ratio=best, argmax=arg,
        cell_table=table, extras=extras,
    )


def _bound_audit(name, mult, disp, cap_exp, n_samples, seed):
    shells = [bound_shell(name, mult, disp, e, cap_exp, n_samples, seed)
              for e in range(cap_exp + 1)]
    return bound_report(name, mult, shells, cap_exp, seed)


def sigma3_bound_audit(mult, disp, cap_exp, n_samples, seed):
    """Derivative bounds of the sigma3 extension on dyadic cells.

    On each cell ``(lam, eta)`` the audited ratio is
    ``|D^beta sigma3| / (m^2(lam) eta^-4 lam^-beta1 eta^-(beta2+beta3))``
    for all multi-indices with total order <= 2. The derivatives are exact:
    the quotient rule on the extension's numerator and denominator, with
    ``m^2 xi`` differentiated in closed form; there is no step. Each cell
    draws from its own seed substream with a cap-independent budget, so
    doubling the cap adds new cells without perturbing the shared ones: the
    drift between caps then isolates whether larger shells grow the
    constants.
    """
    return _bound_audit("sigma3", mult, disp, cap_exp, n_samples, seed)


def sigma4_bound_audit(mult, disp, cap_exp, n_samples, seed):
    """Region bound ``|M4|/|h4 - v4|`` against the dyadic right-hand side.

    Samples are stratified by the top dyadic shell with cap-independent
    substreams, so cap-doubling only adds shells.
    """
    return _bound_audit("sigma4", mult, disp, cap_exp, n_samples, seed)


def m5_bound_audit(mult, disp, cap_exp, n_samples, seed):
    """Quintic multiplier bound: |M5| against the symmetrized quotient
    ``[m^2(N_*45) N45 / ((N+N1)^2 (N+N2)^2 (N+N3)^3 (N+N45))]_sym``."""
    return _bound_audit("m5", mult, disp, cap_exp, n_samples, seed)
