"""Sampling audits: resonance, box functional, extremal boxes, bounds."""

import itertools
import json
import os
from fractions import Fraction

import numpy as np
import pytest

import kawalab.audits as audits
from kawalab import DispersionParams, Grid, IMultiplier, resonance
from kawalab.audits import (
    _BETA_ORDERS,
    _SQRT2PI,
    BoundCheckReport,
    Box,
    KnappConfig,
    _QR_PAIRS,
    _dyadic_cells,
    _packet,
    _stretched_times,
    j_functional,
    knapp_sharpness,
    linear_estimate_audit,
    m5_bound_audit,
    resonance_size_audit,
    sigma3_bound_audit,
    sigma3_extension,
    sigma4_bound_audit,
)
from kawalab import cli
from kawalab.cli import main
from kawalab.dispersion import omega, phasor
from kawalab.io import _jsonify
from kawalab.multipliers import EnergyMultipliers


def reference_linear_estimate_audit(disp, ks, trials, seed, grid, n_times=1024,
                                    squares=True):
    """The per-trial loop over the full spectrum: one packet, then every
    block of 128 samples of ``exp(i omega t)`` on all modes, on the window
    ``[0, 4 * 2^(-4k)]``. With ``squares`` every norm comes from
    ``re^2 + im^2`` of the unscaled ifft, as in the library; without, from
    ``|v|^r`` of the scaled ifft."""
    rng = np.random.default_rng(seed)
    w_all = omega(grid.xi, disp)
    dx = grid.dx
    s2 = (_SQRT2PI / dx) ** 2
    rs = sorted({r for _, r in _QR_PAIRS})
    products = {2.0: "ij->i", 4.0: "ij,ij->i", 6.0: "ij,ij,ij->i"}
    results = {f"Lt{q}Lx{r}": {} for q, r in _QR_PAIRS}
    results["maximal_Lx4"] = {}
    results["smoothing"] = {}
    for k in ks:
        t_max = min(1.0, 4.0 * 2.0 ** (-4.0 * k))
        times, weights = _stretched_times(t_max, n_times)
        per_trial = {key: [] for key in results}
        for _ in range(trials):
            c = _packet(grid, k, rng)
            norms_r = {r: np.zeros(times.size) for r in rs}
            sup_x = np.zeros(grid.size)
            l2t_x = np.zeros(grid.size)
            for lo in range(0, times.size, 128):
                hi = min(lo + 128, times.size)
                block = phasor(w_all, times[lo:hi, None]) * c[None, :]
                if squares:
                    f = np.fft.ifft(block, axis=1)
                    sq = f.real * f.real + f.imag * f.imag
                    for r in rs:
                        norms_r[r][lo:hi] = np.einsum(products[r], *[sq] * int(r // 2))
                    np.maximum(sup_x, sq.max(axis=0), out=sup_x)
                    l2t_x += weights[lo:hi] @ sq
                else:
                    v = np.abs(np.fft.ifft(block, axis=1) * (_SQRT2PI / dx))
                    for r in rs:
                        norms_r[r][lo:hi] = (np.sum(v ** r, axis=1) * dx) ** (1.0 / r)
                    np.maximum(sup_x, v.max(axis=0), out=sup_x)
                    l2t_x += weights[lo:hi] @ (v ** 2)
            if squares:
                for r in rs:
                    norms_r[r] = (norms_r[r] * (s2 ** (r / 2.0) * dx)) ** (1.0 / r)
                l2t_x = l2t_x * s2
            for q, r in _QR_PAIRS:
                g = norms_r[r]
                if q == np.inf:
                    val = float(np.max(g))
                else:
                    val = float(np.sum(weights * g ** q) ** (1.0 / q))
                scale = 2.0 ** (-3.0 * k / q) if q != np.inf else 1.0
                per_trial[f"Lt{q}Lx{r}"].append(val / scale)
            sup2 = sup_x * s2 if squares else sup_x ** 2
            per_trial["maximal_Lx4"].append(
                float((np.sum(sup2 * sup2) * dx) ** 0.25) / 2.0 ** (k / 4.0)
            )
            per_trial["smoothing"].append(
                float(np.sqrt(np.max(l2t_x))) / 2.0 ** (-2.0 * k)
            )
        for key in results:
            results[key][k] = float(np.mean(per_trial[key]))
    slopes = {}
    karr = np.asarray(list(ks), dtype=np.float64)
    if karr.size >= 2:
        for key, table in results.items():
            vals = np.array([table[k] for k in ks])
            slopes[key] = float(np.polyfit(karr, np.log2(vals), 1)[0])
    return {"ratios": results, "slopes": slopes, "seed": seed}


def reference_fd_derivative(f, cols, beta, h):
    """Central finite difference of ``f`` in the multi-index ``beta``,
    evaluating ``f`` afresh for every multi-index."""
    total = sum(beta)
    if total == 0:
        return f(*cols)
    if total == 1:
        axis = beta.index(1)
        plus = list(cols)
        minus = list(cols)
        plus[axis] = cols[axis] + h
        minus[axis] = cols[axis] - h
        return (f(*plus) - f(*minus)) / (2.0 * h)
    if 2 in beta:
        axis = beta.index(2)
        plus = list(cols)
        minus = list(cols)
        plus[axis] = cols[axis] + h
        minus[axis] = cols[axis] - h
        return (f(*plus) - 2.0 * f(*cols) + f(*minus)) / (h * h)
    ax1, ax2 = [i for i, b in enumerate(beta) if b == 1]
    vals = 0.0
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            pt = list(cols)
            pt[ax1] = cols[ax1] + s1 * h
            pt[ax2] = cols[ax2] + s2 * h
            vals = vals + s1 * s2 * f(*pt)
    return vals / (4.0 * h * h)


def reference_sigma3_extension(kernels, x1, x2, x3):
    """The extension's value alone, numerator and denominator written out."""
    m2 = kernels.mult.m2
    lam = np.abs(x1)
    eta = 0.5 * (np.abs(x2) + np.abs(x3))
    comparable = lam >= 0.25 * eta
    head = m2(x1) * x1 + m2(x2) * x2
    num_cmp = head + m2(x3) * x3
    s12 = x1 + x2
    num_far = head - m2(s12) * s12
    num = np.where(comparable, num_cmp, num_far)
    squares = x1 * x1 + x2 * x2 + x3 * x3
    den = 7.5 * x1 * x2 * x3 * (squares - 1.2 * kernels.disp.mu)
    return num / den


def reference_sigma3_bound_audit(mult, disp, cap_exp, n_samples, seed):
    """One pass over the cells in order, folding every multi-index's ratio
    into one running argmax."""
    kernels = EnergyMultipliers(mult, disp)
    cells = _dyadic_cells(cap_exp)
    per_cell = max(256, n_samples // 36)
    best = -np.inf
    arg = None
    table = []
    total = 0
    for lam, eta in cells:
        rng = np.random.default_rng([seed, int(np.log2(lam)), int(np.log2(eta))])
        x1 = rng.uniform(lam, 2 * lam, per_cell) * rng.choice([-1.0, 1.0], per_cell)
        x2 = rng.uniform(eta, 2 * eta, per_cell) * rng.choice([-1.0, 1.0], per_cell)
        x3 = -x1 - x2
        keep = (np.abs(x3) >= eta) & (np.abs(x3) < 2 * eta)
        squares = x1 ** 2 + x2 ** 2 + x3 ** 2
        keep &= np.abs(squares - 1.2 * disp.mu) > 0.1 * eta ** 2
        if not np.any(keep):
            table.append({"lam": lam, "eta": eta, "samples": 0,
                          "max_ratio": float("nan")})
            continue
        x1, x2, x3 = x1[keep], x2[keep], x3[keep]
        total += x1.size
        cell_best = -np.inf
        m2lam = mult.m2(lam)
        rows = audits._sigma3_jet(kernels, x1, x2, x3)
        for beta, d in zip(_BETA_ORDERS, rows):
            rhs = (
                m2lam * eta ** -4.0 * lam ** -float(beta[0])
                * eta ** -float(beta[1] + beta[2])
            )
            ratio = np.abs(d) / rhs
            i = int(np.argmax(ratio))
            if ratio[i] > cell_best:
                cell_best = float(ratio[i])
            if ratio[i] > best:
                best = float(ratio[i])
                arg = (float(x1[i]), float(x2[i]), float(x3[i]))
        table.append({"lam": lam, "eta": eta, "samples": int(x1.size),
                      "max_ratio": cell_best})
    return BoundCheckReport(
        bound_name="sigma3_extension_derivatives",
        seed=seed,
        samples_evaluated=total,
        max_ratio=best,
        argmax=arg,
        cell_table=table,
        extras={"cap_exp": cap_exp, "threshold": mult.threshold},
    )


def reference_zero_sum_tuples(seed, cap_exp, per_shell, width):
    """All shells 0..cap_exp drawn at cap ``cap_exp`` and concatenated."""
    blocks = []
    free = width - 1
    for top_exp in range(cap_exp + 1):
        rng = np.random.default_rng([seed, top_exp])
        e = rng.uniform(0.0, top_exp + 1.0, (per_shell, free))
        e[:, 0] = rng.uniform(top_exp, top_exp + 1.0, per_shell)
        perm = rng.integers(0, free, per_shell)
        swap = e[np.arange(per_shell), perm].copy()
        e[np.arange(per_shell), perm] = e[:, 0]
        e[:, 0] = swap
        signs = rng.choice([-1.0, 1.0], (per_shell, free))
        xfree = 2.0 ** e * signs
        xlast = -xfree.sum(axis=1)
        x = np.column_stack([xfree, xlast])
        top = np.max(np.abs(x), axis=1)
        keep = (np.abs(xlast) > 0) & (top <= 2.0 ** (cap_exp + 1))
        for a in range(width):
            for b in range(a + 1, width):
                keep &= np.abs(x[:, a] + x[:, b]) > 1e-3 * top
        blocks.append(x[keep])
    return np.concatenate(blocks, axis=0)


def reference_tuple_bound_audit(name, mult, disp, cap_exp, n_samples, seed):
    """One pass over the concatenated sample set of every shell, with
    ``np.sort`` for the sorted magnitudes."""
    kernels = EnergyMultipliers(mult, disp)
    N = mult.threshold
    width = 4 if name == "sigma4" else 5
    x = reference_zero_sum_tuples(seed, cap_exp, max(256, n_samples // 8), width)
    if name == "sigma4":
        lhs = np.abs(kernels.sigma4(x[:, 0], x[:, 1], x[:, 2], x[:, 3]))
        mags = np.sort(np.abs(x), axis=1)[:, ::-1]
        pairs = [np.abs(x[:, a] + x[:, b]) for a, b in ((0, 1), (0, 2), (1, 2))]
        smallest = np.min(np.column_stack([np.abs(x)] + pairs), axis=1)
        rhs = mult.m2(smallest) / (
            (N + mags[:, 0]) ** 2 * (N + mags[:, 1]) ** 2
            * (N + mags[:, 2]) ** 3 * (N + mags[:, 3]))
        bound_name = "sigma4_region_bound"
    else:
        lhs = np.abs(kernels.m5(*[x[:, i] for i in range(5)]))
        rhs = np.zeros(x.shape[0])
        for a, b in itertools.combinations(range(5), 2):
            rest = [i for i in range(5) if i not in (a, b)]
            n45 = np.abs(x[:, a] + x[:, b])
            r = np.sort(np.abs(x[:, rest]), axis=1)[:, ::-1]
            pairs = [np.abs(x[:, rest[i]] + x[:, rest[j]])
                     for i, j in ((0, 1), (0, 2), (1, 2))]
            nstar = np.min(np.column_stack([r, n45] + pairs), axis=1)
            rhs += mult.m2(nstar) * n45 / (
                (N + r[:, 0]) ** 2 * (N + r[:, 1]) ** 2 * (N + r[:, 2]) ** 3
                * (N + n45))
        rhs /= 10.0
        bound_name = "m5_pointwise_bound"
    ratio = lhs / rhs
    i = int(np.argmax(ratio))
    tops = np.floor(np.log2(np.max(np.abs(x), axis=1))).astype(int)
    table = [{"scale_exp": int(sc), "samples": int(np.count_nonzero(tops == sc)),
              "max_ratio": float(np.max(ratio[tops == sc]))}
             for sc in sorted(set(tops.tolist()))]
    return BoundCheckReport(
        bound_name=bound_name, seed=seed, samples_evaluated=int(x.shape[0]),
        max_ratio=float(ratio[i]), argmax=tuple(float(v) for v in x[i]),
        cell_table=table, extras={"cap_exp": cap_exp, "threshold": mult.threshold},
    )


class TestResonance:
    def test_worked_point(self):
        d0 = DispersionParams(0.0)
        assert resonance(10.0, 10.0, d0) / (20.0 ** 4 * 10.0) == pytest.approx(1.875)

    def test_antidiagonal_zero(self):
        d = DispersionParams(0.8)
        xi = np.linspace(0.1, 50, 100)
        assert np.max(np.abs(resonance(xi, -xi, d))) == 0.0

    def test_symmetric(self):
        d = DispersionParams(0.5)
        rng = np.random.default_rng(0)
        a = rng.uniform(-40, 40, 1000)
        b = rng.uniform(-40, 40, 1000)
        assert np.array_equal(resonance(a, b, d), resonance(b, a, d))

    def test_audit_bracket(self):
        rep = resonance_size_audit(10 ** 5, seed=1)
        assert 0.0 < rep.min_ratio < rep.max_ratio < 10.0
        rep0 = resonance_size_audit(10 ** 5, seed=1, mu=0.0)
        assert rep0.min_ratio <= 1.875 <= rep0.max_ratio

    def test_audit_reproducible(self):
        a = resonance_size_audit(10 ** 4, seed=9)
        b = resonance_size_audit(10 ** 4, seed=9)
        assert a.max_ratio == b.max_ratio and a.min_ratio == b.min_ratio

    @staticmethod
    def exact_ratio(x1, x2, mu):
        """The ratio in rationals (every double is one exactly), and the
        rounding scale ``sum |terms| / (|xi|_max^4 |xi|_min)``."""
        a, b, mu = Fraction(x1), Fraction(x2), Fraction(mu)
        c = a + b
        terms = (mu * a ** 3, -a ** 5, mu * b ** 3, -b ** 5, -mu * c ** 3, c ** 5)
        mags = (abs(a), abs(b), abs(c))
        den = max(mags) ** 4 * min(mags)
        return abs(sum(terms)) / den, sum(abs(t) for t in terms) / den

    def assert_exact(self, ratio, x1, x2, mu):
        exact, scale = self.exact_ratio(x1, x2, mu)
        # the float Omega sums six products of at most four roundings
        assert abs(Fraction(ratio) - exact) <= 16 * np.finfo(float).eps * scale

    def test_ratio_matches_exact_rationals(self):
        rng = np.random.default_rng(21)
        count = 200
        mags = np.exp(rng.uniform(np.log(1e-2), np.log(1e4), (2, count)))
        # every sign pattern, so the cubes and fifth powers see negative bases
        x1 = mags[0] * np.tile([1.0, 1.0, -1.0, -1.0], count // 4)
        x2 = mags[1] * np.tile([1.0, -1.0, 1.0, -1.0], count // 4)
        mus = rng.uniform(-1.0, 1.0, count)
        keep, ratio = audits._resonance_ratio(x1, x2, mus)
        assert keep.sum() > count // 2
        for r, a, b, mu in zip(ratio[keep], x1[keep], x2[keep], mus[keep]):
            self.assert_exact(r, a, b, mu)

    def test_reported_extremes_match_exact_rationals(self):
        rep = resonance_size_audit(10 ** 5, seed=1)
        self.assert_exact(rep.max_ratio, *rep.argmax)
        self.assert_exact(rep.min_ratio, *rep.extras["argmin"])

    def test_worked_point_exact(self):
        x = np.array([10.0, -10.0])
        keep, ratio = audits._resonance_ratio(x, x, np.zeros(2))
        assert keep.all() and ratio.tolist() == [1.875, 1.875]


class TestJFunctional:
    D = DispersionParams(1.0)

    def test_disjoint_supports_vanish(self):
        f = Box(10.0, 11.0, -1.0, 1.0)
        g = Box(20.0, 21.0, -1.0, 1.0)
        h = Box(100.0, 101.0, -1.0, 1.0)  # xi1+xi2 in [30,32], never lands
        res = j_functional(f, g, h, self.D, 10 ** 4, seed=2)
        assert res["estimate"] == 0.0

    def test_separated_dyadic_scales_vanish(self):
        # |k_med - k_max| > 5: output box at scale 2^10, inputs at 2^2
        f = Box(4.0, 8.0, -1.0, 1.0)
        g = Box(4.0, 8.0, -1.0, 1.0)
        h = Box(2.0 ** 10, 2.0 ** 11, -1.0, 1.0)
        res = j_functional(f, g, h, self.D, 10 ** 4, seed=3)
        assert res["estimate"] == 0.0

    def test_aligned_boxes_give_product_measure(self):
        # wide modulation target: the constraint never binds, so the value
        # is exactly the product of input areas
        d0 = DispersionParams(0.0)
        f = Box(1.0, 2.0, -1.0, 1.0)
        g = Box(1.0, 2.0, -1.0, 1.0)
        om_max = abs(float(resonance(2.0, 2.0, d0))) + 10.0
        h = Box(2.0, 4.0, -om_max, om_max)
        res = j_functional(f, g, h, d0, 10 ** 5, seed=4)
        assert res["estimate"] == pytest.approx(f.area * g.area, rel=1e-12)

    def test_unresolvable_box_rejected(self):
        f = Box(1.0, 1.0 + 1e-6, -1.0, 1.0)
        with pytest.raises(ValueError):
            j_functional(f, f, f, self.D, 100, seed=0, lattice_spacing=1e-3)


class TestKnapp:
    def test_scalings_and_stability(self):
        results = {}
        for exp in (8, 10):
            cfg = KnappConfig(2.0 ** exp, 1.0, 16.0)
            results[exp] = knapp_sharpness(cfg, n_samples=1 << 18, seed=5)
        r8, r10 = results[8], results[10]
        assert r8["j_estimate"] > 0
        # norm product follows N1^(-9/4) L1^(1/2) L2^(7/4) exactly
        assert r8["norm_product_scaling"] == pytest.approx(
            r10["norm_product_scaling"], rel=1e-10)
        # J follows N1^-3 L1 L2^2 within factor 2 across the sweep
        assert 0.5 < r8["j_scaling"] / r10["j_scaling"] < 2.0
        assert 0.5 < r8["sharpness_ratio"] / r10["sharpness_ratio"] < 2.0

    def test_j_close_to_full_measure(self):
        cfg = KnappConfig(2.0 ** 8, 1.0, 16.0)
        res = knapp_sharpness(cfg, n_samples=1 << 18, seed=6)
        assert res["j_estimate"] == pytest.approx(res["full_measure"], rel=0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KnappConfig(2.0 ** 8, 4.0, 2.0)  # L1 > L2
        with pytest.raises(ValueError):
            KnappConfig(4.0, 1.0, 4.0 ** 5 * 8)  # L2 > N1^5


class TestLinearEstimates:
    def test_unitarity_and_flat_ratios(self):
        from kawalab import Grid

        d = DispersionParams(1.0)
        res = linear_estimate_audit(
            d, [4, 6], trials=2, seed=3, grid=Grid(4 * np.pi, 4096), n_times=512)
        unit = res["ratios"]["LtinfLx2.0"]
        assert all(abs(v - 1.0) <= 1e-12 for v in unit.values())
        r66 = res["ratios"]["Lt6.0Lx6.0"]
        assert 0.5 < r66[4] / r66[6] < 2.0

    def test_matches_reference_loop(self):
        # 301 samples in blocks of 128: the last block is partial
        d = DispersionParams(1.0)
        args = (d, [4, 5], 3, 21)
        kwargs = dict(grid=Grid(4 * np.pi, 1024), n_times=300)
        new = linear_estimate_audit(*args, **kwargs)
        ref = reference_linear_estimate_audit(*args, **kwargs)
        assert json.dumps(new) == json.dumps(ref)
        # the |v|^r formulas agree to rounding
        old = reference_linear_estimate_audit(*args, **kwargs, squares=False)
        for key, table in old["ratios"].items():
            for k, v in table.items():
                assert new["ratios"][key][k] == pytest.approx(v, rel=1e-13, abs=0.0)


class TestBoundAudits:
    D = DispersionParams(1.0)
    M = IMultiplier(16.0)

    def test_sigma3_extension_matches_on_hyperplane(self):
        kern = EnergyMultipliers(self.M, self.D)
        rng = np.random.default_rng(1)
        sign = lambda n: rng.choice([-1.0, 1.0], n)
        # far cells, comparable cells, and points within 1e-6 of the
        # branch switch |x1| = (|x2| + |x3|) / 8: with x3 = -x1 - x2 it
        # sits at |x1| = 2|x2|/7 for equal signs and 2|x2|/9 otherwise
        x1 = [rng.uniform(1.0, 2.0, 200) * sign(200), rng.uniform(8.0, 32.0, 200) * sign(200)]
        x2 = [rng.uniform(32.0, 64.0, 200) * sign(200), rng.uniform(16.0, 64.0, 200) * sign(200)]
        big = rng.uniform(4.0, 256.0, 400) * sign(400)
        s1 = sign(400)
        switch = np.where(s1 == np.sign(big), 2.0 / 7.0, 2.0 / 9.0) * np.abs(big)
        x1.append(s1 * switch * (1.0 + rng.uniform(-1e-6, 1e-6, 400)))
        x2.append(big)
        x1, x2 = np.concatenate(x1), np.concatenate(x2)
        x3 = -x1 - x2
        comparable = np.abs(x1) >= 0.125 * (np.abs(x2) + np.abs(x3))
        near = slice(400, None)
        assert comparable[near].any() and not comparable[near].all()
        assert comparable[200:400].sum() > 100 and not comparable[:200].any()
        ext = sigma3_extension(kern, x1, x2, x3)
        direct = kern.sigma3(x1, x2, x3)
        rel = np.abs(ext - direct) / np.maximum(np.abs(direct), 1e-300)
        assert np.max(rel[np.abs(direct) > 0]) <= 1e-10

    @pytest.mark.parametrize("cap", [0, 3, 6])
    def test_sigma3_audit_matches_reference_loop(self, cap):
        new = sigma3_bound_audit(self.M, self.D, cap, 4000, 17)
        ref = reference_sigma3_bound_audit(self.M, self.D, cap, 4000, 17)
        # equal-scale cells keep no samples and give the NaN row
        assert any(row["samples"] == 0 for row in new.cell_table)
        assert json.dumps(new.as_dict()) == json.dumps(ref.as_dict())

    def test_exact_derivatives_match_central_differences(self):
        # audit-admissible samples of every cell up to cap 7, kept 8h (at the
        # coarse h) from the junctions |xi| in {N, 2N} of m and from the
        # branch switch |x1| = eta/4, where the extension is not smooth
        kern = EnergyMultipliers(self.M, self.D)
        f = lambda a, b, c: reference_sigma3_extension(kern, a, b, c)
        N, margin = self.M.threshold, 8.0 * 2.0 ** -6
        first = {2.0 ** -6: 0.0, 2.0 ** -8: 0.0}
        second = 0.0
        for lam, eta in _dyadic_cells(7):
            rng = np.random.default_rng([5, int(np.log2(lam)), int(np.log2(eta))])
            x1 = rng.uniform(lam, 2 * lam, 400) * rng.choice([-1.0, 1.0], 400)
            x2 = rng.uniform(eta, 2 * eta, 400) * rng.choice([-1.0, 1.0], 400)
            x3 = -x1 - x2
            keep = (np.abs(x3) >= eta) & (np.abs(x3) < 2 * eta)
            keep &= np.abs(x1 ** 2 + x2 ** 2 + x3 ** 2 - 1.2) > 0.1 * eta ** 2
            for v in (x1, x2, x3):
                keep &= np.min(np.abs(np.abs(v)[:, None] - [N, 2 * N]), axis=1) > margin
            keep &= np.abs(np.abs(x1) - 0.125 * (np.abs(x2) + np.abs(x3))) > margin
            if not np.any(keep):
                continue
            cols = [x1[keep], x2[keep], x3[keep]]
            exact = audits._sigma3_jet(kern, *cols)
            assert np.array_equal(exact[0], f(*cols))
            assert np.array_equal(exact[0], sigma3_extension(kern, *cols))
            for row, beta in enumerate(_BETA_ORDERS[1:], start=1):
                # below N the far numerator vanishes identically: scale 0
                scale = max(np.max(np.abs(exact[row])), 1e-300)
                for h in first if sum(beta) == 1 else (2.0 ** -8,):
                    fd = reference_fd_derivative(f, cols, list(beta), h)
                    gap = np.max(np.abs(fd - exact[row])) / scale
                    if sum(beta) == 1:
                        first[h] = max(first[h], gap)
                    else:
                        second = max(second, gap)
        coarse, fine = first.values()
        # second-order differences: the gap falls 16x when h falls 4x
        assert fine <= 1e-4 and 12.0 < coarse / fine < 20.0
        assert second <= 1e-3

    def test_sigma3_max_ratio_seed_stable(self):
        # exact derivatives have no truncation spike at the branch switch,
        # so the constant does not depend on where a seed's samples fall
        ratios = [sigma3_bound_audit(self.M, self.D, cap, 20000, seed).max_ratio
                  for seed in (1, 3, 11, 77, 112) for cap in (6, 7)]
        assert max(ratios) < 1.1 * min(ratios)

    @pytest.mark.parametrize("block", [None, 500])
    def test_sigma3_audit_one_extension_call_per_block(self, monkeypatch, block):
        calls = []
        inner = audits._sigma3_jet

        def counted(kernels, x1, x2, x3):
            calls.append(x1.size)
            return inner(kernels, x1, x2, x3)

        monkeypatch.setattr(audits, "_sigma3_jet", counted)
        if block is not None:
            monkeypatch.setattr(audits, "_BOUND_BLOCK", block)
        rep = sigma3_bound_audit(self.M, self.D, 4, 4000, 3)
        # every cell's samples, in one run of blocks of at most _BOUND_BLOCK
        total = sum(row["samples"] for row in rep.cell_table)
        full, rest = divmod(total, audits._BOUND_BLOCK)
        assert calls == [audits._BOUND_BLOCK] * full + [rest] * (rest > 0)

    def test_low_shells_give_zero_ratio(self):
        # every frequency and pair sum below threshold: lhs identically 0
        kern = EnergyMultipliers(self.M, self.D)
        vals = kern.sigma4(np.array([1.0]), np.array([2.0]),
                           np.array([-0.5]), np.array([-2.5]))
        assert vals[0] == 0.0

    def test_reports_reproducible_and_stable(self):
        for fn in (sigma3_bound_audit, sigma4_bound_audit, m5_bound_audit):
            a = fn(self.M, self.D, 5, 20000, seed=12)
            b = fn(self.M, self.D, 5, 20000, seed=12)
            assert a.max_ratio == b.max_ratio
            assert np.isfinite(a.max_ratio)

    def test_cap_doubling_stability(self):
        for fn in (sigma3_bound_audit, sigma4_bound_audit, m5_bound_audit):
            lo = fn(self.M, self.D, 5, 30000, seed=4)
            hi = fn(self.M, self.D, 6, 30000, seed=4)
            drift = hi.max_ratio / lo.max_ratio
            assert 0.5 < drift < 2.0

    @pytest.mark.parametrize("name, fn", [("sigma4", sigma4_bound_audit),
                                          ("m5", m5_bound_audit)])
    @pytest.mark.parametrize("cap", [0, 3, 6])
    def test_tuple_audit_matches_one_pass_reference(self, name, fn, cap):
        new = fn(self.M, self.D, cap, 8000, 23)
        ref = reference_tuple_bound_audit(name, self.M, self.D, cap, 8000, 23)
        assert new.as_dict() == ref.as_dict()

    @staticmethod
    def poison(monkeypatch, name):
        """Patch the kernel of bound ``name`` to give one NaN per call."""
        def with_nan(rows):
            rows = np.array(rows, copy=True)
            rows[..., rows.shape[-1] // 2] = np.nan
            return rows

        if name == "sigma3":
            inner = audits._sigma3_jet
            monkeypatch.setattr(audits, "_sigma3_jet", lambda *a: [with_nan(inner(*a)[0])]
                                + list(inner(*a)[1:]))
        else:
            inner = getattr(EnergyMultipliers, name)
            monkeypatch.setattr(EnergyMultipliers, name,
                                lambda self, *x: with_nan(inner(self, *x)))

    @pytest.mark.parametrize("name", ["sigma3", "sigma4", "m5"])
    def test_nan_ratio_reaches_report(self, monkeypatch, name):
        # a NaN ratio lost every comparison: max_ratio -inf, argmax None,
        # and as_dict raised TypeError
        self.poison(monkeypatch, name)
        rep = audits._bound_audit(name, self.M, self.D, 3, 4000, 5)
        assert np.isnan(rep.max_ratio) and rep.argmax is not None
        rows = [row for row in rep.as_dict()["cell_table"] if row["samples"]]
        assert any(np.isnan(row["max_ratio"]) for row in rows)
        if name != "sigma3":
            # the one NaN of the one kernel call over shells 0..3, in shell order
            width = 4 if name == "sigma4" else 5
            x = np.concatenate([audits._shell_tuples(5, e, 3, 500, width)[0] for e in range(4)])
            assert rep.argmax == tuple(x[len(x) // 2])

    def test_nan_ratio_fails_cli_gate_with_artifacts(self, tmp_path, monkeypatch):
        self.poison(monkeypatch, "m5")
        out = tmp_path / "bounds"
        assert main(["--seed", "5", "--out", str(out), "verify-bounds",
                     "--samples", "2000", "--cap_lo", "2", "--cap_hi", "3"]) == 1
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["reports"]["m5_cap3"]["max_ratio"] is None
        assert payload["gates"]["m5_cap_stability"] is False
        failed = json.loads((out / "failures.json").read_text())["failed_gates"]
        assert "m5_cap_stability" in failed

    def test_lower_cap_restricts_its_shells(self):
        # shells 0..3 hold tuples above 2^4 when drawn at cap 5: the cap-3
        # report must restrict them, not take them whole
        for width in (4, 5):
            tops = [np.max(audits._shell_tuples(9, e, 5, 500, width)[1]) for e in range(4)]
            assert max(tops) > 2.0 ** 4

    def test_empty_reports_name_no_point(self, tmp_path):
        # cell (1, 1) keeps no sample: |x1 + x2| cannot lie in [1, 2)
        out = tmp_path / "bounds"
        assert main(["--seed", "1", "--out", str(out), "verify-bounds",
                     "--cap_lo", "0", "--cap_hi", "1", "--samples", "256"]) == 1
        empty = json.loads((out / "bounds.json").read_text())["reports"]["sigma3_cap0"]
        assert empty["samples_evaluated"] == 0
        assert empty["max_ratio"] is None and empty["argmax"] is None
        # a tuple report whose shells keep no rows
        [(x, ratio, top)] = audits.bound_shells("m5", self.M, self.D, [0], 0, 256, 1)
        rep = audits.bound_report("m5", self.M, [(x[:0], ratio[:0], top[:0])], 0, 1)
        assert rep.samples_evaluated == 0 and rep.cell_table == []
        assert _jsonify(rep.as_dict())["max_ratio"] is None
        assert rep.as_dict()["argmax"] is None

    @staticmethod
    def same_bits(a, b):
        """``a`` and ``b`` hold the same float64 bits, any NaN matching any NaN."""
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        nan = np.isnan(a)
        return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))

    @pytest.mark.parametrize("poisoned", [False, True], ids=["plain", "poisoned"])
    @pytest.mark.parametrize("name", ["sigma3", "sigma4", "m5"])
    def test_bound_shells_equal_one_shell_at_a_time(self, monkeypatch, name, poisoned):
        # one kernel call per shell, against blocks of 300 points across
        # shells 0, 2 and 3; sigma3's shell 0 is its diagonal cell (1, 1)
        shells, cap, n, seed, block = [0, 2, 3], 3, 4000, 7, 300
        alone = [audits.bound_shells(name, self.M, self.D, [e], cap, n, seed)[0]
                 for e in shells]
        monkeypatch.setattr(audits, "_BOUND_BLOCK", block)
        if poisoned:
            self.poison(monkeypatch, name)
        batched = audits.bound_shells(name, self.M, self.D, shells, cap, n, seed)
        assert len(batched) == len(shells)
        if name == "sigma3":
            sizes = [row["samples"] for shell in alone for row, _ in shell]
            assert sizes.count(0) == 3  # the diagonal cells (1, 1), (4, 4), (8, 8)
        else:
            sizes = [len(x) for x, _, _ in alone]
        edges = np.cumsum([0] + sizes)
        total = int(edges[-1])
        # a block edge falls strictly inside a shell's samples
        assert any(np.any((edges[:-1] < lo) & (lo < edges[1:])) for lo in range(block, total, block))
        # the poison sets each block's middle point to NaN
        nans = [lo + (min(lo + block, total) - lo) // 2 for lo in range(0, total, block)]
        if name != "sigma3":
            ratio = np.concatenate([r for _, r, _ in alone])
            if poisoned:
                ratio[nans] = np.nan
            ratios = np.split(ratio, edges[1:-1])
            for (x, r, top), (xw, _, topw), rw in zip(batched, alone, ratios):
                assert self.same_bits(x, xw) and self.same_bits(top, topw)
                assert self.same_bits(r, rw)
            return
        want = [(row, arg) for shell in alone for row, arg in shell]
        cells = [(row["lam"], row["eta"]) for row, _ in want]
        if poisoned:
            kernels = EnergyMultipliers(self.M, self.D)
            for i in nans[::-1]:  # the first NaN of a cell is its argmax
                c = int(np.searchsorted(edges, i, side="right")) - 1
                x = audits._sigma3_draw(kernels, *cells[c], 256, seed)
                want[c] = ({**want[c][0], "max_ratio": np.nan},
                           tuple(float(v[i - edges[c]]) for v in x))
        got = [(row, arg) for shell in batched for row, arg in shell]
        assert [len(shell) for shell in batched] == [e + 1 for e in shells]
        assert len(got) == len(want)
        for (row, arg), (row_w, arg_w) in zip(got, want):
            assert {k: v for k, v in row.items() if k != "max_ratio"} == \
                {k: v for k, v in row_w.items() if k != "max_ratio"}
            assert self.same_bits(row["max_ratio"], row_w["max_ratio"])
            assert (arg is None) == (arg_w is None)
            assert arg is None or self.same_bits(arg, arg_w)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sharded_cli_equals_standalone_audits(self, tmp_path, monkeypatch, workers):
        if workers == "2":
            # open the work gate, which this size is below, so a pool forks
            monkeypatch.setattr(cli, "_FORK_MIN_WORK", 0.0)
        pids = tmp_path / "pids"
        pids.mkdir()
        inner = cli.bound_shells

        def recorded(*unit):
            (pids / str(os.getpid())).touch()
            return inner(*unit)

        monkeypatch.setattr(cli, "bound_shells", recorded)
        out = tmp_path / "bounds"
        assert main(["--seed", "9", "--workers", workers, "--no-gate", "--out", str(out),
                     "verify-bounds", "--samples", "4000",
                     "--cap_lo", "3", "--cap_hi", "5"]) == 0
        forked = {int(p.name) for p in pids.iterdir()} - {os.getpid()}
        assert len(forked) == int(workers) - 1
        reports = json.loads((out / "bounds.json").read_text())["reports"]
        assert set(reports) == {f"{name}_cap{cap}" for name in ("sigma3", "sigma4", "m5")
                                for cap in (3, 5)}
        for name, fn in (("sigma3", sigma3_bound_audit), ("sigma4", sigma4_bound_audit),
                         ("m5", m5_bound_audit)):
            for cap in (3, 5):
                alone = _jsonify(fn(self.M, self.D, cap, 4000, 9).as_dict())
                assert reports[f"{name}_cap{cap}"] == alone


class TestSortingNetwork:
    @pytest.mark.parametrize("width", [3, 4])
    def test_matches_np_sort_with_ties(self, width):
        rng = np.random.default_rng(width)
        # few distinct values, so most rows hold ties; zeros included
        rows = rng.integers(0, 4, (2000, width)).astype(np.float64) * 0.75
        rows[:4] = [[1.5] * width, [0.0] * width, [3.0] + [0.0] * (width - 1),
                    [0.75] * (width - 1) + [2.25]]
        got = np.column_stack(audits._sort_desc(rows.T))
        want = np.sort(rows, axis=1)[:, ::-1]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_np_sort_on_magnitudes(self):
        rng = np.random.default_rng(3)
        mags = np.abs(rng.standard_normal((5000, 4)) * 2.0 ** rng.integers(-3, 9, (5000, 4)))
        for cols in (mags, mags[:, :3]):
            got = np.column_stack(audits._sort_desc(cols.T))
            assert np.array_equal(got, np.sort(cols, axis=1)[:, ::-1])
