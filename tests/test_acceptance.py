"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Budgets are generous upper bounds; the suite as a whole
runs in well under half an hour on a laptop-class core.
"""

import filecmp
import time

import numpy as np
import pytest

from kawalab import (
    DispersionParams,
    EnergyMultipliers,
    Grid,
    IMultiplier,
    SolverConfig,
    SpectralField,
    apply_I,
    energy_derivative_audit,
    gwp_experiment,
    modified_energies,
    power_sum_identity_check,
    simulate,
)
from kawalab.imethod import (GwpConfig, almost_conservation_sweep, bootstrap_datum,
                             suggest_audit_stride)
from kawalab.solver import guarded_dt

D1 = DispersionParams(1.0)


def _report(num, name, passed, detail):
    line = f"[acceptance {num:2d}] {'PASS' if passed else 'FAIL'}  {name}: {detail}"
    print(line)
    assert passed, line


def zero_sum(rng, count, k, span=1000.0):
    x = rng.uniform(-span, span, (count, k - 1))
    return np.column_stack([x, -x.sum(axis=1)])


def test_a01_algebraic_identities():
    t0 = time.time()
    rng = np.random.default_rng(101)
    gap3 = power_sum_identity_check(zero_sum(rng, 10000, 3))
    gap4 = power_sum_identity_check(zero_sum(rng, 10000, 4))
    from kawalab.illposed import theta_identity_gap

    x = rng.uniform(-1000, 1000, (10000, 3))
    gap_t = theta_identity_gap(x, D1)
    el = time.time() - t0
    ok = gap3 <= 1e-11 and gap4 <= 1e-11 and gap_t <= 1e-11 and el < 1.0
    _report(1, "power sums and cubic-phase factorization", ok,
            f"gaps {gap3:.2e}/{gap4:.2e}/{gap_t:.2e}, {el:.2f}s")


def test_a02_cancellation_by_construction():
    t0 = time.time()
    rng = np.random.default_rng(102)
    kern = EnergyMultipliers(IMultiplier(16.0), D1)
    mi = rng.integers(-500, 501, (10000, 2))
    m3 = np.column_stack([mi, -mi.sum(axis=1)]).astype(float)
    m3 = m3[(m3 != 0).all(axis=1)]
    v3 = kern.m3(m3[:, 0], m3[:, 1], m3[:, 2])
    r3 = np.abs(v3 + kern.sigma3(m3[:, 0], m3[:, 1], m3[:, 2])
                * kern.hv3(m3[:, 0], m3[:, 1], m3[:, 2]))
    nz3 = np.abs(v3) > 0
    worst3 = float(np.max(r3[nz3] / np.abs(v3[nz3])))

    qi = rng.integers(-500, 501, (10000, 3))
    m4 = np.column_stack([qi, -qi.sum(axis=1)]).astype(float)
    pair = np.stack([m4[:, 0] + m4[:, 1], m4[:, 0] + m4[:, 2], m4[:, 1] + m4[:, 2]])
    m4 = m4[(np.abs(pair) > 0).all(axis=0)]
    v4 = kern.m4(m4[:, 0], m4[:, 1], m4[:, 2], m4[:, 3])
    r4 = np.abs(v4 + kern.sigma4(m4[:, 0], m4[:, 1], m4[:, 2], m4[:, 3])
                * kern.hv4(m4[:, 0], m4[:, 1], m4[:, 2], m4[:, 3]))
    nz4 = np.abs(v4) > 0
    worst4 = float(np.max(r4[nz4] / np.abs(v4[nz4])))
    el = time.time() - t0
    ok = worst3 <= 1e-12 and worst4 <= 1e-12 and el < 10.0
    _report(2, "multiplier cancellation", ok,
            f"residuals {worst3:.2e}/{worst4:.2e}, {el:.1f}s")


def test_a03_solver_conservation():
    t0 = time.time()
    g = Grid(8 * np.pi, 512)
    rng = np.random.default_rng(103)
    u0 = SpectralField.random_real(
        g, rng, envelope=lambda a: (1.0 + a ** 2) ** -4.0)
    u0 = u0 * (1.0 / u0.l2_norm())
    cfg = SolverConfig(g, D1, dt=5e-4, t_end=1.0, monitor_stride=200)
    traj = simulate(u0, cfg)
    mean_drift = max(abs(m - traj.means[0]) for m in traj.means)
    l2_drift = max(abs(m / traj.l2_masses[0] - 1.0) for m in traj.l2_masses)
    el = time.time() - t0
    ok = mean_drift <= 1e-14 and l2_drift <= 1e-8 and el < 10.0
    _report(3, "mean and mass conservation", ok,
            f"drifts {mean_drift:.2e}/{l2_drift:.2e}, {el:.1f}s")


def test_a04_traveling_wave_oracle():
    from kawalab import petviashvili_wave

    t0 = time.time()
    g = Grid(32 * np.pi, 1024)
    c = -1.0
    phi, residual, _ = petviashvili_wave(c, D1, g)
    cfg = SolverConfig(g, D1, dt=5e-4, t_end=1.0, monitor_stride=10 ** 9)
    arrived = simulate(phi, cfg).fields[-1]
    translated = phi.coeffs * np.exp(-1j * g.xi * c)
    shape_err = float(np.sqrt(np.sum(np.abs(arrived.coeffs - translated) ** 2)
                              * g.dxi))
    el = time.time() - t0
    ok = residual < 1e-9 and shape_err < 1e-6 and el < 30.0
    _report(4, "solitary wave propagates at its speed", ok,
            f"residual {residual:.2e}, shape error {shape_err:.2e}, {el:.1f}s")


def test_a05_energy_derivative_identity():
    t0 = time.time()
    g = Grid(4 * np.pi, 256)
    mult = IMultiplier(16.0)
    rng = np.random.default_rng(1)
    u0 = SpectralField.random_real(g, rng, envelope=lambda a: (1 + a) ** -1.0,
                                   support=80)
    u0 = u0 * (2.5 / u0.l2_norm())
    pre = SolverConfig(g, D1, dt=min(2e-5, guarded_dt(g, D1, 0.5)), t_end=0.01,
                       monitor_stride=10 ** 9)
    u1 = simulate(u0, pre).fields[-1]
    stride = suggest_audit_stride(u1, safety=0.05)
    cfg = SolverConfig(g, D1, dt=stride, t_end=4 * stride, monitor_stride=1)
    traj = simulate(u1, cfg, t0=0.01)
    audit = energy_derivative_audit(traj, mult, D1)
    worst = max(r["resid3"] for r in audit["rows"])
    el = time.time() - t0
    ok = worst <= 1e-3 and el < 120.0
    _report(5, "d/dt E2 equals the cubic functional", ok,
            f"worst residual {worst:.2e} at N=16, n=256, {el:.1f}s")


def _profile_field(grid, a, w, alpha, beta, gamma, support_xi=48.0):
    xi = grid.xi
    env = a * np.exp(-(xi / w) ** 2) / (1.0 + np.abs(xi))
    phase = alpha * np.sin(beta * xi) + gamma * xi
    c = env * np.exp(1j * phase)
    c[np.abs(xi) > support_xi] = 0.0
    cc = np.zeros(grid.size, dtype=np.complex128)
    pos = grid.modes > 0
    cc[pos] = c[pos]
    cc[grid.index_of_mode(-grid.modes[pos])] = np.conj(c[pos])
    return SpectralField(grid, cc)


def test_a06_proximity_constant_stable():
    t0 = time.time()
    mult = IMultiplier(16.0)
    rng = np.random.default_rng(106)
    params = [(float(np.exp(rng.uniform(np.log(0.05), np.log(1.0)))),
               float(rng.uniform(8, 20)), float(rng.uniform(0, 3)),
               float(rng.uniform(0.5, 3)), float(rng.uniform(0, 2 * np.pi)))
              for _ in range(20)]
    fitted = {}
    for L, n in ((2 * np.pi, 256), (4 * np.pi, 512)):
        g = Grid(L, n)
        ratios = []
        for p in params:
            u = _profile_field(g, *p)
            rep = modified_energies(u, mult, D1)
            iu = apply_I(u, mult).l2_norm()
            ratios.append(abs(rep.e4 - rep.e2) / (iu ** 3 + iu ** 4))
        fitted[n] = max(ratios)
    drift = fitted[512] / fitted[256]
    el = time.time() - t0
    ok = 0.5 < drift < 2.0 and el < 600.0
    _report(6, "quartic-energy proximity constant stable across grids", ok,
            f"C = {fitted[256]:.3e} vs {fitted[512]:.3e} (x{drift:.2f}), {el:.0f}s")


def test_a07_almost_conservation_trend():
    t0 = time.time()
    g = Grid(2 * np.pi, 256)
    rng = np.random.default_rng(7)
    u0 = SpectralField.random_real(g, rng, envelope=lambda a: (1 + a) ** -3.0,
                                   support=80)
    u0 = u0 * (4.0 / u0.l2_norm())
    res = almost_conservation_sweep(u0, D1, [8.0, 16.0, 32.0, 64.0])
    el = time.time() - t0
    ok = res["monotone"] and res["slope"] <= -3.0 and el < 1200.0
    incs = "/".join(f"{r['increment']:.2e}" for r in res["rows"])
    _report(7, "unit-time quartic-energy increment decays in N", ok,
            f"increments {incs}, slope {res['slope']:.2f} "
            f"(envelope {res['envelope']}), {el:.0f}s")


def test_a08_gwp_bootstrap():
    t0 = time.time()
    eps0 = 0.1
    cfg = GwpConfig(threshold=64.0, eps0=eps0, steps=20)
    datum = bootstrap_datum(cfg, 512, 108, 1.25)
    result = gwp_experiment(cfg, datum, D1)
    el = time.time() - t0
    ok = result.all_passed and len(result.e2) == 21 and el < 1800.0
    _report(8, "bootstrap bound holds over 20 unit steps", ok,
            f"lam {result.lam:.5f}, E2 range [{min(result.e2):.4f}, "
            f"{max(result.e2):.4f}] < {4 * eps0 ** 2}, {el:.0f}s")


def test_a09_resonance_size():
    from kawalab.audits import resonance_size_audit

    t0 = time.time()
    small = resonance_size_audit(10 ** 6, seed=109)
    big = resonance_size_audit(10 ** 7, seed=109)
    zero = resonance_size_audit(10 ** 6, seed=109, mu=0.0)
    move_lo = abs(big.min_ratio / small.min_ratio - 1.0)
    move_hi = abs(big.max_ratio / small.max_ratio - 1.0)
    el = time.time() - t0
    ok = (move_lo < 0.1 and move_hi < 0.1
          and zero.min_ratio <= 1.875 <= zero.max_ratio
          and small.min_ratio > 0.0 and el < 60.0)
    _report(9, "resonance-size bracket", ok,
            f"[{small.min_ratio:.3f}, {small.max_ratio:.3f}], moves "
            f"{move_lo:.3%}/{move_hi:.3%}, {el:.0f}s")


def test_a10_linear_estimates():
    from kawalab.audits import linear_estimate_audit

    t0 = time.time()
    res = linear_estimate_audit(D1, list(range(4, 10)), trials=8, seed=110)
    slopes = res["slopes"]
    unit = res["ratios"]["LtinfLx2.0"]
    el = time.time() - t0
    gated = ["Lt6.0Lx6.0", "Lt8.0Lx4.0", "maximal_Lx4", "smoothing"]
    ok = (all(abs(slopes[k]) <= 0.15 for k in gated)
          and all(abs(v - 1.0) <= 1e-12 for v in unit.values())
          and el < 300.0)
    _report(10, "free-flow mixed-norm ratios flat in the shell index", ok,
            ", ".join(f"{k}: {slopes[k]:+.3f}" for k in gated) + f", {el:.0f}s")


def test_a11_knapp_sharpness():
    from kawalab.audits import KnappConfig, knapp_sharpness

    t0 = time.time()
    results = [knapp_sharpness(KnappConfig(2.0 ** e, 1.0, 16.0),
                               n_samples=1 << 20, seed=111)
               for e in (8, 10)]
    r8, r10 = results
    j_drift = r10["j_scaling"] / r8["j_scaling"]
    n_drift = r10["norm_product_scaling"] / r8["norm_product_scaling"]
    s_drift = r10["sharpness_ratio"] / r8["sharpness_ratio"]
    el = time.time() - t0
    ok = all(0.5 < v < 2.0 for v in (j_drift, n_drift, s_drift)) and el < 300.0
    _report(11, "extremal thin-box scalings stable across the shell sweep", ok,
            f"drifts J x{j_drift:.3f}, norms x{n_drift:.3f}, ratio x{s_drift:.3f}, "
            f"{el:.0f}s")


def test_a12_multiplier_bound_audits():
    from kawalab.audits import m5_bound_audit, sigma3_bound_audit, sigma4_bound_audit

    t0 = time.time()
    mult = IMultiplier(16.0)
    drifts = {}
    for name, fn in (("sigma3", sigma3_bound_audit),
                     ("sigma4", sigma4_bound_audit),
                     ("m5", m5_bound_audit)):
        lo = fn(mult, D1, 6, 10 ** 5, seed=112)
        hi = fn(mult, D1, 7, 10 ** 5, seed=112)
        drifts[name] = hi.max_ratio / lo.max_ratio
    el = time.time() - t0
    ok = all(0.5 < v < 2.0 for v in drifts.values()) and el < 900.0
    _report(12, "pointwise bound ratios stable under cap doubling", ok,
            ", ".join(f"{k} x{v:.3f}" for k, v in drifts.items()) + f", {el:.0f}s")


def test_a13_illposedness_exponent():
    from kawalab.illposed import IllposedConfig, growth_fit

    t0 = time.time()
    fit = growth_fit(IllposedConfig())
    el = time.time() - t0
    ok = fit["gap"] <= 0.3 and el < 1200.0
    _report(13, "third-iterate growth exponent", ok,
            f"slope {fit['slope']:.4f} vs {fit['expected']}, {el:.0f}s")


DETERMINISM_PRESETS = {
    "simulate": ["--n", "128", "--L", "6.283185307179586", "--dt", "0.0005",
                 "--t_end", "0.02"],
    "energy-track": ["--n", "64", "--L", "6.283185307179586", "--N", "8",
                     "--support", "18", "--amplitude", "1.5",
                     "--pre_time", "0.001"],
    "gwp": ["--steps", "1", "--n", "256", "--N", "16"],
    "verify-bounds": ["--samples", "4000", "--cap_lo", "5", "--cap_hi", "6"],
    "resonance": ["--samples", "50000", "--budget_factor", "2"],
    "knapp": ["--samples", "65536"],
    "strichartz": ["--k_lo", "4", "--k_hi", "5", "--trials", "2",
                   "--n", "2048", "--n_times", "256"],
    "xnorms": ["--n_times", "1024"],
    "duhamel": ["--n_times", "512"],
    "illposed": ["--n_exp_lo", "7", "--n_exp_hi", "10", "--quad_points", "24",
                 "--out_points", "32"],
    "identities": ["--tuples", "2000"],
}


def test_a14_determinism(tmp_path):
    from kawalab.cli import main

    t0 = time.time()
    failures = []
    for command, extra in DETERMINISM_PRESETS.items():
        outs = []
        for tag, workers in (("r1", "1"), ("r2", "1"), ("w4", "4")):
            out = tmp_path / f"{command}-{tag}"
            main(["--seed", "77", "--workers", workers, "--no-gate",
                  "--out", str(out), command] + extra)
            outs.append(str(out))
        for other in outs[1:]:
            comp = filecmp.dircmp(outs[0], other)
            if comp.left_only or comp.right_only:
                failures.append(f"{command}: file sets differ")
                continue
            _, mismatch, errors = filecmp.cmpfiles(
                outs[0], other, comp.common_files, shallow=False)
            if mismatch or errors:
                failures.append(f"{command}: {mismatch or errors}")
    el = time.time() - t0
    _report(14, "byte-identical artifacts across runs and worker counts",
            not failures, f"{len(DETERMINISM_PRESETS)} commands, "
            f"{failures or 'no diffs'}, {el:.0f}s")
