"""Job lists of the three benchmark workloads, with their seeded inputs and
correctness checks.

Every job is one call (or a short fixed chain of calls) into a public
kawalab entry point. Inputs are generated here, never inside the library.
The workload seed picks a spatial translation for every datum and the
``--seed`` value of every CLI command but verify-bounds (see LAB_COMMANDS);
the magnitudes of the data are fixed by the acceptance suite's own seeds. Translation is an exact symmetry of
the dealiased Galerkin dynamics and of every energy functional, so a new
seed gives new inputs, the same amount of work, and the same reference
values (up to rounding, which the stated relative tolerances absorb).
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass
class Job:
    """One closed-loop request: ``run()`` returns a result, ``check`` turns
    it into ``(problems, values)``; ``values`` are compared with the
    references recorded at the commit that defined the benchmark."""

    name: str
    run: object
    check: object
    rtol: dict = field(default_factory=dict)


def _rng(seed, stream):
    return np.random.default_rng([20091030, int(seed), stream])


def _translate(u, shift):
    """``u(x) -> u(x - shift)``: a unit phase per mode, exactly conjugate on
    mirrored modes, so Hermitian symmetry is kept bit for bit."""
    c = u.coeffs * np.exp(-1j * u.grid.xi * shift)
    c[u.grid.nyquist_index] = 0.0
    return u.with_coeffs(c)


def _gate(problems, ok, message):
    if not ok:
        problems.append(message)


# -- evolve: solver-bound trajectories --------------------------------------


def evolve_jobs(lab, seed):
    kw = lab.kawalab
    D1 = kw.DispersionParams(1.0)
    rng = _rng(seed, 1)
    jobs = []

    # the a08 bootstrap recipe, one unit step at the library-chosen dt; the
    # threshold is N=24 (478 RK4 steps) rather than a08's N=64 (64 427
    # steps, 20-25 s), so the job repeats many times within one run
    n, N, eps0 = 512, 24.0, 0.1
    lam_target = 1.0 / N
    dxi_stretched = 1.5 * N / lab.solver.dealias_cutoff_index(kw.Grid(2 * np.pi, n))
    grid8 = kw.Grid(lam_target * 2.0 * np.pi / dxi_stretched, n)
    datum = kw.SpectralField.random_real(
        grid8, np.random.default_rng(108),
        envelope=lambda a: (1.0 + a ** 2) ** 0.625,
        support=lab.solver.dealias_cutoff_index(grid8) - 2)
    datum = _translate(datum, rng.uniform(0.0, grid8.length))
    mult8 = kw.IMultiplier(N)
    probe = kw.apply_I(kw.rescale_datum(datum, lam_target), mult8).l2_norm()
    datum = datum * (eps0 / probe)
    gwp_cfg = lab.imethod.GwpConfig(threshold=N, eps0=eps0, steps=1)

    def a08():
        return kw.gwp_experiment(gwp_cfg, datum, D1)

    def a08_check(res):
        problems = []
        _gate(problems, len(res.e2) == 2, "a08: expected two E2 records")
        _gate(problems, max(res.e2) < 4.0 * eps0 ** 2,
              f"a08: E2 {max(res.e2):.4f} >= 4 eps0^2")
        return problems, {"lam": res.lam, "e2_final": res.e2[-1],
                          "growth_final": res.growth_norm[-1]}

    jobs.append(Job("bootstrap_step_N24", a08, a08_check,
                    {"lam": 1e-9, "e2_final": 1e-9, "growth_final": 1e-9}))

    # a04 solitary wave at n=1024, checked against the exact translation,
    # over a tenth of a04's unit time, and a03-style random data at two sizes
    # (the box grows with n, so the spectral extent and the stable dt stay
    # the a03 ones). Short jobs repeat many times within one run.
    grid4 = kw.Grid(32 * np.pi, 1024)
    center = grid4.length / 2.0 + rng.uniform(-0.25, 0.25) * grid4.length
    speed = -1.0
    sc4 = kw.SolverConfig(grid4, D1, dt=5e-4, t_end=0.1, monitor_stride=10 ** 9)

    def a04():
        phi, residual, _ = kw.petviashvili_wave(speed, D1, grid4, center=center)
        return phi, residual, kw.simulate(phi, sc4).fields[-1]

    def a04_check(res):
        phi, residual, arrived = res
        translated = phi.coeffs * np.exp(-1j * grid4.xi * speed * sc4.t_end)
        shape_err = float(np.sqrt(np.sum(np.abs(arrived.coeffs - translated) ** 2)
                                  * grid4.dxi))
        problems = []
        _gate(problems, residual < 1e-9, f"a04: profile residual {residual:.2e}")
        _gate(problems, shape_err <= 1e-6, f"a04: shape error {shape_err:.2e}")
        return problems, {"wave_l2": phi.l2_norm(), "arrived_l2": arrived.l2_norm()}

    jobs.append(Job("a04_solitary_wave", a04, a04_check,
                    {"wave_l2": 1e-9, "arrived_l2": 1e-9}))

    for n3, t_end in ((256, 0.5), (4096, 0.1)):
        grid3 = kw.Grid(n3 * np.pi / 64.0, n3)
        u0 = kw.SpectralField.random_real(
            grid3, np.random.default_rng(103), envelope=lambda a: (1.0 + a ** 2) ** -4.0)
        u0 = _translate(u0 * (1.0 / u0.l2_norm()), rng.uniform(0.0, grid3.length))
        sc3 = kw.SolverConfig(grid3, D1, dt=5e-4, t_end=t_end,
                              monitor_stride=int(round(t_end / 5e-4)) // 10)

        def a03(u0=u0, sc3=sc3):
            return kw.simulate(u0, sc3)

        def a03_check(traj, n3=n3):
            mean_drift = max(abs(m - traj.means[0]) for m in traj.means)
            mass_drift = max(abs(m / traj.l2_masses[0] - 1.0) for m in traj.l2_masses)
            problems = []
            _gate(problems, mean_drift <= 1e-14, f"a03 n={n3}: mean drift {mean_drift:.2e}")
            _gate(problems, mass_drift <= 1e-8, f"a03 n={n3}: mass drift {mass_drift:.2e}")
            return problems, {"mass_final": traj.l2_masses[-1],
                              "samples": float(len(traj))}

        jobs.append(Job(f"a03_n{n3}", a03, a03_check,
                        {"mass_final": 1e-9, "samples": 0.0}))
    return jobs


# -- energies: the I-method layer -------------------------------------------


def _support_field(kw, grid, half, base_seed, shift):
    """Real field on modes ``1 <= |m| <= half`` (support size ``2*half``),
    magnitudes from ``base_seed``, translated by ``shift``."""
    rng = np.random.default_rng(base_seed)
    m = np.arange(1, half + 1)
    amp = (rng.standard_normal(half) + 1j * rng.standard_normal(half)) / (1.0 + m * grid.dxi)
    c = np.zeros(grid.size, dtype=np.complex128)
    c[m] = amp
    c[grid.size - m] = np.conj(amp)
    u = kw.SpectralField(grid, c)
    return _translate(u * (0.5 / u.l2_norm()), shift)


def _energy_values(rep):
    return {"e2": rep.e2, "e3": rep.e3, "e4": rep.e4,
            "corr3": rep.corr3, "corr4": rep.corr4}


ENERGY_RTOL = {"e2": 1e-12, "e3": 1e-12, "e4": 1e-12, "corr3": 1e-6, "corr4": 1e-6}


def energies_jobs(lab, seed):
    kw = lab.kawalab
    D1 = kw.DispersionParams(1.0)
    mult = kw.IMultiplier(16.0)
    rng = _rng(seed, 2)
    jobs = []

    # supports of 16 and 32 modes reaching |xi| = 32, twice the threshold
    # (the a06 size S=192 takes 5-7 s a call, too long to repeat many times
    # within one run)
    fields = {
        16: _support_field(kw, kw.Grid(np.pi / 2, 32), 8, 116,
                           rng.uniform(0.0, np.pi / 2)),
        32: _support_field(kw, kw.Grid(np.pi, 64), 16, 132,
                           rng.uniform(0.0, np.pi)),
    }

    def energy_check(rep):
        problems = []
        vals = _energy_values(rep)
        _gate(problems, all(np.isfinite(v) for v in vals.values()),
              "modified energies: non-finite value")
        return problems, vals

    for size, u in fields.items():
        jobs.append(Job(f"modified_energies_S{size}",
                        lambda u=u: kw.modified_energies(u, mult, D1),
                        energy_check, ENERGY_RTOL))

    u16 = fields[16]
    cutoff = lab.solver.dealias_cutoff_index(u16.grid) * u16.grid.dxi
    kern = lab.multipliers.EnergyMultipliers(mult, D1, band_cutoff=cutoff)

    def l5_check(val):
        problems = []
        _gate(problems, np.isfinite(val.real), "lambda5_m5: non-finite value")
        return problems, {"lambda5_real": val.real}

    jobs.append(Job("lambda5_m5_S16", lambda: lab.imethod.lambda5_m5(u16, kern),
                    l5_check, {"lambda5_real": 1e-6}))

    # a05: dense-sample trajectory (monitor_stride=1) on an eighth of the a05
    # grid (n=32, L=pi, support 10 reaching |xi| = 20 past the threshold
    # N=16; the flow spreads it to S=21); two audit steps give three
    # samples, the fewest a centered difference needs
    g5 = kw.Grid(np.pi, 32)
    u5 = kw.SpectralField.random_real(g5, np.random.default_rng(1),
                                      envelope=lambda a: (1 + a) ** -1.0, support=10)
    u5 = _translate(u5 * (2.5 / u5.l2_norm()), rng.uniform(0.0, g5.length))
    wmax = float(np.max(np.abs(D1.mu * g5.xi ** 3 - g5.xi ** 5)))
    pre = kw.SolverConfig(g5, D1, dt=min(2e-5, 0.5e6 / wmax), t_end=0.01,
                          monitor_stride=10 ** 9)

    def a05():
        u1 = kw.simulate(u5, pre).fields[-1]
        stride = lab.imethod.suggest_audit_stride(u1, safety=0.05)
        sc = kw.SolverConfig(g5, D1, dt=stride, t_end=2 * stride, monitor_stride=1)
        traj = kw.simulate(u1, sc, t0=0.01)
        return kw.energy_derivative_audit(traj, mult, D1, include_quintic=False)

    def a05_check(audit):
        worst = max(r["resid3"] for r in audit["rows"])
        row = audit["rows"][0]
        problems = []
        _gate(problems, worst <= 1e-3, f"a05: derivative residual {worst:.2e}")
        return problems, {"e2": row["e2"], "e4": row["e4"]}

    jobs.append(Job("energy_derivative_audit_a05", a05, a05_check,
                    {"e2": 1e-12, "e4": 1e-12}))
    return jobs


# -- lab: the non-solver CLI commands, in process ------------------------------

# about the determinism-preset sizes of the acceptance suite (a14), so
# every command repeats many times within one run. illposed keeps its five
# band frequencies with 16-node quadratures; xnorms keeps the preset's 1024
# time samples (512 alias the shell's modulation and fail its gate for some
# seeds) on a quarter of the grid at twice the spacing; duhamel stays at its
# defaults because at the preset (--n_times 512) its quadrature gate fails
# (change 0.0089 > 0.005). verify-bounds runs at a12's seed 112 with a
# fifth of its samples: its m5 cap-stability gate fails for about one seed
# in ten (README, observed defects), so a derived seed would fail whole
# runs at random.
LAB_COMMANDS = [
    ("illposed", ["--quad_points", "16", "--out_points", "16"], None),
    ("resonance", ["--samples", "20000", "--budget_factor", "2"], None),
    ("verify-bounds", ["--samples", "20000"], 112),
    ("knapp", ["--samples", "65536"], None),
    ("strichartz", ["--k_lo", "4", "--k_hi", "5", "--trials", "2", "--n", "2048",
                    "--n_times", "256"], None),
    ("xnorms", ["--n_times", "1024", "--n", "64", "--L", repr(4 * np.pi)], None),
    ("duhamel", [], None),
    ("identities", ["--tuples", "2000"], None),
]

# seed-independent outputs (these commands take no randomness)
LAB_VALUES = {
    "illposed": ("illposed_fit.json", {"slope": 1e-9}),
    "duhamel": ("duhamel.json", {"quadrature_change": 1e-9,
                                 "closed_form_relative_error": 1e-6}),
}


def lab_jobs(lab, seed, out_root, workers):
    rng = _rng(seed, 3)
    jobs = []
    for command, extra, fixed_seed in LAB_COMMANDS:
        cli_seed = int(rng.integers(1, 2 ** 31))
        if fixed_seed is not None:
            cli_seed = fixed_seed
        out = os.path.join(out_root, command)
        argv = ["--seed", str(cli_seed), "--workers", str(workers), "--out", out,
                command] + extra

        def run(argv=argv):
            return lab.cli.main(argv)

        def check(rc, command=command, out=out):
            problems = []
            gates = {}
            values = {}
            for name in sorted(os.listdir(out)):
                if name.endswith(".json") and name != "failures.json":
                    with open(os.path.join(out, name)) as fh:
                        payload = json.load(fh)
                    gates.update(payload.get("gates", {}))
                    if command in LAB_VALUES and name == LAB_VALUES[command][0]:
                        values = {k: float(payload[k]) for k in LAB_VALUES[command][1]}
            _gate(problems, rc == 0, f"{command}: exit code {rc}")
            _gate(problems, bool(gates), f"{command}: no gates reported")
            failed = sorted(k for k, ok in gates.items() if not ok)
            _gate(problems, not failed, f"{command}: failed gates {failed}")
            return problems, values

        rtol = LAB_VALUES.get(command, (None, {}))[1]
        jobs.append(Job(f"cli_{command}", run, check, rtol))
    return jobs


WORKLOADS = {
    "evolve": (evolve_jobs, "a03_n256"),
    "energies": (energies_jobs, "modified_energies_S16"),
    "lab": (lab_jobs, "cli_identities"),
}


def build(workload, lab, seed, out_root, workers):
    """Jobs of ``workload`` plus the name of its warm-up job (a short one)."""
    make, warm = WORKLOADS[workload]
    jobs = make(lab, seed, out_root, workers) if workload == "lab" else make(lab, seed)
    return jobs, warm


def load_references():
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)


def compare(references, workload, job, values):
    """Problems from comparing ``values`` with the recorded references."""
    problems = []
    recorded = references.get(workload, {}).get(job.name)
    if recorded is None:
        return [f"{job.name}: no reference recorded"]
    for key, ref in recorded.items():
        got = values.get(key)
        if got is None:
            problems.append(f"{job.name}: value {key} missing")
            continue
        tol = job.rtol.get(key, 0.0) * max(abs(ref), 1e-300)
        if not abs(got - ref) <= tol:
            problems.append(f"{job.name}: {key} = {got!r} differs from reference "
                            f"{ref!r} by more than rtol {job.rtol.get(key, 0.0)}")
    return problems
