"""Per-layer metrics derived from a traced pass.

Names and units live in BENCHMARK.json; this module says how each value is
computed from the tracer's store (totals per wrapped function, hook sums
and maxima, per-layer self time, counter time per enclosing span).
"""

from workloads import LAB_COMMANDS

LAYERS = ("bench", "solver", "numpy.fft", "grid", "dispersion", "dyadic", "imultiplier",
          "multipliers", "summation", "imethod", "illposed", "audits", "spacetime",
          "cli", "io", "pool")

# "pool" is the parent waiting on its workers, whose own work is counted in
# the layers they ran; shares leave it out so busy time is not counted twice
BUSY_LAYERS = tuple(layer for layer in LAYERS if layer != "pool")

# count metrics that must repeat exactly between two traced passes
COUNT_METRICS = ("solver.steps", "fft.calls", "multipliers.sigma3.calls",
                 "multipliers.sigma4.calls", "multipliers.sigma4.points",
                 "grid.SpectralField.constructions", "illposed.iterate_A.calls")

SIGMA3 = "multipliers.EnergyMultipliers.sigma3"
SIGMA4 = "multipliers.EnergyMultipliers.sigma4"
FIELD = "grid.SpectralField.__post_init__"


def _total(name, index):
    return lambda s: s.totals.get(name, (0, 0, 0.0, 0.0))[index]


def calls(name):
    return _total(name, 0)


def points(name):
    return _total(name, 1)


def secs(name):
    return _total(name, 2)


def self_secs(name):
    return _total(name, 3)


def summed(name):
    return lambda s: s.sums.get(name, 0.0)


def peak(name):
    return lambda s: s.maxes.get(name, 0.0)


def under(span, counter):
    return lambda s: s.under.get(f"{span}|{counter}", 0.0)


def ratio(num, den, scale=1.0):
    def value(s):
        d = den(s)
        return scale * num(s) / d if d else 0.0
    return value


def layer_self(layer):
    return lambda s: s.layer_self.get(layer, 0.0)


def busy(s):
    return sum(s.layer_self.get(layer, 0.0) for layer in BUSY_LAYERS)


PER_LAYER = {
    "solver.steps": summed("solver.steps"),
    "solver.samples": summed("solver.samples"),
    **{f"solver.step_us.n{n}": ratio(summed(f"solver.simulate_s.n{n}"),
                                     summed(f"solver.steps.n{n}"), 1e6)
       for n in (256, 512, 1024, 4096)},
    "solver.fft_share": ratio(under("solver.simulate", "fft"), secs("solver.simulate")),
    "solver.petviashvili_wave.s": secs("solver.petviashvili_wave"),
    "solver.hermitian_defect_max": peak("solver.hermitian_defect_max"),
    "solver.mass_drift_max": peak("solver.mass_drift_max"),
    "solver.mean_drift_max": peak("solver.mean_drift_max"),
    "fft.calls": calls("fft"),
    "fft.points": points("fft"),
    "fft.s": secs("fft"),
    # complex128 in and out: 16 B x points x 2 per transform
    "fft.bytes_computed": lambda s: 32 * points("fft")(s),
    "grid.SpectralField.constructions": calls(FIELD),
    "grid.SpectralField.s": secs(FIELD),
    # one complex128 copy of the coefficients per construction
    "grid.bytes_copied_computed": lambda s: 16 * points(FIELD)(s),
    "multipliers.sigma3.calls": calls(SIGMA3),
    "multipliers.sigma3.points": points(SIGMA3),
    "multipliers.sigma3.s": secs(SIGMA3),
    "multipliers.sigma4.calls": calls(SIGMA4),
    "multipliers.sigma4.points": points(SIGMA4),
    "multipliers.sigma4.s": secs(SIGMA4),
    "multipliers.m5.calls": calls("multipliers.EnergyMultipliers.m5"),
    "multipliers.m5.s": secs("multipliers.EnergyMultipliers.m5"),
    # sigma4 inside lambda4_sigma4 is the singular-set limit of modified_energies
    "multipliers.limit_share": ratio(under("imethod.lambda4_sigma4", SIGMA4),
                                     secs("imethod.modified_energies")),
    "imethod.modified_energies_s.S16": summed("imethod.modified_energies_s.S16"),
    "imethod.modified_energies_s.S32": summed("imethod.modified_energies_s.S32"),
    "imethod.lambda4_sigma4.self_s": self_secs("imethod.lambda4_sigma4"),
    "imethod.lambda5_m5_s.S16": summed("imethod.lambda5_m5_s.S16"),
    "imethod.lambda3_kernel.s": secs("imethod.lambda3_kernel"),
    "imethod.energy_derivative_audit.s": secs("imethod.energy_derivative_audit"),
    "imethod.tuples_per_s": ratio(summed("imethod.tuples"), summed("imethod.quartic_s")),
    "imultiplier.m2.calls": calls("imultiplier.IMultiplier.m2"),
    "imultiplier.m2.points": points("imultiplier.IMultiplier.m2"),
    "imultiplier.m2.s": secs("imultiplier.IMultiplier.m2"),
    "summation.ordered_sum.calls": calls("summation.ordered_sum"),
    "summation.ordered_sum.s": secs("summation.ordered_sum"),
    "dispersion.omega.calls": calls("dispersion.omega"),
    "dispersion.omega.points": points("dispersion.omega"),
    "dispersion.omega.s": secs("dispersion.omega"),
    "dispersion.resonance.calls": calls("dispersion.resonance"),
    "dispersion.resonance.s": secs("dispersion.resonance"),
    "illposed.iterate_A.calls": calls("illposed.iterate_A"),
    "illposed.iterate_A.order3_s": summed("illposed.iterate_A.order3_s"),
    "illposed.quadrature_change_max": peak("illposed.quadrature_change_max"),
    "illposed.growth_gap": peak("illposed.growth_gap"),
    **{f"audits.{name}.s": secs(f"audits.{name}")
       for name in ("resonance_size_audit", "linear_estimate_audit", "sigma3_bound_audit",
                    "sigma4_bound_audit", "m5_bound_audit", "knapp_sharpness")},
    "audits.samples_per_s": ratio(summed("audits.samples"), summed("audits.sampled_s")),
    "spacetime.free_trajectory.s": secs("spacetime.free_trajectory"),
    "spacetime.from_samples.s": secs("spacetime.SpaceTimeField.from_samples"),
    "spacetime.fbar_norm.s": secs("spacetime.fbar_norm"),
    "spacetime.duhamel_bilinear.s": secs("spacetime.duhamel_bilinear"),
    **{f"cli.{command}.s": secs(f"cli.{command}") for command, _, _ in LAB_COMMANDS},
    "cli.self_s": layer_self("cli"),
    "io.calls": calls("io.atomic_write_text"),
    "io.bytes": points("io.atomic_write_text"),
    "io.s": layer_self("io"),
    **{f"layer.{layer}.self_s": layer_self(layer) for layer in LAYERS},
    **{f"layer.{layer}.share": ratio(layer_self(layer), busy) for layer in BUSY_LAYERS},
}

# filled from the pass timings, not from the store
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.overhead_frac")


def per_layer(store, untraced_wall, traced_wall):
    values = {name: float(fn(store)) for name, fn in PER_LAYER.items()}
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return values
