"""Spans and counters around kawalab's public functions.

The tracer is installed from the benchmark process: it wraps functions
and methods and rebinds every name that refers to them, in the defining
module and in every kawalab module that imported them by name. The
library itself carries no tracing.

Coarse calls (one per job stage) become spans with name, layer, start,
end, parent and job id. Calls that fire per step, per tuple or per sample
become counters (calls, points, accumulated seconds). Both kinds take part
in the self-time bookkeeping, so each layer's self time is its calls'
durations minus the time their wrapped callees took.

Pool workers forked by the CLI inherit the wrappers; a worker writes what
it recorded to a file when its outermost traced call returns, and the
parent merges those files after the job.
"""

import functools
import glob
import json
import os
import time
from collections import defaultdict

clock = time.perf_counter

SPAN, COUNTER = "span", "counter"


def _size(args, kwargs, result):
    return int(getattr(result, "size", 1))


def _field_size(args, kwargs, result):
    return int(args[0].grid.size)


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _support_size(u):
    return int(u.support_indices().size)


# -- hooks: numbers read from arguments and returned values ------------------


def _after_simulate(tr, args, kwargs, result, dt):
    config = _arg(args, kwargs, 1, "config")
    n = config.grid.size
    steps = max(1, int(round(config.t_end / config.dt)))
    tr.add("solver.steps", steps)
    tr.add(f"solver.steps.n{n}", steps)
    tr.add(f"solver.simulate_s.n{n}", dt)
    tr.add("solver.samples", len(result))
    tr.vmax("solver.hermitian_defect_max", max(f.hermitian_defect() for f in result.fields))
    mean0, mass0 = result.means[0], result.l2_masses[0]
    tr.vmax("solver.mean_drift_max", max(abs(m - mean0) for m in result.means))
    if mass0 > 0.0:
        tr.vmax("solver.mass_drift_max", max(abs(m / mass0 - 1.0) for m in result.l2_masses))


def _after_quartic(label):
    def hook(tr, args, kwargs, result, dt):
        size = _support_size(args[0])
        tr.add("imethod.tuples", float(size) ** 3)
        tr.add("imethod.quartic_s", dt)
        if label:
            tr.add(f"imethod.{label}_s.S{size}", dt)
    return hook


def _after_modified_energies(tr, args, kwargs, result, dt):
    tr.add(f"imethod.modified_energies_s.S{_support_size(args[0])}", dt)


def _after_iterate(tr, args, kwargs, result, dt):
    if _arg(args, kwargs, 2, "order") == 3:
        tr.add("illposed.iterate_A.order3_s", dt)


def _after_sweep(tr, args, kwargs, result, dt):
    tr.vmax("illposed.quadrature_change_max",
            max(row["quadrature_change"] for row in result))


def _after_growth_fit(tr, args, kwargs, result, dt):
    tr.vmax("illposed.growth_gap", result["gap"])


def _after_sampling(tr, args, kwargs, result, dt):
    samples = result["samples"] if isinstance(result, dict) else result.samples_evaluated
    tr.add("audits.samples", samples)
    tr.add("audits.sampled_s", dt)


# (module, attribute, layer, kind, points, hook); "Class.method" patches the
# class, so calls through instances and ``self`` are seen too. Helpers that
# only run inside a wrapped call of the same layer (IMultiplier.m under m2,
# m3/hv3/m4/hv4 under sigma3/sigma4) stay unwrapped to keep the overhead down.
TARGETS = [
    ("kawalab.solver", "simulate", "solver", SPAN, None, _after_simulate),
    ("kawalab.solver", "petviashvili_wave", "solver", SPAN, None, None),
    ("kawalab.solver", "step", "solver", SPAN, None, None),
    ("kawalab.solver", "nonlinear_rhs", "solver", COUNTER, None, None),
    ("kawalab.solver", "trajectory_to_rows", "solver", SPAN, None, None),
    ("kawalab.grid", "SpectralField.__post_init__", "grid", COUNTER, _field_size, None),
    ("kawalab.grid", "sobolev_norm", "grid", COUNTER, None, None),
    ("kawalab.grid", "homogeneous_seminorm", "grid", COUNTER, None, None),
    ("kawalab.grid", "rescale_datum", "grid", COUNTER, None, None),
    ("kawalab.grid", "apply_multiplier", "grid", COUNTER, None, None),
    ("kawalab.grid", "save_field", "grid", SPAN, None, None),
    ("kawalab.grid", "load_field", "grid", SPAN, None, None),
    ("kawalab.dispersion", "omega", "dispersion", COUNTER, _size, None),
    ("kawalab.dispersion", "resonance", "dispersion", COUNTER, _size, None),
    ("kawalab.dispersion", "free_evolve", "dispersion", COUNTER, None, None),
    ("kawalab.dispersion", "dispersive_order_audit", "dispersion", COUNTER, None, None),
    ("kawalab.dyadic", "eta0", "dyadic", COUNTER, _size, None),
    ("kawalab.dyadic", "eta_k", "dyadic", COUNTER, _size, None),
    ("kawalab.dyadic", "project_dyadic", "dyadic", COUNTER, None, None),
    ("kawalab.dyadic", "project_low", "dyadic", COUNTER, None, None),
    ("kawalab.imultiplier", "IMultiplier.m2", "imultiplier", COUNTER, _size, None),
    ("kawalab.imultiplier", "apply_I", "imultiplier", COUNTER, None, None),
    ("kawalab.multipliers", "EnergyMultipliers.sigma3", "multipliers", COUNTER, _size, None),
    ("kawalab.multipliers", "EnergyMultipliers.sigma4", "multipliers", COUNTER, _size, None),
    ("kawalab.multipliers", "EnergyMultipliers.m5", "multipliers", COUNTER, _size, None),
    ("kawalab.multipliers", "h_v_eval", "multipliers", COUNTER, None, None),
    ("kawalab.multipliers", "power_sum_identity_check", "multipliers", COUNTER, None, None),
    ("kawalab.summation", "ordered_sum", "summation", COUNTER, None, None),
    ("kawalab.summation", "fsum_complex", "summation", COUNTER, None, None),
    ("kawalab.imethod", "lambda_k", "imethod", SPAN, None, None),
    ("kawalab.imethod", "lambda3_kernel", "imethod", SPAN, None, None),
    ("kawalab.imethod", "lambda4_sigma4", "imethod", SPAN, None, _after_quartic(None)),
    ("kawalab.imethod", "lambda5_m5", "imethod", SPAN, None, _after_quartic("lambda5_m5")),
    ("kawalab.imethod", "modified_energies", "imethod", SPAN, None, _after_modified_energies),
    ("kawalab.imethod", "energy_derivative_audit", "imethod", SPAN, None, None),
    ("kawalab.imethod", "suggest_audit_stride", "imethod", COUNTER, None, None),
    ("kawalab.imethod", "almost_conservation_sweep", "imethod", SPAN, None, None),
    ("kawalab.imethod", "gwp_experiment", "imethod", SPAN, None, None),
    ("kawalab.illposed", "theta_eval", "illposed", COUNTER, _size, None),
    ("kawalab.illposed", "theta_direct", "illposed", COUNTER, _size, None),
    ("kawalab.illposed", "theta_identity_gap", "illposed", COUNTER, None, None),
    ("kawalab.illposed", "build_datum", "illposed", COUNTER, None, None),
    ("kawalab.illposed", "iterate_A", "illposed", SPAN, None, _after_iterate),
    ("kawalab.illposed", "illposed_sweep", "illposed", SPAN, None, _after_sweep),
    ("kawalab.illposed", "growth_fit", "illposed", SPAN, None, _after_growth_fit),
    ("kawalab.audits", "resonance_size_audit", "audits", SPAN, None, _after_sampling),
    ("kawalab.audits", "j_functional", "audits", SPAN, None, None),
    ("kawalab.audits", "knapp_sharpness", "audits", SPAN, None, _after_sampling),
    ("kawalab.audits", "linear_estimate_audit", "audits", SPAN, None, None),
    ("kawalab.audits", "sigma3_extension", "audits", COUNTER, _size, None),
    ("kawalab.audits", "sigma3_bound_audit", "audits", SPAN, None, _after_sampling),
    ("kawalab.audits", "sigma4_bound_audit", "audits", SPAN, None, _after_sampling),
    ("kawalab.audits", "m5_bound_audit", "audits", SPAN, None, _after_sampling),
    ("kawalab.spacetime", "uniform_times", "spacetime", COUNTER, None, None),
    ("kawalab.spacetime", "free_trajectory", "spacetime", SPAN, None, None),
    ("kawalab.spacetime", "SpaceTimeField.from_samples", "spacetime", SPAN, None, None),
    ("kawalab.spacetime", "xsb_norm", "spacetime", SPAN, None, None),
    ("kawalab.spacetime", "xk_norm", "spacetime", SPAN, None, None),
    ("kawalab.spacetime", "low_frequency_norm", "spacetime", SPAN, None, None),
    ("kawalab.spacetime", "fbar_norm", "spacetime", SPAN, None, None),
    ("kawalab.spacetime", "duhamel_bilinear", "spacetime", SPAN, None, None),
    ("kawalab.cli", "main", "cli", SPAN, None, None),
    ("kawalab.cli", "run", "cli", SPAN, None, None),
    ("kawalab.cli", "parse_config", "cli", SPAN, None, None),
    ("kawalab.cli", "_bounds_unit", "cli", SPAN, None, None),
    ("kawalab.cli", "_strichartz_unit", "cli", SPAN, None, None),
    ("kawalab.cli", "_illposed_unit", "cli", SPAN, None, None),
    # time the parent spends waiting on its process pool
    ("kawalab.cli", "_parallel_map", "pool", SPAN, None, None),
    ("kawalab.io", "atomic_write_text", "io", COUNTER, _text_bytes, None),
    ("kawalab.io", "write_json", "io", COUNTER, None, None),
    ("kawalab.io", "write_csv", "io", COUNTER, None, None),
    ("kawalab.io", "write_manifest", "io", COUNTER, None, None),
]

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn",
             "rfftn", "irfftn", "hfft", "ihfft")


class Tracer:
    """Per-process span and counter store; see the module docstring."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.worker = False
        self.remote_parent = None
        self.active = False
        self.job = None
        self._dumps = 0
        self._patches = []
        self._clear()

    def _clear(self):
        # frame: [child seconds, span index or None, enclosing span name,
        #         enclosing span id]
        self.stack = []
        self.spans = []
        self.totals = {}  # name -> [calls, points, seconds, self seconds]
        self.layer_self = defaultdict(float)
        self.under = defaultdict(float)  # "span|counter" -> counter seconds
        self.sums = defaultdict(float)
        self.maxes = {}

    # -- recording -------------------------------------------------------

    def add(self, name, value):
        self.sums[name] += value

    def vmax(self, name, value):
        self.maxes[name] = max(self.maxes.get(name, value), value)

    def _become_worker(self):
        parent = self.stack[-1][3] if self.stack else None
        self._clear()
        self.pid = os.getpid()
        self.worker = True
        self.remote_parent = parent

    def _enter(self, name, layer, kind, t0):
        stack = self.stack
        top = stack[-1] if stack else None
        enclosing_name = top[2] if top else None
        enclosing_id = top[3] if top else self.remote_parent
        if kind is SPAN:
            span_id = f"{self.pid}:{len(self.spans)}"
            self.spans.append({"id": span_id, "name": name, "layer": layer,
                               "job": self.job, "parent": enclosing_id,
                               "start": t0, "end": None, "self": None})
            frame = [0.0, len(self.spans) - 1, name, span_id]
        else:
            frame = [0.0, None, enclosing_name, enclosing_id]
        stack.append(frame)
        return frame

    def _exit(self, frame, name, layer, t0, dt, points):
        self.stack.pop()
        self_s = dt - frame[0]
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += points
        tot[2] += dt
        tot[3] += self_s
        self.layer_self[layer] += self_s
        if self.stack:
            self.stack[-1][0] += dt
        if frame[1] is not None:
            rec = self.spans[frame[1]]
            rec["end"] = t0 + dt
            rec["self"] = self_s
        else:
            self.under[f"{frame[2]}|{name}"] += dt

    def _hidden(self, seconds):
        """Keep hook time out of the enclosing frame's self time."""
        if self.stack:
            self.stack[-1][0] += seconds

    def wrap(self, fn, name, layer, kind, points=None, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                tracer._become_worker()
            t0 = clock()
            frame = tracer._enter(name, layer, kind, t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, name, layer, t0, clock() - t0, 0)
                raise
            dt = clock() - t0
            h0 = clock()
            count = points(args, kwargs, result) if points is not None else 0
            tracer._exit(frame, name, layer, t0, dt, count)
            if hook is not None:
                hook(tracer, args, kwargs, result, dt)
            tracer._hidden(clock() - h0)
            if tracer.worker and not tracer.stack:
                tracer._dump()
            return result

        return traced

    # -- jobs and worker files ------------------------------------------------

    def begin_job(self, job_id, name):
        self.job = job_id
        self._job = (f"job.{name}", clock())
        self._job_frame = self._enter(self._job[0], "bench", SPAN, self._job[1])

    def end_job(self):
        self.merge_workers()
        name, t0 = self._job
        self._exit(self._job_frame, name, "bench", t0, clock() - t0, 0)
        self.job = None

    def _dump(self):
        self._dumps += 1
        path = os.path.join(self.out_dir, f"worker-{self.pid}-{self._dumps}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(path + ".tmp", path)

    def merge_workers(self):
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.json"))):
            with open(path) as fh:
                part = json.load(fh)
            os.unlink(path)
            self.absorb(part)

    def absorb(self, part):
        """Add a :meth:`snapshot` (from this or another process) to the store."""
        self.spans.extend(part["spans"])
        for name, (calls, points, secs, self_s) in part["totals"].items():
            tot = self.totals.setdefault(name, [0, 0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += points
            tot[2] += secs
            tot[3] += self_s
        for layer, secs in part["layer_self"].items():
            self.layer_self[layer] += secs
        for key, secs in part["under"].items():
            self.under[key] += secs
        for key, value in part["sums"].items():
            self.sums[key] += value
        for key, value in part["maxes"].items():
            self.vmax(key, value)

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapped, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self, modules):
        """Wrap every target; ``modules`` maps module names to the imported
        kawalab modules and ``numpy.fft``."""
        kawalab_modules = [m for name, m in modules.items() if name.startswith("kawalab")]
        for module_name, attr, layer, kind, points, hook in TARGETS:
            module = modules[module_name]
            short = module_name.split(".")[-1]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self.wrap(fn, f"{short}.{attr}", layer, kind, points, hook)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)
            else:
                fn = getattr(module, attr)
                wrapped = self.wrap(fn, f"{short}.{attr}", layer, kind, points, hook)
                self._rebind(fn, wrapped, kawalab_modules)
        cli = modules["kawalab.cli"]
        for command, (defaults, runner) in list(cli.COMMANDS.items()):
            wrapped = self.wrap(runner, f"cli.{command}", "cli", SPAN)
            self._patches.append((cli.COMMANDS, command, (defaults, runner)))
            cli.COMMANDS[command] = (defaults, wrapped)
        fft = modules["numpy.fft"]
        for attr in FFT_NAMES:
            if hasattr(fft, attr):
                fn = getattr(fft, attr)
                self._patches.append((fft, attr, fn))
                setattr(fft, attr, self.wrap(fn, "fft", "numpy.fft", COUNTER, _size))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    def snapshot(self):
        """Aggregates of everything recorded so far, then a fresh store."""
        snap = {"spans": self.spans, "totals": self.totals,
                "layer_self": dict(self.layer_self), "under": dict(self.under),
                "sums": dict(self.sums), "maxes": dict(self.maxes)}
        self._clear()
        return snap
