"""Closed-loop benchmark of the kawalab lab.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 35 --trace 0

One client in one process sends the workload's jobs one after another; the
next job starts only after the previous one returned and its outputs were
checked. The only other processes are the CLI's own worker pool.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json, with
times scaled by a host-speed probe (see PROBE_REFERENCE_S and README.md).
``--trace 1`` runs the job list once untraced and twice traced (``--seconds``
does not apply), checks that every count repeats exactly, prints the
per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.
The last line of standard output is one JSON object with the result.
"""

import os
import sys

WORKERS = 2  # process pool of the lab workload's CLI commands

# BLAS threads are fixed before numpy loads: workers x threads <= cores
_CORES = len(os.sched_getaffinity(0))
BLAS_THREADS = max(1, _CORES // WORKERS)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 13

# Host-speed probe: a fixed piece of numpy FFT and pure-Python work, timed
# before and after every timed job and set-up. End-to-end times are given
# in seconds of a host on which the probe takes PROBE_REFERENCE_S.
PROBE_FFT_SIZE = 1024
PROBE_FFT_ROUNDS = 120
PROBE_PY_STEPS = 60000
PROBE_REFERENCE_S = 0.01

MODULES = ("kawalab", "kawalab.grid", "kawalab.dispersion", "kawalab.dyadic",
           "kawalab.imultiplier", "kawalab.multipliers", "kawalab.summation",
           "kawalab.solver", "kawalab.imethod", "kawalab.spacetime", "kawalab.audits",
           "kawalab.illposed", "kawalab.io", "kawalab.cli")

# layer numbers in ROADMAP "State at this re-anchor", for the cross-check
ROADMAP = {
    "solver.step_us.n256": 330.0,
    "solver.step_us.n1024": 549.0,
    "solver.step_us.n4096": 1060.0,
}

clock = time.perf_counter


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_lab():
    """Import kawalab afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "kawalab" or n.startswith("kawalab.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    origin = os.path.abspath(modules["kawalab"].__file__)
    if not origin.startswith(SRC + os.sep):
        fail(f"kawalab imported from {origin}, not from {SRC}")
    return modules


_probe_data = []


def probe():
    """Seconds the fixed probe work takes now. The host's speed changes in
    phases of seconds; a job's time over the probe time beside it measures
    the job's own cost."""
    import numpy as np

    if not _probe_data:
        _probe_data.append(np.random.default_rng(0).standard_normal(PROBE_FFT_SIZE) + 0j)
    a = _probe_data[0]
    fft, ifft = np.fft.fft, np.fft.ifft
    t0 = clock()
    for _ in range(PROBE_FFT_ROUNDS):
        ifft(fft(a))
    acc = 0
    for i in range(PROBE_PY_STEPS):
        acc += i * i
    return clock() - t0


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment():
    import numpy as np

    env = {"nproc": os.cpu_count(), "cores_available": _CORES, "workers": WORKERS,
           "blas_threads": BLAS_THREADS, "python": platform.python_version(),
           "numpy": np.__version__,
           "pool_start_method": multiprocessing.get_start_method()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    env["cache_l2"] = caches.get("L2")
    env["cache_l3"] = caches.get("L3")
    return env


def unmeasured(env):
    """Measurements this benchmark cannot make here, by name, with the reason."""
    missing = {
        "hw.cycles": "hardware performance counters need perf_event access",
        "hw.cache_misses": "hardware performance counters need perf_event access",
        "fft.bytes_measured": "memory traffic needs hardware counters; "
                              "fft.bytes_computed is 32 B x points",
        "solver.step_split": "the FFT/pointwise split inside the private stepper is "
                             "given only as solver.fft_share of simulate time",
    }
    for key in ("cpu_model", "cache_l2", "cache_l3", "blas"):
        if env.get(key) is None:
            missing[f"env.{key}"] = "not readable on this host"
    if env["pool_start_method"] != "fork":
        missing["pool.worker_spans"] = "pool workers do not inherit the wrappers " \
                                       "without the fork start method"
    return missing


def run_job(workload, job, references, tracer=None, job_id=None):
    """One closed-loop request: call, then check; a raise counts as a failure."""
    import workloads

    if tracer is not None:
        tracer.begin_job(job_id, job.name)
    c0 = cpu_seconds()
    t0 = clock()
    try:
        result = job.run()
        error = None
    except Exception as exc:  # the run continues; the job counts as failed
        result, error = None, f"{job.name}: {type(exc).__name__}: {exc}"
    wall = clock() - t0
    cpu = cpu_seconds() - c0
    if tracer is not None:
        tracer.end_job()
    problems = [error] if error else []
    values = {}
    if error is None:
        try:
            found, values = job.check(result)
            problems += found
            if references is not None:
                problems += workloads.compare(references, workload, job, values)
        except Exception as exc:
            problems.append(f"{job.name}: check raised {type(exc).__name__}: {exc}")
    return {"job": job.name, "wall": wall, "cpu": cpu, "problems": problems,
            "values": values}


def setup(workload, seed, out_dir, references):
    """Import, input generation and one untimed warm-up job."""
    import workloads

    t0 = clock()
    modules = import_lab()
    lab = types.SimpleNamespace(**{n.split(".")[-1]: m for n, m in modules.items()})
    jobs, warm = workloads.build(workload, lab, seed, out_dir, WORKERS)
    warm_record = run_job(workload, next(j for j in jobs if j.name == warm), references)
    return clock() - t0, modules, jobs, warm_record


def scaled(seconds, before, after):
    """``seconds`` in seconds of a host on which the probe takes
    PROBE_REFERENCE_S, from the probe times just before and after."""
    return seconds * PROBE_REFERENCE_S / (0.5 * (before + after))


def closed_loop(workload, jobs, seconds, references, set_up_again):
    """Cycle through the jobs until ``seconds`` have passed; the first list
    always completes, and a later job starts only if its median so far
    fits before the deadline. The SETUP_REPEATS - 1 further set-ups are
    spread evenly over the run, between jobs, so that they meet the host
    in different phases; each one re-imports kawalab, so the loop goes on
    with the jobs it built (pool workers pickle the new module's
    functions). Returns the job records and the set-up times."""
    start = clock()
    deadline = start + seconds
    records, setups = [], []
    walls = {job.name: [] for job in jobs}
    before = probe()
    i = 0
    while True:
        if (len(setups) < SETUP_REPEATS - 1
                and clock() >= start + seconds * (len(setups) + 1) / SETUP_REPEATS):
            setup_s, jobs = set_up_again()
            after = probe()
            setups.append((setup_s, scaled(setup_s, before, after)))
            before = after
            continue
        job = jobs[i % len(jobs)]
        if i >= len(jobs) and clock() + statistics.median(walls[job.name]) > deadline:
            break
        rec = run_job(workload, job, references)
        after = probe()
        rec["probe"] = 0.5 * (before + after)
        before = after
        records.append(rec)
        walls[job.name].append(rec["wall"])
        i += 1
    while len(setups) < SETUP_REPEATS - 1:  # a job list longer than the run
        setup_s, _ = set_up_again()
        after = probe()
        setups.append((setup_s, scaled(setup_s, before, after)))
        before = after
    return records, setups


def job_sum(records, key, probe_scaled):
    """Sum over jobs of each job's median over its repeats in this run;
    with ``probe_scaled``, each repeat is first divided by the probe time around
    it and multiplied by PROBE_REFERENCE_S."""
    per_job = {}
    for rec in records:
        value = rec[key] * PROBE_REFERENCE_S / rec["probe"] if probe_scaled else rec[key]
        per_job.setdefault(rec["job"], []).append(value)
    return sum(statistics.median(values) for values in per_job.values())


def traced_passes(workload, jobs, modules, references, work_dir):
    import numpy.fft

    import metrics
    import tracer as tracing

    untraced = [run_job(workload, job, references) for job in jobs]
    tr = tracing.Tracer(work_dir)
    tr.install({**modules, "numpy.fft": numpy.fft})
    tr.active = True
    passes, stores = [], []
    try:
        for p in (1, 2):
            passes.append([run_job(workload, job, references, tr, f"p{p}:{k}:{job.name}")
                           for k, job in enumerate(jobs)])
            store = tracing.Tracer(work_dir)
            store.absorb(tr.snapshot())
            stores.append(store)
    finally:
        tr.active = False
        tr.uninstall()

    untraced_wall = sum(rec["wall"] for rec in untraced)
    traced_wall = sum(rec["wall"] for rec in passes[0])
    values = [metrics.per_layer(s, untraced_wall, traced_wall) for s in stores]
    mismatched = {name: (values[0][name], values[1][name]) for name in metrics.COUNT_METRICS
                  if values[0][name] != values[1][name]}
    return untraced, passes, stores[0], values[0], mismatched


def roadmap_crosscheck(values):
    return {name: {"measured": values[name], "roadmap": ref, "ratio": values[name] / ref}
            for name, ref in ROADMAP.items() if values[name]}


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def print_records(records):
    for rec in records:
        status = "ok" if not rec["problems"] else "FAILED " + "; ".join(rec["problems"])
        print(f"  {rec['job']:32s} wall {rec['wall']:9.3f} s  cpu {rec['cpu']:9.3f} s  {status}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("evolve", "energies", "lab"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kawalab", "__init__.py")):
        fail(f"no kawalab sources under {SRC}")
    sys.path.insert(0, SRC)
    end_to_end_units, per_layer_units = load_spec()

    import metrics
    import workloads

    references = workloads.load_references()
    if not references:
        fail(f"no references at {workloads.REFERENCES}")
    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        env = environment()
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("environment: " + json.dumps(env, sort_keys=True))

        before = probe()
        seconds, modules, jobs, warm = setup(args.workload, args.seed, run_dir, references)
        setups = [(seconds, scaled(seconds, before, probe()))]

        if args.trace:
            work_dir = os.path.join(run_dir, "workers")
            os.makedirs(work_dir, exist_ok=True)
            untraced, passes, store, values, mismatched = traced_passes(
                args.workload, jobs, modules, references, work_dir)
            records = untraced + passes[0] + passes[1]
            print("untraced pass:")
            print_records(untraced)
            print("traced pass 1:")
            print_records(passes[0])
            print("traced pass 2:")
            print_records(passes[1])
            if mismatched:
                for name, (a, b) in mismatched.items():
                    print(f"perfbench: count {name} differs between traced passes: "
                          f"{a!r} vs {b!r}", file=sys.stderr)
                sys.exit(1)
            if set(values) != set(per_layer_units):
                fail("per-layer metrics disagree with BENCHMARK.json: "
                     f"{sorted(set(values) ^ set(per_layer_units))}")
            shares = sorted(((values[f"layer.{layer}.share"], layer)
                             for layer in metrics.BUSY_LAYERS), reverse=True)
            print("layer self time (traced pass 1):")
            for share, layer in shares:
                print(f"  {layer:12s} {values[f'layer.{layer}.self_s']:9.3f} s  {share:6.1%}")
            print(f"tracing overhead: {values['trace.overhead_s']:.3f} s "
                  f"({values['trace.overhead_frac']:.1%} of untraced wall)")
            crosscheck = roadmap_crosscheck(values)
            for name, row in crosscheck.items():
                print(f"roadmap cross-check {name}: measured {row['measured']:.4g}, "
                      f"roadmap {row['roadmap']:.4g} (x{row['ratio']:.2f})")
            missing = unmeasured(env)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                           "metrics": values, "self_time": dict(store.layer_self),
                           "totals": store.totals, "sums": dict(store.sums),
                           "maxes": dict(store.maxes), "spans": store.spans,
                           "roadmap_crosscheck": crosscheck, "unmeasured": missing,
                           "repeat_check": {name: values[name]
                                            for name in metrics.COUNT_METRICS}},
                          fh, indent=1)
            print(f"trace written to {os.path.relpath(trace_path, ROOT)}; unmeasured: "
                  + ", ".join(sorted(missing)))
            units = per_layer_units
        else:
            records, more_setups = closed_loop(
                args.workload, jobs, args.seconds, references,
                lambda: setup(args.workload, args.seed, run_dir, references)[::2])
            setups += more_setups
            print_records(records)
            print(f"setup x{len(setups)} (warm-up {warm['job']}), unscaled: "
                  + ", ".join(f"{s:.3f}" for s, _ in setups) + " s; scaled: "
                  + ", ".join(f"{s:.3f}" for _, s in setups) + " s")
            probes = [rec["probe"] for rec in records]
            print(f"probe: median {statistics.median(probes) * 1e3:.3f} ms, "
                  f"min {min(probes) * 1e3:.3f} ms, reference {PROBE_REFERENCE_S * 1e3:g} ms")
            print(f"unscaled: wall {job_sum(records, 'wall', False):.4f} s, "
                  f"cpu {job_sum(records, 'cpu', False):.4f} s, "
                  f"setup {statistics.median(s for s, _ in setups):.4f} s")
            values = {
                "wall_s": job_sum(records, "wall", True),
                "cpu_s": job_sum(records, "cpu", True),
                "setup_s": statistics.median(s for _, s in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            if set(values) != set(end_to_end_units):
                fail("end-to-end metrics disagree with BENCHMARK.json")
            units = end_to_end_units

        attempted = len(records)
        failed = sum(1 for rec in records if rec["problems"])
        print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} jobs)")
        for name, value in values.items():
            print(f"  {name:40s} {value:.6g} {units[name]}")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": value, "unit": units[name]}
                              for name, value in values.items()}}
        print(json.dumps(result))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
