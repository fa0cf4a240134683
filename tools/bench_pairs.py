"""Run alternating parent/change pairs of perfbench/run.py and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --number N --parent HEAD~1 \\
        --pairs energies=10 --pairs evolve=5 --pairs lab=5 \\
        [--junit tier1-junit.xml]

The parent commit's files are exported with ``git archive`` into a
temporary directory, so each side imports kawalab from its own ``src/``
and the repository's own state is left alone; the change side is the
working tree at the repository root. Pair ``i`` runs at seed
``100 * n + 1 + i``: odd seeds run the parent first, even seeds the
change first. Every run is the end-to-end command (``--trace 0``) at the
run length ``BENCHMARK.json`` fixes; a run that exits non-zero or prints
no result line stops the script.

The output has the layout of the earlier BENCH files: machine facts,
then per workload the seeds and, per side, ``attempted`` and ``failed``
job counts per run and ``runs``/``median``/``q1``/``q3`` per metric
(inclusive quartiles), plus ``change_vs_parent`` (median ratio, pairs in
which the change is lower, the parent's interquartile range,
``claim_met``: the change is better in at least 9/10 of the pairs and its
median beats the parent's by more than that range, and ``worse``: the
change's median is worse than the parent's by more than the metric's
``BENCHMARK.json`` bound, a fraction of the parent's median). Each side
also carries ``jobs``: per job, the median over runs of the job's median
wall and CPU seconds within a run, read from run.py's per-job lines
(unscaled by the host-speed probe).

``--junit PATH`` adds ``acceptance_s``: the time of each acceptance
criterion (``test_aNN_*``) read from a ``pytest --junitxml`` file, such
as the one the Tier-1 CI step writes with ``-o junit_duration_report=call``
(call phase only, without fixture setup and teardown).
"""

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
METRICS = [m["name"] for m in SPEC["end_to_end"]]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]


def export(rev, dest):
    """Write the files of commit ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def commit_id(rev):
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "system": platform.system()}


# run.py prints one line per job repeat: "  <job>  wall <s> s  cpu <s> s  <status>"
JOB_LINE = re.compile(r"\s+(\S+)\s+wall\s+(\S+) s\s+cpu\s+(\S+) s\s")


def job_medians(lines):
    """``{job: {"wall_s": median, "cpu_s": median}}`` over the job lines."""
    times = {}
    for line in lines:
        match = JOB_LINE.match(line)
        if match:
            walls, cpus = times.setdefault(match[1], ([], []))
            walls.append(float(match[2]))
            cpus.append(float(match[3]))
    return {job: {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus)}
            for job, (walls, cpus) in times.items()}


def run_once(tree, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{SECONDS:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} failed "
                 f"(exit {proc.returncode}):\n{proc.stderr}")
    return {**json.loads(lines[-1]), "jobs": job_medians(lines)}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": [round(v, 5) for v in values], "median": round(median, 5),
            "q1": round(q1, 5), "q3": round(q3, 5)}


def side(results):
    out = {"attempted": [r["attempted"] for r in results],
           "failed": [r["failed"] for r in results]}
    for name in METRICS:
        out[name] = summary([r["metrics"][name]["value"] for r in results])
    out["jobs"] = {
        job: {key: round(statistics.median(r["jobs"][job][key] for r in results), 5)
              for key in ("wall_s", "cpu_s")}
        for job in results[0]["jobs"]}
    return out


def compare(parent, change):
    """Per metric: median ratio, pairs in which the change is lower, the
    parent's interquartile range, ``claim_met``: the change is better in
    at least nine tenths of the pairs (ties count for neither side) and the
    medians differ in its favour by more than the parent's IQR, and
    ``worse``: the change's median is worse than the parent's by more than
    the metric's bound times the parent's median."""
    out = {}
    for name in METRICS:
        p, c = parent[name], change[name]
        sign = 1.0 if BETTER[name] == "lower" else -1.0
        pairs = len(p["runs"])
        wins = sum(sign * (a - b) > 0 for a, b in zip(p["runs"], c["runs"]))
        iqr = p["q3"] - p["q1"]
        out[name] = {
            "median_ratio": round(c["median"] / p["median"], 4),
            "pairs_change_lower": sum(b < a for a, b in zip(p["runs"], c["runs"])),
            "pairs": pairs,
            "parent_iqr": round(iqr, 5),
            "claim_met": 10 * wins >= 9 * pairs and sign * (p["median"] - c["median"]) > iqr,
            "worse": sign * (c["median"] - p["median"]) > BOUND[name] * p["median"],
        }
    return out


def bench_workload(trees, workload, pairs, first_seed):
    seeds = list(range(first_seed, first_seed + pairs))
    results = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for name in order:
            res = run_once(trees[name], workload, seed)
            results[name].append(res)
            print(f"{workload} seed {seed} {name}: wall_s "
                  f"{res['metrics']['wall_s']['value']:.4f} correct {res['correct']}",
                  flush=True)
    parent, change = side(results["parent"]), side(results["change"])
    rows = compare(parent, change)
    for name, row in rows.items():
        if row["worse"]:
            print(f"{workload} {name}: the change's median is worse than the parent's "
                  f"by more than the bound {BOUND[name]:g}", flush=True)
    return {"seeds": seeds, "parent": parent, "change": change, "change_vs_parent": rows}


def acceptance_times(path):
    """``{test name: seconds}`` of the ``test_aNN_*`` cases in a JUnit XML file."""
    times = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        name = case.get("name", "")
        if re.fullmatch(r"test_a\d\d_\w+", name):
            times[name] = round(float(case.get("time", "nan")), 3)
    if not times:
        sys.exit(f"bench_pairs: no test_aNN_* cases in {path}")
    return dict(sorted(times.items()))


def parse_pairs(text):
    workload, _, count = text.partition("=")
    if workload not in WORKLOADS or not count.isdigit() or int(count) < 2:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS (PAIRS >= 2), got {text!r}")
    return workload, int(count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n in BENCH_<n>.json")
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                        help="WORKLOAD=PAIRS, repeatable")
    parser.add_argument("--description", default="",
                        help="what the change is, for the description field")
    parser.add_argument("--junit", metavar="PATH",
                        help="pytest --junitxml file to take acceptance-criterion times from")
    args = parser.parse_args(argv)
    out = os.path.join(ROOT, f"BENCH_{args.number}.json")
    acceptance = acceptance_times(args.junit) if args.junit else None

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": export(args.parent, os.path.join(tmp, "parent")), "change": ROOT}
        record = {
            "description": (
                "End-to-end metrics of perfbench/run.py (tracing off) at the parent commit "
                f"and with {args.description or 'the change'}, run as alternating pairs "
                "(odd seeds run the parent first, even seeds the change first)."),
            "command": ("python3 perfbench/run.py --workload <workload> --seed <seed> "
                        f"--seconds {SECONDS:g} --trace 0"),
            "parent_commit": commit_id(args.parent),
            "machine": machine(),
            "workloads": {},
        }
        for workload, pairs in args.pairs:
            record["workloads"][workload] = bench_workload(
                trees, workload, pairs, 100 * args.number + 1)
        if acceptance is not None:
            record["acceptance_s"] = acceptance
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out)}")


if __name__ == "__main__":
    main()
