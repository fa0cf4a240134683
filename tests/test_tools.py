"""Repository tooling: the BENCH writer's JUnit reader and claim rule."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JUNIT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" tests="4">
<testcase classname="tests.test_acceptance" name="test_a02_cancellation_by_construction" time="0.4567"/>
<testcase classname="tests.test_acceptance" name="test_a01_algebraic_identities" time="0.0123"/>
<testcase classname="tests.test_acceptance" name="test_a14_determinism" time="3.21"><failure message="x"/></testcase>
<testcase classname="tests.test_imethod.TestLambdaK" name="test_zero_field" time="0.001"/>
</testsuite></testsuites>
"""


def test_acceptance_times_reads_criteria_only(tmp_path):
    path = tmp_path / "junit.xml"
    path.write_text(JUNIT)
    times = load_bench_pairs().acceptance_times(str(path))
    assert times == {"test_a01_algebraic_identities": 0.012,
                     "test_a02_cancellation_by_construction": 0.457,
                     "test_a14_determinism": 3.21}
    assert list(times) == sorted(times)


def test_acceptance_times_refuses_file_without_criteria(tmp_path):
    path = tmp_path / "junit.xml"
    path.write_text("<testsuites><testsuite>"
                    '<testcase name="test_zero_field" time="0.1"/>'
                    "</testsuite></testsuites>")
    with pytest.raises(SystemExit):
        load_bench_pairs().acceptance_times(str(path))


def _side(bench_pairs, runs):
    """A BENCH side dict in which every end-to-end metric has ``runs``."""
    return {name: bench_pairs.summary(runs) for name in bench_pairs.METRICS}


@pytest.mark.parametrize("change, met", [
    # 10/10 lower, medians 0.1 apart against a parent IQR of 0.005
    ([0.40 + 0.001 * i for i in range(10)], True),
    # 9/10 lower, one pair a tie (ties count for neither side): still met
    ([0.40] * 8 + [0.50, 0.505], True),
    # 8/10 lower: fewer than nine tenths
    ([0.40] * 8 + [0.51, 0.51], False),
    # 10/10 lower, but by less than the parent's IQR
    ([0.499 - 0.0001 * i for i in range(10)], False),
])
def test_claim_met_rule(change, met):
    bp = load_bench_pairs()
    parent = [0.50 + 0.001 * (i % 2) * i for i in range(10)]
    assert bp.summary(parent)["q3"] - bp.summary(parent)["q1"] > 0.002
    rows = bp.compare(_side(bp, parent), _side(bp, change))
    assert set(rows) == set(bp.METRICS)
    assert all(row["claim_met"] is met for row in rows.values())


@pytest.mark.parametrize("change", [0.30, 0.50 * 1.1 + 0.001, 0.50 * 1.25 + 0.001])
def test_worse_flag_uses_relative_bound(change):
    # every end-to-end metric is better lower; its bound is a fraction of
    # the parent's median (0.1 for peak_rss_mb, 0.2 or 0.25 for the times)
    bp = load_bench_pairs()
    assert set(bp.BETTER.values()) == {"lower"}
    rows = bp.compare(_side(bp, [0.50] * 5), _side(bp, [change] * 5))
    assert {name: row["worse"] for name, row in rows.items()} == {
        name: change > 0.50 * (1.0 + bp.BOUND[name]) for name in bp.METRICS}


def test_job_medians_read_run_lines():
    lines = [
        "perfbench lab seed=1 seconds=3 trace=0",
        "  cli_illposed                     wall     0.091 s  cpu     0.142 s  ok",
        "  cli_duhamel                      wall     0.034 s  cpu     0.034 s  ok",
        "  cli_illposed                     wall     0.068 s  cpu     0.103 s  ok",
        "  cli_illposed                     wall     0.070 s  cpu     0.100 s  FAILED x: y",
        "  wall_s                                   0.35 s",
    ]
    assert load_bench_pairs().job_medians(lines) == {
        "cli_illposed": {"wall_s": 0.070, "cpu_s": 0.103},
        "cli_duhamel": {"wall_s": 0.034, "cpu_s": 0.034},
    }


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    # perfbench --trace 1 wraps these names; a rename must fail here first
    missing = []
    for module_name, attr, *_ in load_tracer().TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            missing.append(f"{module_name}.{attr}")
    assert not missing


def test_cli_commands_are_defaults_runner_pairs():
    from kawalab.cli import COMMANDS

    for command, entry in COMMANDS.items():
        assert isinstance(entry, tuple) and len(entry) == 2, command
        defaults, runner = entry
        assert isinstance(defaults, dict) and callable(runner), command
