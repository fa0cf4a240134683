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
