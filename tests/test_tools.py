"""Repository tooling: the BENCH writer's JUnit reader."""

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
