"""Configuration resolution and command wiring."""

import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kawalab import Grid, SpectralField
from kawalab import cli
from kawalab.cli import COMMANDS, ConfigError, main, parse_config
from kawalab.grid import save_field
from test_acceptance import DETERMINISM_PRESETS


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        resolved = parse_config("simulate", COMMANDS["simulate"][0], str(path))
        assert resolved["L"] == pytest.approx(256.0 * np.pi)
        assert resolved["n"] == 1024
        assert resolved["dt"] == pytest.approx(1e-3)
        assert resolved["mu"] == pytest.approx(1.0)

    def test_power_of_two_validation(self):
        with pytest.raises(ConfigError, match="power of two"):
            parse_config("simulate", COMMANDS["simulate"][0],
                         flag_values={"n": "513"})

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[simulate]\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config("simulate", COMMANDS["simulate"][0], str(path))

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config("simulate", COMMANDS["simulate"][0],
                         flag_values={"dt": "fast"})

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.cfg"
        path.write_text("[simulate]\nn = 256\ndt = 0.002\n")
        resolved = parse_config("simulate", COMMANDS["simulate"][0], str(path),
                                flag_values={"n": "512"})
        assert resolved["n"] == 512
        assert resolved["dt"] == pytest.approx(0.002)

    def test_unknown_section_named(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text("[simulte]\nn = 5\n")
        with pytest.raises(ConfigError, match="simulte"):
            parse_config("simulate", COMMANDS["simulate"][0], str(path))
        assert main(["--config", str(path), "--out", str(tmp_path / "run"),
                     "identities", "--tuples", "500"]) == 2
        assert "unknown section [simulte]" in capsys.readouterr().err

    def test_seed_precedence(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.cfg"
        path.write_text("[common]\nseed = 7\n")
        out = tmp_path / "run"
        code = main(["--config", str(path), "--seed", "9", "--out", str(out),
                     "identities", "--tuples", "500"])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "seed = 9" in manifest
        out2 = tmp_path / "run2"
        main(["--config", str(path), "--out", str(out2),
              "identities", "--tuples", "500"])
        assert "seed = 7" in (out2 / "manifest.txt").read_text()
        out3 = tmp_path / "run3"
        main(["--config", str(path), "--seed=9", "--out", str(out3),
              "identities", "--tuples", "500"])
        assert "seed = 9" in (out3 / "manifest.txt").read_text()
        path.write_text("[common]\nseed = seven\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "run4"),
                     "identities", "--tuples", "500"]) == 2

    def test_unknown_common_key_named(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text("[common]\nsed = 7\n")
        out = tmp_path / "run"
        assert main(["--config", str(path), "--out", str(out),
                     "identities", "--tuples", "500"]) == 2
        assert "unknown key 'sed' in section [common]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("caps", [("-1", "7"), ("3", "2"), ("2", "2")])
    def test_verify_bounds_caps_validated(self, tmp_path, capsys, caps):
        # a negative cap has no shells; equal or swapped caps give no drift
        out = tmp_path / "run"
        assert main(["--out", str(out), "verify-bounds", "--samples", "2000",
                     "--cap_lo", caps[0], "--cap_hi", caps[1]]) == 2
        err = capsys.readouterr().err
        assert "0 <= cap_lo < cap_hi" in err and "Traceback" not in err
        assert not out.exists()
        path = tmp_path / "caps.cfg"
        path.write_text(f"[verify-bounds]\ncap_lo = {caps[0]}\ncap_hi = {caps[1]}\n")
        with pytest.raises(ConfigError, match="cap_lo"):
            parse_config("verify-bounds", COMMANDS["verify-bounds"][0], str(path))

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.cfg"
        path.write_text("[common]\nseed = -3\n")
        for argv in (["--seed", "-1"], ["--config", str(path)],
                     ["--config", str(path), "--seed", "-1"]):
            out = tmp_path / "run"
            assert main(argv + ["--out", str(out), "identities",
                                "--tuples", "500"]) == 2
            assert "seed must be non-negative" in capsys.readouterr().err
            assert not out.exists()


class TestRuns:
    def test_simulate_zero_amplitude(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["--seed", "1", "--out", str(out), "simulate",
                     "--n", "128", "--L", "6.283185307179586",
                     "--dt", "0.0005", "--t_end", "0.02",
                     "--amplitude", "0.0"])
        assert code == 0
        body = (out / "trajectory.csv").read_text().strip().splitlines()
        assert body[0] == "t,mean,l2_mass,h_s_norm"
        assert all(float(line.split(",")[2]) == 0.0 for line in body[1:])

    @pytest.mark.parametrize("grid_flags", [[], ["--n", "64"]])
    def test_simulate_datum_fixes_grid(self, tmp_path, grid_flags):
        grid = Grid(4 * np.pi, 64)
        u0 = SpectralField.random_real(grid, np.random.default_rng(2),
                                       envelope=lambda a: (1.0 + a ** 2) ** -4.0)
        path = tmp_path / "datum.txt"
        save_field(u0 * (0.1 / u0.l2_norm()), path)
        out = tmp_path / "sim"
        # the configured grid (defaults L = 256*pi, n = 1024) gives way to
        # the datum's, also where only L differs
        code = main(["--out", str(out), "simulate", "--datum", str(path),
                     "--dt", "0.0005", "--t_end", "0.01"] + grid_flags)
        assert code == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"L = {grid.length}" in manifest
        assert "n = 64" in manifest

    @pytest.mark.parametrize("command", ["simulate", "energy-track"])
    def test_summary_carries_step_counters(self, tmp_path, command):
        out = tmp_path / command
        main(["--seed", "77", "--no-gate", "--out", str(out), command]
             + DETERMINISM_PRESETS[command])
        summary = json.loads((out / "summary.json").read_text())
        assert isinstance(summary["steps"], int) and summary["steps"] > 0
        assert summary["dt"] > 0.0
        assert 0.5 < summary["peak_growth"] < 2.0
        if command == "simulate":
            # 0.02 / 0.0005 steps on the preset
            assert summary["steps"] == 40 and summary["dt"] == 0.0005

    def test_simulate_zero_end_time(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["--seed", "1", "--out", str(out), "simulate",
                     *DETERMINISM_PRESETS["simulate"], "--t_end", "0"]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 2 and float(rows[1].split(",")[0]) == 0.0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["samples"], summary["steps"], summary["dt"],
                summary["peak_growth"]) == (1, 0, 0.0, 0.0)

    def test_gwp_carries_unit_step_counters(self, tmp_path):
        out = tmp_path / "gwp"
        assert main(["--seed", "77", "--out", str(out), "gwp", "--steps", "2",
                     "--n", "256", "--N", "16"]) == 0
        record = json.loads((out / "gwp.json").read_text())
        assert len(record["times"]) == 3
        # one entry per unit step, each from that step's trajectory
        steps, dts, peaks = record["steps"], record["dt"], record["peak_growth"]
        assert len(steps) == len(dts) == len(peaks) == 2
        assert all(isinstance(k, int) and k > 0 for k in steps)
        assert all(dt == 1.0 / k for k, dt in zip(steps, dts))
        assert all(0.5 < p < 2.0 for p in peaks)

    def test_simulate_unusable_datum_named(self, tmp_path, capsys):
        complex_field = tmp_path / "complex.txt"
        save_field(SpectralField.from_mode_dict(Grid(4 * np.pi, 64), {1: 0.1}, real=False),
                   complex_field)
        for path, reason in ((tmp_path / "missing.txt", "No such file"),
                             (complex_field, "not a real-flagged field")):
            assert main(["--out", str(tmp_path / "sim"), "simulate",
                         "--datum", str(path)]) == 2
            err = capsys.readouterr().err
            assert path.name in err and reason in err

    def test_identities_report(self, tmp_path):
        out = tmp_path / "ids"
        assert main(["--seed", "3", "--out", str(out), "identities",
                     "--tuples", "2000"]) == 0
        data = json.loads((out / "identities.json").read_text())
        assert data["gates"]["power_sums_k3"]
        assert data["power_sum_gap_k3"] <= 1e-11

    def test_xnorms_transforms_once(self, tmp_path, monkeypatch):
        # one windowed transform and one set of modulation profiles serve
        # xsb, xk and fbar
        transforms, profiles = [], []
        build = cli.SpaceTimeField.from_samples.__func__
        inner = cli.modulation_profiles

        def counted_build(klass, *args, **kwargs):
            transforms.append(1)
            return build(klass, *args, **kwargs)

        def counted_profiles(F, disp):
            profiles.append(1)
            return inner(F, disp)

        monkeypatch.setattr(cli.SpaceTimeField, "from_samples", classmethod(counted_build))
        monkeypatch.setattr(cli, "modulation_profiles", counted_profiles)
        monkeypatch.setattr("kawalab.spacetime.modulation_profiles", counted_profiles)
        assert main(["--seed", "5", "--out", str(tmp_path / "xn"), "xnorms",
                     "--n", "64", "--L", repr(4 * np.pi), "--n_times", "256"]) == 0
        assert len(transforms) == 1 and len(profiles) == 1

    @pytest.mark.parametrize("command, extra", [
        ("xnorms", ["--n", "64", "--L", repr(4 * np.pi)]),
        ("duhamel", []),
    ])
    def test_spacetime_commands_build_few_fields(self, tmp_path, monkeypatch,
                                                 command, extra):
        # the samples travel as one (n_t, n) array, so the number of
        # SpectralField constructions does not grow with the sample count
        init = SpectralField.__post_init__
        made = []

        def counted(field):
            made.append(1)
            init(field)

        monkeypatch.setattr(SpectralField, "__post_init__", counted)
        counts = []
        for n_times in ("256", "1024"):
            made.clear()
            assert main(["--seed", "5", "--no-gate", "--out",
                         str(tmp_path / f"{command}-{n_times}"), command,
                         "--n_times", n_times] + extra) == 0
            counts.append(len(made))
        assert counts[0] == counts[1] <= 4

    @pytest.mark.parametrize("command, args", [
        ("energy-track", ["--N", "nan"]),
        ("simulate", ["--t_end", "nan"]),
    ])
    def test_value_rejected_by_runner_named(self, tmp_path, capsys, command, args):
        # the library's own checks reject what the key parser lets through
        out = tmp_path / command
        assert main(["--out", str(out), command] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_resonance_nan_keeps_mu_sampled(self, tmp_path):
        out = tmp_path / "res"
        assert main(["--seed", "3", "--out", str(out), "resonance", "--samples", "2000",
                     "--budget_factor", "2", "--mu_fixed", "nan"]) == 0
        assert "mu_fixed = nan" in (out / "manifest.txt").read_text()

    def test_failure_record_written(self, tmp_path):
        # an impossible gate: duhamel on a very coarse quadrature
        out = tmp_path / "duh"
        code = main(["--seed", "1", "--out", str(out), "duhamel",
                     "--n_times", "32"])
        assert code == 1
        failures = json.loads((out / "failures.json").read_text())
        assert failures["failed_gates"]

    def test_no_gate_flag(self, tmp_path):
        out = tmp_path / "duh2"
        code = main(["--seed", "1", "--no-gate", "--out", str(out), "duhamel",
                     "--n_times", "32"])
        assert code == 0


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, units):
        return map(fn, units)


def _tagged_pid(unit):
    return unit, os.getpid()


class TestParallelMap:
    def test_pool_capped_at_unit_count(self, monkeypatch):
        # the parent is one of the K processes, so the pool forks K - 1
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        assert cli._parallel_map(abs, [-1, -2, -3], 5000) == [1, 2, 3]
        assert cli._parallel_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert cli._parallel_map(abs, [-1], 5000) == [1]
        assert _RecordingPool.sizes == [2, 1]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parent_runs_every_kth_unit_in_order(self, workers):
        units = list(range(7))
        out = cli._parallel_map(_tagged_pid, units, workers)
        assert [unit for unit, _ in out] == units
        own = [unit for unit, pid in out if pid == os.getpid()]
        assert own == units[::workers]
        assert len({pid for _, pid in out}) == workers


def _compare_dirs(a, b):
    comp = filecmp.dircmp(a, b)
    assert not comp.left_only and not comp.right_only
    match, mismatch, errors = filecmp.cmpfiles(a, b, comp.common_files,
                                               shallow=False)
    assert not mismatch and not errors
    return match


class TestDeterminism:
    def test_repeat_run_bitwise_identical(self, tmp_path):
        args = ["resonance", "--samples", "20000", "--budget_factor", "2"]
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["--seed", "11", "--out", str(out)] + args) == 0
            outs.append(out)
        _compare_dirs(*outs)

    def test_worker_count_invariance(self, tmp_path):
        args = ["verify-bounds", "--samples", "4000",
                "--cap_lo", "5", "--cap_hi", "6"]
        outs = []
        for tag, workers in (("w1", "1"), ("w4", "4")):
            out = tmp_path / tag
            assert main(["--seed", "5", "--workers", workers,
                         "--out", str(out)] + args) == 0
            outs.append(out)
        names = _compare_dirs(*outs)
        assert {"bounds.json", "bounds.txt"} <= set(names)

    def test_parser_reuse_matches_fresh_processes(self, tmp_path, capsys):
        runs = {"res": ["resonance", "--samples", "2000", "--budget_factor", "2"],
                "ids": ["identities", "--tuples", "500"]}
        assert main(["--seed", "3", "--out", str(tmp_path / "res")] + runs["res"]) == 0
        # a key of the previous command, which identities does not take
        with pytest.raises(SystemExit) as rejected:
            main(["--seed", "3", "--out", str(tmp_path / "bad"), "identities",
                  "--samples", "1"])
        assert rejected.value.code == 2 and "error:" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
        assert main(["--seed", "3", "--out", str(tmp_path / "ids")] + runs["ids"]) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for tag, args in runs.items():
            fresh = tmp_path / f"fresh-{tag}"
            subprocess.run([sys.executable, "-m", "kawalab.cli", "--seed", "3",
                            "--out", str(fresh)] + args, env=env, check=True, timeout=120)
            assert _records(_compare_dirs(tmp_path / tag, fresh))

    @pytest.mark.parametrize("command, args", [
        ("strichartz", ["--k_lo", "4", "--k_hi", "6", "--trials", "1", "--n", "1024",
                        "--n_times", "64"]),
        ("illposed", ["--n_exp_lo", "7", "--n_exp_hi", "10", "--quad_points", "8",
                      "--out_points", "8"]),
        ("duhamel", ["--n", "64", "--L", repr(8 * np.pi), "--mode", "2",
                     "--n_times", "128"]),
    ])
    def test_small_runs_match_for_1_2_3_workers(self, tmp_path, command, args):
        outs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            main(["--seed", "5", "--workers", workers, "--no-gate",
                  "--out", str(out), command] + args)
            outs.append(out)
        assert _records(_compare_dirs(outs[0], outs[1]))
        _compare_dirs(outs[0], outs[2])


def _records(names):
    return {name for name in names if name.endswith(".json") and name != "failures.json"}


def _tables(names):
    return {name for name in names
            if name.endswith((".csv", ".txt")) and name != "manifest.txt"}


@pytest.mark.parametrize("command", list(DETERMINISM_PRESETS))
def test_format_selects_artifacts(tmp_path, command):
    written = {}
    for fmt in ("json", "csv", "both"):
        out = tmp_path / fmt
        main(["--seed", "77", "--no-gate", "--format", fmt, "--out", str(out),
              command] + DETERMINISM_PRESETS[command])
        written[fmt] = {path.name for path in out.iterdir()}
    assert _records(written["json"]) and not _tables(written["json"])
    assert not _records(written["csv"])
    assert written["both"] == written["json"] | written["csv"]
