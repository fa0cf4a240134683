"""Batch experiment front end.

Commands map one-to-one onto the library operations; every run writes a
manifest echoing the fully resolved configuration, and a fixed seed gives
byte-identical artifacts for any worker count. Configuration is read from
a line-oriented ``key = value`` file with one ``[section]`` per command;
command-line flags override file values. Each command's runner returns
``(artifacts, gates)`` and ``_write`` alone puts the artifacts on disk.
"""

import argparse
import dataclasses
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import io as kio
from .audits import (KnappConfig, _log2_slopes, bound_report, bound_shells,
                     knapp_sharpness, linear_estimate_audit, resonance_size_audit)
from .dispersion import DispersionParams, resonance
from .dyadic import eta0, eta_k
from .grid import Grid, SpectralField, load_field, save_field
from .illposed import IllposedConfig, growth_fit, illposed_sweep, theta_identity_gap
from .imethod import (GwpConfig, bootstrap_datum, energy_derivative_audit,
                      gwp_experiment, suggest_audit_stride)
from .imultiplier import IMultiplier
from .multipliers import EnergyMultipliers, power_sum_identity_check
from .solver import SolverConfig, guarded_dt, simulate, trajectory_to_rows
from .spacetime import (SpaceTimeField, _modulation, duhamel_bilinear, fbar_norm,
                        free_trajectory, modulation_profiles, uniform_times, xk_norm,
                        xsb_norm)

__all__ = ["main", "parse_config", "run", "ConfigError"]

OUT_ENV = "KAWALAB_OUT"

COMMON_DEFAULTS = {"seed": 0}


class ConfigError(ValueError):
    pass


# -- config file -------------------------------------------------------


def _read_config_file(path):
    sections = {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current != "common" and current not in COMMANDS:
                    raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key '{key}' outside any section")
            sections[current][key] = value
    return sections


def _convert(key, value, default):
    try:
        if isinstance(default, bool):
            if str(value).lower() in ("1", "true", "yes"):
                return True
            if str(value).lower() in ("0", "false", "no"):
                return False
            raise ValueError(value)
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
        return str(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}': cannot parse {value!r} as {type(default).__name__}")


def _resolve(section, defaults, sections, flag_values):
    """defaults < the file's ``[section]`` < flags, rejecting unknown keys."""
    resolved = dict(defaults)
    for key, value in sections.get(section, {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        resolved[key] = _convert(key, value, defaults[key])
    for key, value in (flag_values or {}).items():
        if value is None:
            continue
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}'")
        resolved[key] = _convert(key, value, defaults[key])
    return resolved


def parse_config(command, defaults, file_path=None, flag_values=None, sections=None):
    """Resolve defaults < config-file section < flags; strict keys. The file
    is read here unless its ``sections`` are passed in. A ``datum`` file
    fixes the grid: its ``L`` and ``n`` replace the configured ones, so the
    manifest echoes the grid that is run."""
    if sections is None:
        sections = _read_config_file(file_path) if file_path else {}
    resolved = _resolve(command, defaults, sections, flag_values)
    if resolved.get("datum"):
        try:
            datum = load_field(resolved["datum"])
        except (OSError, LookupError, ValueError) as err:
            raise ConfigError(f"datum {resolved['datum']!r}: {err}") from err
        resolved["L"], resolved["n"] = datum.grid.length, datum.grid.size
    if "cap_lo" in resolved and not 0 <= resolved["cap_lo"] < resolved["cap_hi"] <= 1022:
        # the top shell reaches 2^(cap_hi + 1), which must be a finite double
        raise ConfigError(f"caps need 0 <= cap_lo < cap_hi <= 1022, got cap_lo = "
                          f"{resolved['cap_lo']}, cap_hi = {resolved['cap_hi']}")
    if "k_lo" in resolved and not resolved["k_lo"] < resolved["k_hi"]:
        raise ConfigError(f"shells need k_lo < k_hi, got k_lo = "
                          f"{resolved['k_lo']}, k_hi = {resolved['k_hi']}")
    return resolved


# Estimated single-process milliseconds per unit of each pooled command's
# size proxy (1 BLAS thread, 2-core Xeon, numpy 2.4.6; CHANGES.md has the
# break-even table they come from).
_MS_PER_BOUND_SAMPLE = 0.45e-3  # verify-bounds: samples x (cap_hi + 1)
_MS_PER_ILLPOSED_NODE = 1.05e-3  # illposed: N values x out_points x quad_points^2
_MS_PER_STRICHARTZ_POINT = 1.15e-5  # strichartz: trials x n x n_times x shells
# A pool's fork, pickling and hand-offs cost more than a second process
# saves on maps estimated below this many milliseconds.
_FORK_MIN_WORK = 100.0


def _processes(workers, n_units, work):
    """How many processes ``_parallel_map`` runs ``n_units`` units on, given
    at most ``workers`` and the map's estimated single-process time ``work``
    in milliseconds: 1 below ``_FORK_MIN_WORK``, else min(workers, n_units),
    and never less than 1."""
    return max(1, min(workers, n_units)) if work >= _FORK_MIN_WORK else 1


def _parallel_map(fn, units, workers, work):
    """``[fn(u) for u in units]`` on at most ``workers`` processes. ``work``
    is the map's estimated single-process time in milliseconds: below
    ``_FORK_MIN_WORK`` the parent runs every unit itself and builds no pool.
    Otherwise K = ``_processes(workers, len(units), work)`` processes share
    the units: the parent runs ``units[::K]`` itself while a pool of K - 1
    forked workers runs the rest. Either way the results come back in unit
    order."""
    k = _processes(workers, len(units), work)
    if k == 1:
        return [fn(u) for u in units]
    with ProcessPoolExecutor(max_workers=k - 1) as pool:
        # map submits every unit before the parent starts on its own share
        forked = pool.map(fn, [u for i, u in enumerate(units) if i % k])
        own = [fn(u) for u in units[::k]]
        return [own[i // k] if i % k == 0 else next(forked) for i in range(len(units))]


# -- command implementations --------------------------------------------


def _random_datum(grid, seed, amplitude, decay, support=None):
    rng = np.random.default_rng(seed)
    u = SpectralField.random_real(
        grid, rng, envelope=lambda a: (1.0 + a ** 2) ** (-decay / 2.0),
        support=support,
    )
    norm = u.l2_norm()
    if norm == 0.0:
        return u
    return u * (amplitude / norm)


SIMULATE_DEFAULTS = {
    "L": 256.0 * np.pi, "n": 1024, "mu": 1.0,
    "dt": 1e-3, "t_end": 1.0, "monitor_stride": 50,
    "amplitude": 0.5, "decay": 8.0, "s_norm": 0.0, "datum": "", "save_fields": False,
}


def _run_counters(traj):
    """The trajectory's deterministic step counters, for ``summary.json``."""
    return {"steps": traj.steps, "dt": traj.dt,
            "peak_growth": traj.peak_growth}


def _cmd_simulate(cfg, seed, workers):
    grid = Grid(cfg["L"], cfg["n"])
    disp = DispersionParams(cfg["mu"])
    if cfg["datum"]:
        u0 = load_field(cfg["datum"])
    else:
        u0 = _random_datum(grid, seed, cfg["amplitude"], cfg["decay"])
    sc = SolverConfig(grid, disp, dt=cfg["dt"], t_end=cfg["t_end"],
                      monitor_stride=cfg["monitor_stride"])
    traj = simulate(u0, sc)
    rows = trajectory_to_rows(traj, s=cfg["s_norm"])
    artifacts = {"trajectory.csv": (["t", "mean", "l2_mass", "h_s_norm"], rows)}
    if cfg["save_fields"]:
        for i, u in enumerate(traj.fields):
            artifacts[f"field_{i:05d}.txt"] = u
    mean_drift = max(abs(m - traj.means[0]) for m in traj.means)
    base = traj.l2_masses[0]
    l2_drift = 0.0 if base == 0 else max(abs(m / base - 1.0) for m in traj.l2_masses)
    gates = {
        "mean_conserved": mean_drift <= 1e-14,
        "l2_mass_conserved": l2_drift <= 1e-8,
    }
    artifacts["summary.json"] = {
        "mean_drift": mean_drift, "l2_relative_drift": l2_drift,
        "samples": len(traj),
        **_run_counters(traj),
    }
    return artifacts, gates


ENERGY_DEFAULTS = {
    "L": 4.0 * np.pi, "n": 256, "mu": 1.0, "N": 16.0, "s": -1.75,
    "amplitude": 2.5, "decay": 1.0, "support": 80,
    "pre_time": 0.01, "audit_steps": 4, "audit_safety": 0.05,
}


def _cmd_energy_track(cfg, seed, workers):
    grid = Grid(cfg["L"], cfg["n"])
    disp = DispersionParams(cfg["mu"])
    mult = IMultiplier(cfg["N"], cfg["s"])
    if cfg["pre_time"] < 0:
        # 0 means no pre-run; a negative one would only relabel the audit times
        raise ValueError(f"pre_time must be non-negative, got {cfg['pre_time']}")
    u0 = _random_datum(grid, seed, cfg["amplitude"], cfg["decay"], cfg["support"])
    if cfg["pre_time"] > 0:
        pre = SolverConfig(grid, disp, dt=min(2e-5, guarded_dt(grid, disp, 0.5)),
                           t_end=cfg["pre_time"], monitor_stride=10 ** 9)
        u0 = simulate(u0, pre).fields[-1]
    stride = suggest_audit_stride(u0, safety=cfg["audit_safety"])
    sc = SolverConfig(grid, disp, dt=stride, t_end=cfg["audit_steps"] * stride,
                      monitor_stride=1)
    traj = simulate(u0, sc, t0=cfg["pre_time"])
    audit = energy_derivative_audit(traj, mult, disp)
    rows = [(r["t"], r["e2"], r["corr3"], r["corr4"], r["e4"], r["resid3"])
            for r in audit["rows"]]
    worst = max(r["resid3"] for r in audit["rows"])
    gates = {"cubic_derivative_identity": worst <= 1e-3}
    return {
        "energy.csv": (["t", "E2", "corr3", "corr4", "E4", "resid3"], rows),
        "summary.json": {"stride": stride, "worst_resid3": worst,
                         "dealias_warning": audit["dealias_warning"],
                         **_run_counters(traj)},
    }, gates


GWP_DEFAULTS = {
    "eps0": 0.1, "N": 64.0, "steps": 20, "s": -1.75, "n": 512, "mu": 1.0,
    "spectral_slope": 1.25, "track_e4": False,
}


def _cmd_gwp(cfg, seed, workers):
    gc = GwpConfig(threshold=cfg["N"], eps0=cfg["eps0"], steps=cfg["steps"],
                   sobolev_s=cfg["s"], track_e4=cfg["track_e4"])
    datum = bootstrap_datum(gc, cfg["n"], seed, cfg["spectral_slope"])
    result = gwp_experiment(gc, datum, DispersionParams(cfg["mu"]))
    gates = {"bootstrap_bound": result.all_passed}
    return {"gwp.json": dataclasses.asdict(result)}, gates


BOUNDS_DEFAULTS = {
    "N": 16.0, "mu": 1.0, "s": -1.75, "cap_lo": 6, "cap_hi": 7, "samples": 100000,
}


BOUNDS = ("sigma3", "sigma4", "m5")


def _text_ratio(value):
    """A report's ``max_ratio`` as ``bounds.txt`` writes it: ``null`` where
    ``bounds.json`` writes a non-finite value as ``null``."""
    return f"{value:.6g}" if np.isfinite(value) else "null"


def _bounds_unit(unit):
    return bound_shells(*unit)


def _cmd_verify_bounds(cfg, seed, workers):
    caps = (cfg["cap_lo"], cfg["cap_hi"])
    mult = IMultiplier(cfg["N"], cfg["s"])
    disp = DispersionParams(cfg["mu"])
    # the audits' smallest right-hand side, at the top shell's edge T: below
    # float64's normal range the ratios are no longer finite however the
    # bound is factored
    T = 2.0 ** (cfg["cap_hi"] + 1)
    with np.errstate(over="ignore", under="ignore"):
        rhs = mult.m2(T) / np.float64(cfg["N"] + T) ** 8
    if not np.finfo(float).tiny <= rhs < np.inf:
        raise ValueError(f"N = {cfg['N']!r} and cap_hi = {cfg['cap_hi']} put the bound "
                         f"audits' right-hand side m^2(T) / (N + T)^8 at T = 2^(cap_hi + 1) "
                         f"at {float(rhs):.3g}, outside float64's normal range")
    # one unit per (bound, group of dyadic shells), drawn at cap_hi and
    # evaluated once; it returns its shells' samples, which bound_report
    # restricts to each cap. Each bound's shells 0..cap_hi are dealt to as
    # many groups as the map runs processes, shells e = j (mod k) to group
    # j, so the parent, which runs units[::k], takes group 0 of every
    # bound. m5 first: its shells cost several times a sigma3 or sigma4 one
    shells_hi = cfg["cap_hi"] + 1
    work = cfg["samples"] * shells_hi * _MS_PER_BOUND_SAMPLE
    k = _processes(workers, shells_hi, work)
    units = [(name, mult, disp, range(j, shells_hi, k), cfg["cap_hi"], cfg["samples"], seed)
             for name in ("m5", "sigma3", "sigma4") for j in range(k)]
    parts = _parallel_map(_bounds_unit, units, workers, work)
    shells = {(u[0], e): shell for u, part in zip(units, parts)
              for e, shell in zip(u[3], part)}
    reports = {
        (name, cap): bound_report(name, mult, [shells[name, e] for e in range(cap + 1)],
                                  cap, seed).as_dict()
        for name in BOUNDS for cap in caps
    }
    gates = {}
    drifts = {}
    for name in BOUNDS:
        lo = reports[name, cfg["cap_lo"]]["max_ratio"]
        hi = reports[name, cfg["cap_hi"]]["max_ratio"]
        drift = hi / lo if lo > 0 else float("inf")
        drifts[name] = drift
        gates[f"{name}_cap_stability"] = (drift < 2.0) and (drift > 0.5)
    lines = [
        f"{r['bound_name']:34s} cap=2^{cap} "
        f"samples={r['samples_evaluated']:8d} "
        f"max_ratio={_text_ratio(r['max_ratio'])} seed={r['seed']}"
        for (_, cap), r in reports.items()
    ]
    return {
        "bounds.json": {
            "reports": {f"{name}_cap{cap}": r for (name, cap), r in reports.items()},
            "drifts": drifts,
        },
        "bounds.txt": lines,
    }, gates


RESONANCE_DEFAULTS = {
    "samples": 1000000, "budget_factor": 10, "mu_fixed": float("nan"),
}


def _cmd_resonance(cfg, seed, workers):
    mu = None if np.isnan(cfg["mu_fixed"]) else cfg["mu_fixed"]
    small = resonance_size_audit(cfg["samples"], seed, mu=mu)
    big = resonance_size_audit(cfg["samples"] * cfg["budget_factor"], seed, mu=mu)
    zero = resonance_size_audit(cfg["samples"], seed, mu=0.0)
    move_lo = abs(big.min_ratio / small.min_ratio - 1.0)
    move_hi = abs(big.max_ratio / small.max_ratio - 1.0)
    gates = {
        "bracket_stable": move_lo < 0.1 and move_hi < 0.1,
        "bracket_contains_worked_value":
            zero.min_ratio <= 1.875 <= zero.max_ratio,
        "no_false_zero": small.min_ratio > 0.0,
    }
    return {
        "resonance.json": {
            "bracket": [small.min_ratio, small.max_ratio],
            "bracket_large_budget": [big.min_ratio, big.max_ratio],
            "bracket_mu0": [zero.min_ratio, zero.max_ratio],
            "moves": [move_lo, move_hi],
            "samples": [small.samples_evaluated, big.samples_evaluated],
        },
        "resonance.txt": [
            f"seed={seed}",
            f"bracket          [{small.min_ratio:.6f}, {small.max_ratio:.6f}] "
            f"samples={small.samples_evaluated}",
            f"bracket (10x)    [{big.min_ratio:.6f}, {big.max_ratio:.6f}] "
            f"samples={big.samples_evaluated}",
            f"bracket (mu=0)   [{zero.min_ratio:.6f}, {zero.max_ratio:.6f}]",
            f"argmax tuple     {small.argmax}",
        ],
    }, gates


KNAPP_DEFAULTS = {
    "n1_lo_exp": 8, "n1_hi_exp": 10, "L1": 1.0, "L2": 16.0, "mu": 1.0,
    "samples": 1 << 20,
}


def _cmd_knapp(cfg, seed, workers):
    results = []
    for exp in (cfg["n1_lo_exp"], cfg["n1_hi_exp"]):
        kc = KnappConfig(2.0 ** exp, cfg["L1"], cfg["L2"], mu=cfg["mu"])
        results.append(knapp_sharpness(kc, n_samples=cfg["samples"], seed=seed))
    r_lo, r_hi = results
    ratio_drift = r_hi["sharpness_ratio"] / r_lo["sharpness_ratio"]
    gates = {
        "sharpness_ratio_stable": 0.5 < ratio_drift < 2.0,
        "j_scaling_stable": 0.5 < r_hi["j_scaling"] / r_lo["j_scaling"] < 2.0,
        "norm_scaling_stable":
            0.5 < r_hi["norm_product_scaling"] / r_lo["norm_product_scaling"] < 2.0,
    }
    return {"knapp.json": {"results": results, "ratio_drift": ratio_drift}}, gates


STRICHARTZ_DEFAULTS = {
    "k_lo": 4, "k_hi": 9, "trials": 8, "n": 8192, "L": 4.0 * np.pi,
    "n_times": 1024, "mu": 1.0, "slope_tol": 0.15,
}


def _strichartz_unit(unit):
    return linear_estimate_audit(*unit)


def _cmd_strichartz(cfg, seed, workers):
    ks = list(range(cfg["k_lo"], cfg["k_hi"] + 1))
    disp, grid = DispersionParams(cfg["mu"]), Grid(cfg["L"], cfg["n"])
    units = [(disp, [k], cfg["trials"], seed + i, grid, cfg["n_times"])
             for i, k in enumerate(ks)]
    work = (cfg["trials"] * cfg["n"] * cfg["n_times"] * len(ks)
            * _MS_PER_STRICHARTZ_POINT)
    ratios = {}
    for res in _parallel_map(_strichartz_unit, units, workers, work):
        for key, table in res["ratios"].items():
            ratios.setdefault(key, {}).update(table)
    slopes = _log2_slopes(ks, ratios)
    gates = {
        "Lt6Lx6_flat": abs(slopes["Lt6.0Lx6.0"]) <= cfg["slope_tol"],
        "Lt8Lx4_flat": abs(slopes["Lt8.0Lx4.0"]) <= cfg["slope_tol"],
        "maximal_flat": abs(slopes["maximal_Lx4"]) <= cfg["slope_tol"],
        "smoothing_flat": abs(slopes["smoothing"]) <= cfg["slope_tol"],
        "unitarity_exact": all(abs(v - 1.0) <= 1e-12 for v in ratios["LtinfLx2.0"].values()),
    }
    lines = [f"seed={seed}  shells k={ks[0]}..{ks[-1]}  trials={cfg['trials']}"]
    for key in sorted(ratios):
        row = "  ".join(f"{ratios[key][k]:10.4f}" for k in ks)
        lines.append(f"{key:14s} {row}   slope {slopes[key]:+.4f}")
    return {
        "strichartz.json": {
            "ratios": {key: {str(k): v for k, v in t.items()}
                       for key, t in ratios.items()},
            "slopes": slopes,
        },
        "strichartz.txt": lines,
    }, gates


XNORMS_DEFAULTS = {
    "L": 16.0 * np.pi, "n": 256, "mu": 1.0, "t_box": 8.0, "n_times": 4096,
    "shell": 1, "s": -1.75, "b": 0.5,
}


def _cmd_xnorms(cfg, seed, workers):
    grid = Grid(cfg["L"], cfg["n"])
    disp = DispersionParams(cfg["mu"])
    rng = np.random.default_rng(seed)
    k = cfg["shell"]
    phi = SpectralField.random_real(
        grid, rng, envelope=lambda a: np.sqrt(eta_k(a, k)))
    nrm = phi.l2_norm()
    phi = phi * (1.0 / nrm if nrm else 1.0)
    times = uniform_times(-cfg["t_box"] / 2, cfg["t_box"] / 2, cfg["n_times"])
    _, coeffs = free_trajectory(phi, disp, times)
    F = SpaceTimeField.from_samples(grid, times, coeffs)
    profiles = modulation_profiles(F, disp)
    st_l2 = xsb_norm(F, 0.0, 0.0, disp)
    # direct windowed space-time quadrature for the b=0, s=0 cross-check,
    # summed sample by sample in time order
    l2 = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=1) * grid.dxi)
    terms = (eta0(times) * l2) ** 2 * (times[1] - times[0])
    direct = np.sqrt(np.cumsum(terms)[-1])
    xsb = xsb_norm(F, cfg["s"], cfg["b"], disp)
    xk = xk_norm(F, k, disp, profiles)
    fb = fbar_norm(grid, times, coeffs, cfg["s"], disp, F=F, profiles=profiles)
    # modulation concentration: shells j <= 2 of the windowed free flow
    mod = _modulation(F, disp)
    mag2 = np.abs(F.coeffs2d) ** 2
    low = float(np.sum(mag2 * (eta0(mod / 4.0))) / np.sum(mag2))
    gates = {
        "plancherel_spacetime": abs(st_l2 / direct - 1.0) <= 1e-10,
        "modulation_concentrated": low >= 0.9,
    }
    return {"xnorms.json": {
        "spacetime_l2": st_l2, "direct_l2": direct, "xsb": xsb,
        "xk": xk, "fbar": fb, "low_modulation_share": low,
    }}, gates


DUHAMEL_DEFAULTS = {
    "L": 16.0 * np.pi, "n": 256, "mu": 1.0,
    "n_times": 1024, "mode": 8, "amplitude": 0.1,
}


def _cmd_duhamel(cfg, seed, workers):
    grid = Grid(cfg["L"], cfg["n"])
    disp = DispersionParams(cfg["mu"])
    m0 = cfg["mode"]
    amp = cfg["amplitude"]
    phi = SpectralField.from_mode_dict(grid, {m0: amp, -m0: amp})
    times = uniform_times(-2.0, 2.0, cfg["n_times"])
    res = duhamel_bilinear(phi, phi, disp, times)
    # closed-form check at t inside the window plateau: the doubled mode
    # grows like the integrated phase-difference quotient
    xi0 = m0 * grid.dxi
    t_idx = int(np.argmin(np.abs(res["times"] - 1.0)))
    t_chk = float(res["times"][t_idx])
    theta = float(resonance(xi0, xi0, disp))
    phase_integral = (np.exp(1j * theta * t_chk) - 1.0) / (1j * theta)
    expected = (
        1j * (2 * xi0) * amp * amp * grid.dxi / np.sqrt(2 * np.pi)
        * np.exp(1j * (disp.mu * (2 * xi0) ** 3 - (2 * xi0) ** 5) * t_chk)
        * phase_integral
    )
    got = res["coeffs"][t_idx, grid.index_of_mode(2 * m0)]
    rel = abs(got - expected) / abs(expected)
    gates = {
        "quadrature_converged": res["quadrature_change"] < 0.005,
        "single_mode_closed_form": rel < 0.01,
    }
    return {"duhamel.json": {
        "quadrature_change": res["quadrature_change"],
        "closed_form_relative_error": float(rel), "t_checked": t_chk,
    }}, gates


ILLPOSED_DEFAULTS = {
    "s": -2.5, "n_exp_lo": 7, "n_exp_hi": 11, "t_eval": 0.5, "mu": 1.0,
    "quad_points": 48, "out_points": 64, "slope_tol": 0.3,
}


def _illposed_unit(config):
    return illposed_sweep(config)[0]


def _cmd_illposed(cfg, seed, workers):
    n_list = tuple(2 ** e for e in range(cfg["n_exp_lo"], cfg["n_exp_hi"] + 1))
    config = IllposedConfig(sobolev_s=cfg["s"], n_list=n_list, t_eval=cfg["t_eval"],
                            mu=cfg["mu"], quad_points=cfg["quad_points"],
                            out_points=cfg["out_points"])
    units = [dataclasses.replace(config, n_list=(N,)) for N in n_list]
    work = (len(n_list) * cfg["out_points"] * cfg["quad_points"] ** 2
            * _MS_PER_ILLPOSED_NODE)
    rows = _parallel_map(_illposed_unit, units, workers, work)
    fit = growth_fit(config, rows=rows)
    gates = {"growth_exponent": fit["gap"] <= cfg["slope_tol"]}
    return {
        "illposed.csv": (
            ["N", "a1_norm", "a2_norm", "a3_norm", "g1_share", "g2_share"],
            [(r["N"], r["a1_norm"], r["a2_norm"], r["a3_norm"],
              r["g1_norm"] / r["a3_norm"],
              r["g2_norm"] / r["a3_norm"]) for r in rows],
        ),
        "illposed_fit.json": {"slope": fit["slope"], "expected": fit["expected"],
                              "gap": fit["gap"], "rows": rows},
    }, gates


IDENTITIES_DEFAULTS = {
    "tuples": 10000, "N": 16.0, "mu": 1.0, "s": -1.75, "mode_range": 1000,
}


def _zero_sum(x):
    """Append the column that makes each row of ``x`` sum to zero."""
    return np.column_stack([x, -x.sum(axis=1)])


def _cancellation(kern, x):
    """Worst relative residual of m_k + sigma_k * hv_k = 0 over the zero-sum
    k-tuples ``x`` (k = 3, 4), leaving out the singular set where a pair sum
    of the first three entries vanishes."""
    k = x.shape[1]
    off = (x[:, 0] + x[:, 1] != 0) & (x[:, 0] + x[:, 2] != 0) & (x[:, 1] + x[:, 2] != 0)
    x = x[off]
    m = getattr(kern, f"m{k}")(*x.T)
    res = np.abs(m + getattr(kern, f"sigma{k}")(*x.T) * getattr(kern, f"hv{k}")(*x.T))
    nz = np.abs(m) > 0
    return float(np.max(res[nz] / np.abs(m[nz]))) if nz.any() else 0.0


def _cmd_identities(cfg, seed, workers):
    rng = np.random.default_rng(seed)
    disp = DispersionParams(cfg["mu"])
    kern = EnergyMultipliers(IMultiplier(cfg["N"], cfg["s"]), disp)
    count = cfg["tuples"]
    span = cfg["mode_range"]

    gap3 = power_sum_identity_check(_zero_sum(rng.uniform(-span, span, (count, 2))))
    gap4 = power_sum_identity_check(_zero_sum(rng.uniform(-span, span, (count, 3))))
    gap_theta = theta_identity_gap(rng.uniform(-span, span, (count, 3)), disp)
    canc3 = _cancellation(
        kern, _zero_sum(rng.integers(-span, span + 1, (count, 2))).astype(np.float64))
    canc4 = _cancellation(
        kern, _zero_sum(rng.integers(-span, span + 1, (count, 3))).astype(np.float64))

    gates = {
        "power_sums_k3": gap3 <= 1e-11,
        "power_sums_k4": gap4 <= 1e-11,
        "theta_factorization": gap_theta <= 1e-11,
        "cubic_cancellation": canc3 <= 1e-12,
        "quartic_cancellation": canc4 <= 1e-12,
    }
    return {"identities.json": {
        "power_sum_gap_k3": gap3, "power_sum_gap_k4": gap4,
        "theta_gap": gap_theta, "cubic_cancellation": canc3,
        "quartic_cancellation": canc4, "tuples": count,
    }}, gates


COMMANDS = {
    "simulate": (SIMULATE_DEFAULTS, _cmd_simulate),
    "energy-track": (ENERGY_DEFAULTS, _cmd_energy_track),
    "gwp": (GWP_DEFAULTS, _cmd_gwp),
    "verify-bounds": (BOUNDS_DEFAULTS, _cmd_verify_bounds),
    "resonance": (RESONANCE_DEFAULTS, _cmd_resonance),
    "knapp": (KNAPP_DEFAULTS, _cmd_knapp),
    "strichartz": (STRICHARTZ_DEFAULTS, _cmd_strichartz),
    "xnorms": (XNORMS_DEFAULTS, _cmd_xnorms),
    "duhamel": (DUHAMEL_DEFAULTS, _cmd_duhamel),
    "illposed": (ILLPOSED_DEFAULTS, _cmd_illposed),
    "identities": (IDENTITIES_DEFAULTS, _cmd_identities),
}


# -- output ----------------------------------------------------------------


def _write(out, artifacts, gates, fmt):
    """Write ``artifacts`` (file name -> payload) into ``out``. A payload is
    a dict (JSON record, given the command's ``gates``), a ``(header, rows)``
    pair (CSV table), a list of lines (text table) or a SpectralField
    (``save_field`` dump). ``--format json`` keeps the JSON records, ``csv``
    the CSV and text tables, ``both`` all of them; the manifest, the failure
    record and field dumps are always written."""
    os.makedirs(out, exist_ok=True)
    for name, payload in artifacts.items():
        path = os.path.join(out, name)
        if isinstance(payload, SpectralField):
            save_field(payload, path)
        elif name == "manifest.txt":
            kio.write_manifest(path, *payload)
        elif name == "failures.json":
            kio.write_json(path, payload)
        elif isinstance(payload, dict):
            if fmt != "csv":
                kio.write_json(path, {**payload, "gates": gates})
        elif fmt != "json":
            if isinstance(payload, tuple):
                kio.write_csv(path, *payload)
            else:
                kio.atomic_write_text(path, "\n".join(payload) + "\n")


def run(command, resolved, out_dir, seed, workers, enforce_gates=True,
        fmt="both"):
    """Run ``command`` and write its artifacts, the manifest first, into
    ``out_dir``; nothing is written if a runner rejects a value. Returns the
    exit status: 1 if an enforced gate failed, else 0."""
    _, runner = COMMANDS[command]
    try:
        artifacts, gates = runner(resolved, seed, workers)
    except ValueError as err:
        # the library's own checks (NaN, out-of-range values) reject what
        # the key parser let through
        raise ConfigError(str(err)) from err
    manifest = {**resolved, "seed": seed, "format": fmt}
    failed = sorted(name for name, ok in gates.items() if not ok)
    if failed:
        artifacts["failures.json"] = {"command": command, "failed_gates": failed}
    _write(out_dir, {"manifest.txt": (command, manifest), **artifacts}, gates, fmt)
    return 1 if enforce_gates and failed else 0


@functools.cache
def _parser():
    """The argument tree, built on first use and shared by every ``main``
    call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="kawalab",
        description="Kawahara pseudospectral lab: batch experiments and audits",
    )
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides [common] seed; default 0")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--no-gate", action="store_true",
                        help="report gates but always exit 0")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _) in COMMANDS.items():
        p = sub.add_parser(name)
        for key in defaults:
            p.add_argument(f"--{key}", default=None)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    defaults, _ = COMMANDS[args.command]
    flag_values = {key: getattr(args, key) for key in defaults}
    try:
        sections = _read_config_file(args.config) if args.config else {}
        common = _resolve("common", COMMON_DEFAULTS, sections, {"seed": args.seed})
        seed = common["seed"]
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        resolved = parse_config(args.command, defaults, flag_values=flag_values,
                                sections=sections)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_dir = args.out or os.environ.get(OUT_ENV) or os.path.join(
        "runs", f"{args.command}-seed{seed}"
    )
    try:
        return run(args.command, resolved, out_dir, seed, args.workers,
                   enforce_gates=not args.no_gate, fmt=args.format)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
