"""Hyperplane functionals, modified energies, derivative identities."""

import numpy as np
import pytest

from kawalab import (
    DispersionParams,
    EnergyMultipliers,
    Grid,
    IMultiplier,
    SolverConfig,
    SpectralField,
    apply_I,
    energy_derivative_audit,
    lambda_k,
    modified_energies,
    rescale_datum,
    simulate,
)
from kawalab import imethod, multipliers
from kawalab.imethod import (
    GwpConfig,
    lambda3_kernel,
    lambda4_sigma4,
    lambda5_m5,
    suggest_audit_stride,
)

D = DispersionParams(1.0)


def random_field(grid, seed, support=None, envelope=None, amplitude=1.0):
    rng = np.random.default_rng(seed)
    u = SpectralField.random_real(grid, rng, envelope=envelope, support=support)
    return u * (amplitude / u.l2_norm())


class TestLambdaK:
    def test_lambda2_is_weighted_mass(self):
        g = Grid(2 * np.pi, 64)
        m = IMultiplier(4.0)
        u = random_field(g, 0, support=20)
        val = lambda_k(lambda a, b: m.m(a) * m.m(b), [u, u])
        expect = apply_I(u, m).l2_norm() ** 2
        assert val.real == pytest.approx(expect, rel=1e-12)
        assert abs(val.imag) <= 1e-14 * expect

    @pytest.mark.parametrize("slots", [(0, 0, 0), (0, 1, 2)], ids=["same", "distinct"])
    def test_lambda3_brute_force_enumeration(self, slots):
        g = Grid(2 * np.pi, 16)
        dicts = [
            {1: 0.3 + 0.1j, -1: 0.3 - 0.1j, 2: -0.2 + 0.05j, -2: -0.2 - 0.05j},
            {1: 0.7 - 0.2j, 3: -0.4 + 0.3j, -4: 0.1 + 0.6j},
            {-1: 0.5 + 0.5j, -3: 0.2 - 0.1j, 2: -0.3 + 0.2j, 4: 0.9 - 0.4j},
        ]
        coeffs = [dicts[i] for i in slots]
        fields = [SpectralField.from_mode_dict(g, c, real=False) for c in coeffs]
        # a mode-weighted multiplier tells the three slots apart
        got = lambda_k(lambda a, b, c: 1.0 + a + 2.0 * b * b, fields)
        brute = 0.0
        for a, ca in coeffs[0].items():
            for b, cb in coeffs[1].items():
                for c, cc in coeffs[2].items():
                    if a + b + c == 0:
                        brute += (1.0 + a * g.dxi + 2.0 * (b * g.dxi) ** 2) * ca * cb * cc
        brute *= g.dxi ** 2 / np.sqrt(2 * np.pi)
        assert got == pytest.approx(brute, abs=1e-15)

    def test_zero_field(self):
        g = Grid(2 * np.pi, 16)
        z = SpectralField.zero(g)
        assert lambda_k(lambda a, b, c: np.ones_like(a), [z, z, z]) == 0.0

    def test_realness_for_symmetric_multiplier(self):
        g = Grid(2 * np.pi, 64)
        u = random_field(g, 5, support=12)
        kern = EnergyMultipliers(IMultiplier(4.0), D)
        val = lambda_k(kern.m3, [u, u, u])
        assert abs(val.imag) <= 1e-12 * max(abs(val.real), 1e-300)

    def test_guard_refuses_large_direct_sum(self):
        g = Grid(2 * np.pi, 256)
        u = random_field(g, 2, support=32)  # 65 modes: 65**4 > 2**24 tuples
        with pytest.raises(ValueError):
            lambda_k(lambda *xs: np.ones_like(xs[0]), [u] * 5)

    def test_grid_mismatch(self):
        u = random_field(Grid(2 * np.pi, 16), 1)
        v = random_field(Grid(2 * np.pi, 32), 1)
        with pytest.raises(ValueError):
            lambda_k(lambda a, b: np.ones_like(a), [u, v])


class TestFastPaths:
    def test_lambda4_table_matches_generic(self):
        g = Grid(2 * np.pi, 64)
        kern = EnergyMultipliers(IMultiplier(3.0), DispersionParams(0.6))
        u = random_field(g, 9, support=9, envelope=lambda a: (1 + a) ** -0.5)
        fast = lambda4_sigma4(u, kern)
        generic = lambda_k(kern.sigma4, [u, u, u, u])
        assert abs(fast - generic) <= 1e-12 * abs(generic)

    def test_lambda4_generic_spans_blocks(self):
        g = Grid(2 * np.pi, 128)
        kern = EnergyMultipliers(IMultiplier(3.0), DispersionParams(0.6))
        u = random_field(g, 4, support=20, envelope=lambda a: (1 + a) ** -0.5)
        assert u.support_indices().size ** 3 > 2 ** 16  # at least two blocks
        fast = lambda4_sigma4(u, kern)
        generic = lambda_k(kern.sigma4, [u] * 4)
        assert abs(fast - generic) <= 1e-12 * abs(generic)

    def test_sorted_triples_span_blocks(self):
        g = Grid(2 * np.pi, 256)
        kern = EnergyMultipliers(IMultiplier(3.0), DispersionParams(0.6))
        u = random_field(g, 4, support=40, envelope=lambda a: (1 + a) ** -0.5)
        S = u.support_indices().size
        assert S * (S + 1) * (S + 2) // 6 > 2 ** 16  # at least two blocks
        fast = lambda4_sigma4(u, kern)
        generic = lambda_k(kern.sigma4, [u] * 4)
        assert abs(fast - generic) <= 1e-12 * abs(generic)

    @pytest.mark.parametrize("orderings", [(6.0, 6.0, 6.0), (6.0, 3.0, 3.0)],
                             ids=["all-six", "diagonal-three"])
    def test_wrong_multiplicity_is_caught(self, monkeypatch, orderings):
        # the comparison against the direct sum must see a triple weighted
        # by the wrong number of orderings
        g = Grid(2 * np.pi, 64)
        kern = EnergyMultipliers(IMultiplier(3.0), DispersionParams(0.6))
        u = random_field(g, 9, support=9, envelope=lambda a: (1 + a) ** -0.5)
        generic = lambda_k(kern.sigma4, [u] * 4)
        monkeypatch.setattr(imethod, "_ORDERINGS", np.array(orderings))
        fast = lambda4_sigma4(u, kern)
        assert abs(fast - generic) > 1e-6 * abs(generic)

    def test_lambda5_product_structure_matches_direct(self):
        g = Grid(2 * np.pi, 64)
        kern = EnergyMultipliers(IMultiplier(3.0), DispersionParams(0.6))
        u = random_field(g, 9, support=7, envelope=lambda a: (1 + a) ** -0.5)
        fast = lambda5_m5(u, kern)
        direct = lambda_k(kern.m5, [u] * 5)
        assert abs(fast - direct) <= 1e-12 * max(abs(direct), 1e-300)


class TestSingularLimitBatch:
    """Each quartic sum resolves its whole singular set in one sigma4 call."""

    def _counting(self, monkeypatch):
        calls = []
        inner = EnergyMultipliers.sigma4

        def counted(self, x1, x2, x3, x4):
            keys = {(a + b == 0, a + c == 0, b + c == 0)
                    for a, b, c in zip(x1, x2, x3)}
            calls.append(keys)
            return inner(self, x1, x2, x3, x4)

        monkeypatch.setattr(EnergyMultipliers, "sigma4", counted)
        return calls

    def _case(self):
        g = Grid(2 * np.pi, 64)
        kern = EnergyMultipliers(IMultiplier(3.0), DispersionParams(0.6))
        u = random_field(g, 9, support=9, envelope=lambda a: (1 + a) ** -0.5)
        return u, kern

    def test_lambda4_one_sigma4_call(self, monkeypatch):
        u, kern = self._case()
        calls = self._counting(monkeypatch)
        lambda4_sigma4(u, kern)
        assert len(calls) == 1
        assert len(calls[0]) > 1  # more than one limit direction

    def test_lambda5_one_sigma4_call(self, monkeypatch):
        u, kern = self._case()
        calls = self._counting(monkeypatch)
        lambda5_m5(u, kern)
        assert len(calls) == 1
        assert len(calls[0]) > 1

    @pytest.mark.parametrize("functional", [lambda4_sigma4, lambda5_m5],
                             ids=["lambda4", "lambda5"])
    def test_limit_is_one_kernel_call(self, monkeypatch, functional):
        # the whole singular set, every direction class at once, goes
        # through one _sigma4_regular call, and each _richardson call
        # evaluates its four displaced argument sets in one call of f
        u, kern = self._case()
        regular, f_calls = [], []
        inner_regular = EnergyMultipliers._sigma4_regular
        inner_richardson = multipliers._richardson

        def counted_regular(self, *cols):
            regular.append(cols[0].size)
            return inner_regular(self, *cols)

        def counted_richardson(f, cols, direction, step):
            calls = []

            def counted_f(*args):
                calls.append(args[0].size)
                return f(*args)

            out = inner_richardson(counted_f, cols, direction, step)
            f_calls.append(calls)
            return out

        monkeypatch.setattr(EnergyMultipliers, "_sigma4_regular", counted_regular)
        monkeypatch.setattr(multipliers, "_richardson", counted_richardson)
        functional(u, kern)
        assert len(regular) == 1
        assert f_calls and all(len(calls) == 1 for calls in f_calls)
        assert [regular[0]] in f_calls  # four displaced copies of the set


class TestModifiedEnergies:
    def test_zero_field(self):
        g = Grid(2 * np.pi, 64)
        rep = modified_energies(SpectralField.zero(g), IMultiplier(4.0), D)
        assert rep.e2 == rep.e3 == rep.e4 == 0.0

    def test_low_frequency_field_collapses(self):
        # spectrum below N/8 with pair sums below N: corrections vanish
        g = Grid(2 * np.pi, 128)
        m = IMultiplier(16.0)
        u = random_field(g, 3, support=1)
        rep = modified_energies(u, m, D)
        assert rep.corr3 == 0.0 and rep.corr4 == 0.0
        assert rep.e4 == pytest.approx(u.l2_norm() ** 2, rel=1e-12)

    def test_imaginary_residue_small(self):
        g = Grid(2 * np.pi, 128)
        m = IMultiplier(8.0)
        u = random_field(g, 8, support=30, envelope=lambda a: (1 + a) ** -1)
        rep = modified_energies(u, m, D)
        assert abs(rep.imag3) <= 1e-12 * rep.e2
        assert abs(rep.imag4) <= 1e-12 * rep.e2


class TestDerivativeIdentities:
    def test_cubic_identity_on_trajectory(self):
        g = Grid(2 * np.pi, 128)
        m = IMultiplier(8.0)
        u0 = random_field(g, 11, support=20, envelope=lambda a: (1 + a) ** -1,
                          amplitude=0.8)
        stride = suggest_audit_stride(u0)
        cfg = SolverConfig(g, D, dt=stride, t_end=4 * stride, monitor_stride=1)
        traj = simulate(u0, cfg)
        audit = energy_derivative_audit(traj, m, D, include_quintic=False)
        assert max(r["resid3"] for r in audit["rows"]) <= 1e-3

    def test_quintic_identity_at_achievable_precision(self):
        # the E4 difference sits near the roundoff floor eps*E4/(2h |L5|),
        # so the gate is floor-aware; the kernel itself is validated exactly
        # against direct enumeration elsewhere
        g = Grid(2 * np.pi, 32)
        m = IMultiplier(4.0)
        rng = np.random.default_rng(5)
        u0 = SpectralField.random_real(g, rng, envelope=np.ones_like, support=9)
        u0 = u0 * (6.0 / u0.l2_norm())
        stride = suggest_audit_stride(u0, safety=0.1)
        cfg = SolverConfig(g, D, dt=stride, t_end=4 * stride, monitor_stride=1)
        traj = simulate(u0, cfg)
        audit = energy_derivative_audit(traj, m, D)
        rows = audit["rows"]
        assert all(np.isfinite(r["resid5"]) for r in rows)
        assert max(r["resid5"] for r in rows) <= 0.05

    def test_zero_trajectory(self):
        g = Grid(2 * np.pi, 32)
        cfg = SolverConfig(g, D, dt=1e-5, t_end=4e-5, monitor_stride=1)
        traj = simulate(SpectralField.zero(g), cfg)
        audit = energy_derivative_audit(traj, IMultiplier(4.0), D)
        for r in audit["rows"]:
            assert r["e2"] == 0.0 and r["lambda3_m3"] == 0.0

    def test_linear_regime_scale(self):
        g = Grid(2 * np.pi, 64)
        m = IMultiplier(4.0)
        eps = 1e-6
        rng = np.random.default_rng(2)
        u0 = SpectralField.random_real(g, rng, envelope=np.ones_like, support=12)
        u0 = u0 * (eps / u0.l2_norm())
        stride = suggest_audit_stride(u0)
        cfg = SolverConfig(g, D, dt=stride, t_end=4 * stride, monitor_stride=1)
        traj = simulate(u0, cfg)
        audit = energy_derivative_audit(traj, m, D, include_quintic=False)
        for r in audit["rows"]:
            # cubic functional of a size-eps field
            assert abs(r["lambda3_m3"]) <= 10 * eps ** 3
            assert abs(r["de2_dt"] - r["lambda3_m3"]) <= eps ** 2.5


class TestGwpConfig:
    @pytest.mark.parametrize("eps0, threshold", [(np.nan, 16.0), (np.inf, 16.0),
                                                 (0.1, np.nan), (0.1, np.inf),
                                                 (0.0, 16.0)])
    def test_rejects_nonfinite_parameters(self, eps0, threshold):
        with pytest.raises(ValueError):
            GwpConfig(threshold=threshold, eps0=eps0)


class _CountingMultiplier:
    """An IMultiplier that counts its ``m`` evaluations."""

    def __init__(self, mult):
        self.mult, self.calls = mult, 0

    def m(self, xi):
        self.calls += 1
        return self.mult.m(xi)


def _reference_solve_lambda(datum, mult, eps0):
    """The bisection over ``apply_I(rescale_datum(d, lam), m).l2_norm()``,
    through fields; returns ``(lam, norm evaluations)``."""
    evals = 0

    def norm_at(lam):
        nonlocal evals
        evals += 1
        return apply_I(rescale_datum(datum, lam), mult).l2_norm()

    if norm_at(1.0) <= eps0:
        return 1.0, evals
    lo, hi = 1e-8, 1.0
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if norm_at(mid) > eps0:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return lo, evals


class TestSolveLambda:
    @pytest.mark.parametrize("real", [True, False])
    def test_norm_matches_fields_bitwise(self, real):
        g = Grid(2 * np.pi / 16.0, 256)
        datum = random_field(g, seed=9, envelope=lambda a: (1.0 + a ** 2) ** 0.625)
        if not real:
            datum = datum.with_coeffs(datum.coeffs + 0.3j * datum.coeffs[::-1], real=False)
        mult = IMultiplier(16.0)
        norm_at = imethod._rescaled_I_norm(datum, mult)
        for lam in np.geomspace(1e-8, 1.0, 97):
            ref = apply_I(rescale_datum(datum, lam), mult).l2_norm()
            assert np.float64(norm_at(lam)).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("n, N", [(64, 8.0), (512, 64.0)])
    @pytest.mark.parametrize("scale", [1e-8, 0.1, 0.37, 5.0])
    def test_matches_field_bisection_bitwise(self, n, N, scale):
        g = Grid(2 * np.pi / N, n)
        datum = random_field(g, seed=n, support=n // 3 - 2,
                             envelope=lambda a: (1.0 + a ** 2) ** 0.625)
        datum = datum * (scale / apply_I(rescale_datum(datum, 1.0 / N),
                                         IMultiplier(N)).l2_norm())
        mult = IMultiplier(N)
        counted = _CountingMultiplier(mult)
        lam = imethod._solve_lambda(datum, counted, 0.1)
        ref, evals = _reference_solve_lambda(datum, mult, 0.1)
        assert np.float64(lam).tobytes() == np.float64(ref).tobytes()
        assert counted.calls == evals
        if scale == 1e-8:
            assert lam == 1.0 and evals == 1
        else:
            assert 0.0 < lam < 1.0 and evals > 2


class TestGwpCounters:
    def test_unit_step_counters_match_their_trajectories(self, monkeypatch):
        n, N = 128, 8.0
        g = Grid(2 * np.pi / N, n)
        datum = random_field(g, seed=3, support=n // 3 - 2,
                             envelope=lambda a: (1.0 + a ** 2) ** 0.625)
        datum = datum * (0.1 / apply_I(rescale_datum(datum, 1.0 / N),
                                       IMultiplier(N)).l2_norm())
        trajectories = []

        def recording(u0, config, t0=0.0):
            trajectories.append(simulate(u0, config, t0))
            return trajectories[-1]

        monkeypatch.setattr(imethod, "simulate", recording)
        result = imethod.gwp_experiment(GwpConfig(threshold=N, steps=2), datum, D)
        assert len(trajectories) == 2
        assert result.steps == [t.steps for t in trajectories]
        assert result.dt == [t.dt for t in trajectories]
        assert result.peak_growth == [t.peak_growth for t in trajectories]
        assert all(s * dt == pytest.approx(1.0) for s, dt in zip(result.steps, result.dt))
        assert all(0.5 < p < 2.0 for p in result.peak_growth)
        assert len(result.times) == len(result.e2) == 3
