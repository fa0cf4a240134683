"""Lattice, dispersion, dyadic decomposition, and smoothing multiplier."""

import numpy as np
import pytest

from kawalab import (
    DispersionParams,
    Grid,
    IMultiplier,
    SpectralField,
    apply_I,
    dispersive_order_audit,
    eta_k,
    free_evolve,
    homogeneous_seminorm,
    load_field,
    omega,
    project_dyadic,
    project_low,
    rescale_datum,
    save_field,
    shell_count,
    sobolev_norm,
)
from kawalab.grid import require_hermitian


def random_field(grid, seed=0, envelope=None, support=None):
    rng = np.random.default_rng(seed)
    return SpectralField.random_real(grid, rng, envelope=envelope, support=support)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 64)
        with pytest.raises(ValueError):
            Grid(1.0, 48)
        with pytest.raises(ValueError):
            Grid(1.0, 4)

    def test_frequencies(self):
        g = Grid(256 * np.pi, 1024)
        assert g.dxi == pytest.approx(1.0 / 128.0)
        assert g.xi_max == pytest.approx(4.0)
        assert g.modes[0] == 0
        assert g.modes[g.nyquist_index] == -512

    def test_plancherel_exact(self):
        g = Grid(8 * np.pi, 256)
        u = random_field(g, 3, envelope=lambda a: np.exp(-a * a))
        spatial = np.sum(u.to_physical() ** 2) * g.dx
        assert abs(spatial - u.l2_norm() ** 2) <= 1e-12 * spatial

    def test_hermitian_and_nyquist(self):
        g = Grid(2 * np.pi, 64)
        u = random_field(g, 5)
        assert u.hermitian_defect() <= 1e-13
        assert u.coeffs[g.nyquist_index] == 0

    def test_real_flag_requires_hermitian_symmetry(self):
        g = Grid(2 * np.pi, 64)
        with pytest.raises(ValueError):
            SpectralField.from_mode_dict(g, {3: 1.0})
        with pytest.raises(ValueError):
            SpectralField.from_mode_dict(g, {3: 1.0, -3: 1.0 + 1e-8})
        with pytest.raises(ValueError):
            SpectralField.from_mode_dict(g, {3: 1.0j, -3: 1.0j})
        # mirrored partners, the zero mode and the top mode below Nyquist
        u = SpectralField.from_mode_dict(g, {0: 2.0, 3: 1.0 + 2.0j, -3: 1.0 - 2.0j,
                                             31: 0.5j, -31: -0.5j})
        assert u.hermitian_defect() == 0.0
        assert SpectralField.from_mode_dict(g, {3: 1.0, -3: 0.5},
                                            real=False).hermitian_defect() == 0.5

    # a coefficient at a mirrored pair, at both partners, and at the zero mode
    NON_FINITE = [({3: np.nan, -3: 1.0}, "nan pair"),
                  ({3: np.inf, -3: 1.0}, "inf pair"),
                  ({3: np.inf, -3: np.inf}, "inf both"),
                  ({3: 1j * np.inf, -3: -1j * np.inf}, "imaginary inf both"),
                  ({0: np.nan}, "nan zero mode"),
                  ({0: np.inf}, "inf zero mode")]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("amplitudes", [a for a, _ in NON_FINITE],
                             ids=[name for _, name in NON_FINITE])
    def test_non_finite_coefficients_rejected(self, amplitudes):
        g = Grid(2 * np.pi, 64)
        c = SpectralField.from_mode_dict(g, amplitudes, real=False).coeffs
        with pytest.raises(ValueError, match="not finite"):
            require_hermitian(c)
        with pytest.raises(ValueError, match="not finite"):
            SpectralField(g, c)
        rows = np.tile(random_field(g, 2).coeffs, (3, 1))
        rows[1] = c
        with pytest.raises(ValueError, match="not finite"):
            require_hermitian(rows)

    @pytest.mark.parametrize("bad", [0, 63, 64, 100, 129])
    def test_hermitian_check_covers_every_row_block(self, bad):
        g = Grid(2 * np.pi, 64)
        rows = np.stack([random_field(g, seed).coeffs for seed in range(130)])
        require_hermitian(rows)
        rows[bad, 3] += 1e-6
        with pytest.raises(ValueError):
            require_hermitian(rows)


class TestSobolevNorms:
    def test_zero_field(self):
        g = Grid(2 * np.pi, 64)
        assert sobolev_norm(SpectralField.zero(g), -1.75) == 0.0

    def test_single_mode(self):
        g = Grid(4 * np.pi, 64)
        u = SpectralField.from_mode_dict(g, {3: 1.0}, real=False)
        xi = 3 * g.dxi
        for s in (-1.75, 0.0):
            expect = (1 + xi * xi) ** (s / 2) * np.sqrt(g.dxi)
            assert sobolev_norm(u, s) == pytest.approx(expect, rel=1e-13)

    def test_s0_equals_l2(self):
        g = Grid(8 * np.pi, 128)
        u = random_field(g, 11)
        assert sobolev_norm(u, 0.0) == pytest.approx(u.l2_norm(), rel=1e-12)


class TestDispersion:
    def test_omega_values(self):
        d = DispersionParams(1.0)
        assert omega(0.0, d) == 0.0
        assert omega(1.0, d) == 0.0
        assert omega(2.0, d) == -24.0

    def test_omega_odd(self):
        d = DispersionParams(0.37)
        xi = np.linspace(-9, 9, 101)
        assert np.all(omega(-xi, d) == -omega(xi, d))

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            DispersionParams(1.5)
        DispersionParams(0.0)
        DispersionParams(-1.0)

    def test_free_evolve_identity_and_unitarity(self):
        g = Grid(2 * np.pi, 64)
        d = DispersionParams(1.0)
        u = random_field(g, 1)
        same = free_evolve(u, 0.0, d)
        assert np.array_equal(same.coeffs, u.coeffs)
        w = free_evolve(u, 0.37, d)
        assert abs(w.l2_norm() / u.l2_norm() - 1.0) <= 1e-13

    def test_single_zero_speed_mode(self):
        g = Grid(2 * np.pi, 64)
        d = DispersionParams(1.0)
        u = SpectralField.from_mode_dict(g, {1: 0.5, -1: 0.5})
        w = free_evolve(u, 1.234, d)  # omega(1) = 0 at mu = 1, dxi = 1
        assert np.max(np.abs(w.coeffs - u.coeffs)) <= 1e-15

    def test_group_property(self):
        # phase composition is exact up to |omega*t| ulps, so keep the
        # lattice low-frequency for the tight tolerance
        g = Grid(8 * np.pi, 32)
        d = DispersionParams(0.7)
        u = random_field(g, 2)
        a = free_evolve(free_evolve(u, 0.21, d), 0.34, d)
        b = free_evolve(u, 0.55, d)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(b.coeffs))

    def test_real_fields_stay_real(self):
        g = Grid(2 * np.pi, 64)
        d = DispersionParams(0.9)
        u = random_field(g, 9)
        w = free_evolve(u, 0.7, d)
        assert w.hermitian_defect() <= 1e-13


class TestDispersiveOrder:
    def test_worked_values(self):
        rep = dispersive_order_audit(DispersionParams(1.0), [4.0])
        assert rep["first_order"]["max"] == pytest.approx(1232.0 / 256.0)
        rep0 = dispersive_order_audit(DispersionParams(0.0), [2.0 ** 12])
        assert rep0["first_order"]["min"] == pytest.approx(5.0)

    def test_bracket_positive(self):
        xi = np.concatenate([np.geomspace(2, 2 ** 12, 2000),
                             -np.geomspace(2, 2 ** 12, 2000)])
        rep = dispersive_order_audit(DispersionParams(1.0), xi)
        assert rep["first_order"]["min"] > 1.0
        assert rep["second_order"]["min"] > 1.0
        assert rep["second_order"]["max"] < 30.0

    def test_rejects_low_frequency(self):
        with pytest.raises(ValueError):
            dispersive_order_audit(DispersionParams(1.0), [1.0])


class TestDyadic:
    def test_partition_of_unity(self):
        g = Grid(8 * np.pi, 256)
        u = random_field(g, 21)
        total = np.zeros(g.size, dtype=np.complex128)
        for k in range(shell_count(g) + 1):
            total += project_dyadic(u, k).coeffs
        ref = u.coeffs.copy()
        ref[g.nyquist_index] = 0.0
        assert np.max(np.abs(total - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1)

    def test_plateau_passthrough(self):
        # eta_k == 1 on [0.8, 1.25] * 2^k; the shell center 2^k qualifies
        g = Grid(2 * np.pi, 256)
        for k in (2, 4, 6):
            u = SpectralField.from_mode_dict(g, {2 ** k: 1.0, -(2 ** k): 1.0})
            p = project_dyadic(u, k)
            assert np.max(np.abs(p.coeffs - u.coeffs)) <= 1e-15

    def test_disjoint_support(self):
        g = Grid(2 * np.pi, 256)
        k = 3
        u = SpectralField.from_mode_dict(g, {2 ** (k + 3): 1.0, -(2 ** (k + 3)): 1.0})
        assert np.max(np.abs(project_dyadic(u, k).coeffs)) == 0.0

    def test_separated_shells_orthogonal(self):
        xi = np.linspace(-600, 600, 4001)
        for k, j in ((2, 4), (1, 3), (2, 5), (1, 4), (3, 8)):
            assert np.max(np.abs(eta_k(xi, k) * eta_k(xi, j))) == 0.0

    def test_low_projection_matches_shell_zero(self):
        g = Grid(8 * np.pi, 128)
        u = random_field(g, 4)
        a = project_low(u, 0)
        b = project_dyadic(u, 0)
        assert np.max(np.abs(a.coeffs - b.coeffs)) == 0.0


class TestIMultiplier:
    def test_piecewise_values(self):
        m = IMultiplier(2.0, -1.75)
        assert m.m(1.0) == 1.0
        assert m.m(-1.0) == 1.0
        assert m.m(4.0) == pytest.approx(2.0 ** -1.75, rel=1e-12)
        assert m.m(16.0) == pytest.approx((16.0 / 2.0) ** -1.75, rel=1e-12)

    def test_even_and_monotone(self):
        m = IMultiplier(8.0)
        xi = np.linspace(0.0, 128.0, 4097)
        vals = m.m(xi)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.max(np.abs(m.m(-xi) - vals)) == 0.0

    def test_log_derivative_bound(self):
        # |(m^2)'| |xi| / m^2 <= 10 via difference quotients
        m = IMultiplier(16.0, -1.75)
        xi = np.geomspace(16.0, 16.0 * 2 ** 10, 20000)
        h = 1e-5 * xi
        quot = np.abs(m.m2(xi + h) - m.m2(xi - h)) / (2 * h)
        ratio = quot * xi / m.m2(xi)
        assert np.max(ratio) <= 10.0

    def test_m2_difference_bound(self):
        m = IMultiplier(8.0, -1.75)
        rng = np.random.default_rng(0)
        xi = np.exp(rng.uniform(np.log(8.0), np.log(8000.0), 5000))
        h = rng.uniform(-0.1, 0.1, 5000) * xi
        lhs = np.abs(m.m2(xi + h) - m.m2(xi))
        rhs = 10.0 * np.abs(h) * m.m2(xi) / xi
        assert np.all(lhs <= rhs)

    def test_identity_below_threshold(self):
        g = Grid(2 * np.pi, 128)
        m = IMultiplier(16.0)
        u = random_field(g, 8, support=15)
        v = apply_I(u, m)
        assert np.max(np.abs(v.coeffs - u.coeffs)) == 0.0

    def test_commutes_with_free_flow(self):
        g = Grid(4 * np.pi, 128)
        m = IMultiplier(4.0)
        d = DispersionParams(0.8)
        u = random_field(g, 13)
        a = apply_I(free_evolve(u, 0.3, d), m)
        b = free_evolve(apply_I(u, m), 0.3, d)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(a.coeffs))


class TestRescale:
    def test_identity(self):
        g = Grid(2 * np.pi, 64)
        u = random_field(g, 2)
        v = rescale_datum(u, 1.0)
        assert v.grid == u.grid
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_l2_scaling(self):
        g = Grid(2 * np.pi, 128)
        u = random_field(g, 3)
        v = rescale_datum(u, 0.5)
        assert v.grid.length == pytest.approx(2 * u.grid.length)
        assert v.l2_norm() / u.l2_norm() == pytest.approx(2.0 ** -3.5, rel=1e-10)

    def test_homogeneous_seminorm_scaling(self):
        g = Grid(2 * np.pi, 128)
        u = random_field(g, 4)
        v = rescale_datum(u, 0.5)
        ratio = homogeneous_seminorm(v, -1.75) / homogeneous_seminorm(u, -1.75)
        assert ratio == pytest.approx(2.0 ** -1.75, rel=1e-8)

    def test_rejects_bad_lambda(self):
        g = Grid(2 * np.pi, 64)
        u = random_field(g, 5)
        for lam in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                rescale_datum(u, lam)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = Grid(8 * np.pi, 64)
        u = random_field(g, 17, envelope=lambda a: 1.0 / (1.0 + a))
        path = tmp_path / "field.txt"
        save_field(u, path)
        v = load_field(path)
        assert v.grid == u.grid
        assert v.real == u.real
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_overwrite_is_atomic_and_leaves_no_temp_file(self, tmp_path):
        g = Grid(8 * np.pi, 64)
        path = tmp_path / "field.txt"
        save_field(random_field(g, 1), path)
        u = random_field(g, 2)
        save_field(u, path)
        v = load_field(path)
        assert v.grid == u.grid and v.real == u.real
        assert np.array_equal(v.coeffs, u.coeffs)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field.txt"]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a field\n")
        with pytest.raises(ValueError):
            load_field(path)
