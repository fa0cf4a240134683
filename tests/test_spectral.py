"""Lattice, dispersion, dyadic decomposition, and smoothing multiplier."""

import math
from decimal import Decimal, localcontext

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
from kawalab import dispersion
from kawalab.dispersion import PHASE_EXACT_RANGE, _exact_scale, _reduced_phase, phasor
from kawalab.grid import _full_spectrum, require_hermitian


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

    @pytest.mark.parametrize("length", [np.nan, np.inf, 0.0])
    def test_rejects_nonfinite_length(self, length):
        with pytest.raises(ValueError):
            Grid(length, 64)

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
        # a defect inside the 1e-10 tolerance is kept and reported
        near = SpectralField.from_mode_dict(g, {3: 1.0, -3: 1.0 + 5e-11})
        assert near.hermitian_defect() == pytest.approx(5e-11, rel=1e-6)

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
        c = np.zeros(g.size, dtype=np.complex128)
        for m, a in amplitudes.items():
            c[g.index_of_mode(m)] = a
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
        u = SpectralField.from_mode_dict(g, {3: 1.0, -3: 1.0})
        xi = 3 * g.dxi
        for s in (-1.75, 0.0):
            expect = (1 + xi * xi) ** (s / 2) * np.sqrt(2.0 * g.dxi)
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


class TestPhasor:
    """``phasor(w, t) = exp(i w t)`` with ``w t`` reduced in float64 by a
    double-double product and a Cody-Waite split of 2 pi. The lattice
    reaches |omega| ~ 1e12, so ``|w t|`` reaches 1e6 at ``t = 1e-6``."""

    G = Grid(2 * np.pi, 512)
    D = DispersionParams(0.6)
    TIMES = (1e-6, 0.37e-6, np.linspace(-2e-6, 3e-6, 9)[:, None])

    @pytest.mark.parametrize("t", TIMES)
    def test_conjugate_symmetric(self, t):
        # a reduction by np.mod, which maps w t and -w t to remainders of
        # one sign, fails this
        w = omega(self.G.xi, self.D)
        assert np.array_equal(phasor(-w, t), np.conj(phasor(w, t)))

    @pytest.mark.parametrize("t", TIMES)
    def test_conjugate_at_negated_time(self, t):
        # duhamel_bilinear evaluates exp(i w t) once and takes the conjugate
        # for exp(-i w t)
        w = omega(self.G.xi, self.D)
        assert np.array_equal(phasor(w, -t), np.conj(phasor(w, t)))

    @pytest.mark.parametrize("t", TIMES)
    def test_mirrored_half_spectrum_matches_full_grid(self, t):
        g = self.G
        w = omega(g.xi, self.D)
        mirrored = _full_spectrum(phasor(w[:g.size // 2 + 1], t))
        full = np.broadcast_to(phasor(w, t), mirrored.shape)
        off_nyquist = np.arange(g.size) != g.nyquist_index
        assert mirrored.shape == np.broadcast_shapes(w.shape, np.shape(t))
        assert mirrored[..., off_nyquist].tobytes() == full[..., off_nyquist].tobytes()
        assert np.all(mirrored[..., g.nyquist_index] == 0.0)

    @staticmethod
    def _decimal_reference(w, t):
        # w t formed exactly and reduced mod 2 pi to 80 digits; the reduced
        # phase then needs only double precision
        pi = Decimal("3.1415926535897932384626433832795028841971"
                     "693993751058209749445923078164062862089986")
        ref = np.empty(w.size, dtype=np.complex128)
        with localcontext() as ctx:
            ctx.prec = 80
            for i, (a, b) in enumerate(zip(w, t)):
                r = float((Decimal(float(a)) * Decimal(float(b))) % (2 * pi))
                ref[i] = complex(math.cos(r), math.sin(r))
        return ref

    def test_accuracy_inside_exact_range(self):
        # below PHASE_EXACT_RANGE the reduction is exact up to the final
        # roundings: a flat bound, where a double-double product with a
        # double pi would err by |w t| * 4e-17 (~3e-8 at the top)
        rng = np.random.default_rng(5)
        wt = PHASE_EXACT_RANGE * 10.0 ** rng.uniform(-9.0, 0.0, 400)
        t = 10.0 ** rng.uniform(-6.0, 0.0, 400)
        w = np.where(rng.random(400) < 0.5, -1.0, 1.0) * wt / t
        assert 8e8 < np.max(np.abs(w * t)) < PHASE_EXACT_RANGE
        err = np.abs(phasor(w, t) - self._decimal_reference(w, t))
        assert np.all(err <= 1e-15)

    def test_accuracy_above_exact_range(self):
        # above it k * 2 pi rounds, and the phase errs like a plain double
        # product w t; the ill-posedness quadrature reaches |w t| ~ 2.2e18
        rng = np.random.default_rng(6)
        wt = PHASE_EXACT_RANGE * 10.0 ** rng.uniform(0.0, math.log10(2.2e18 / PHASE_EXACT_RANGE), 400)
        t = 10.0 ** rng.uniform(-6.0, 0.0, 400)
        w = np.where(rng.random(400) < 0.5, -1.0, 1.0) * wt / t
        assert np.min(np.abs(w * t)) >= PHASE_EXACT_RANGE
        assert np.max(np.abs(w * t)) > 1e18
        err = np.abs(phasor(w, t) - self._decimal_reference(w, t))
        assert np.all(err <= 2.3e-16 * np.abs(w * t))


class TestExactScale:
    """A 0-d power-of-two ``t`` skips Dekker's two-product: ``w t`` is then
    exact, and the reduction must give the general path's bits."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(7)
        tiny = np.finfo(np.float64).smallest_subnormal
        sub = rng.integers(1, 2 ** 52, 4000).astype(np.uint64).view(np.float64)
        normal = 10.0 ** rng.uniform(-320.0, 18.0, 20000)
        w = np.concatenate([sub, normal, [0.0, tiny, 2.0 ** -1022, 1e18, 1e300, np.inf]])
        return np.concatenate([w, -w, [np.nan]])

    @staticmethod
    def same_bits(a, b):
        return bool(np.all((a.view(np.uint64) == b.view(np.uint64))
                           | (np.isnan(a) & np.isnan(b))))

    def test_scales_taken(self):
        taken = [0.25, -0.25, 0.5, 1.0, 2.0 ** 40, 2.0 ** 995]
        assert all(_exact_scale(np.asarray(t)) for t in taken)
        refused = [0.125, 2.0 ** 996, 3.0, 0.3, 0.0, np.inf, np.nan]
        assert not any(_exact_scale(np.asarray(t)) for t in refused)
        assert not _exact_scale(np.asarray([0.25]))

    @pytest.mark.parametrize("t", [0.25, -0.25, 0.5, 1.0, 2.0 ** 40])
    def test_bitwise_equal_general_path(self, monkeypatch, t):
        w = self.inputs()
        with np.errstate(invalid="ignore", over="ignore"):
            general = _reduced_phase(w, np.array([t]))
            splits = []
            split = dispersion._split
            monkeypatch.setattr(dispersion, "_split", lambda a: splits.append(a) or split(a))
            fast = _reduced_phase(w, t)
            assert not splits
            assert self.same_bits(fast, general)
            z = phasor(w, t)
            monkeypatch.setattr(dispersion, "_split", split)
            ref = phasor(w, np.array([t]))
        assert self.same_bits(z.real, ref.real) and self.same_bits(z.imag, ref.imag)
        assert np.isnan(fast[-1]) and np.isnan(fast[np.isinf(w)]).all()


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
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0])
    def test_rejects_nonfinite_threshold(self, threshold):
        with pytest.raises(ValueError):
            IMultiplier(threshold)

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

    def test_m2x_jet_closed_form(self):
        m = IMultiplier(8.0, -1.75)
        s = m.sobolev_s
        rng = np.random.default_rng(2)
        xi = rng.uniform(0.5, 64.0, 4000) * rng.choice([-1.0, 1.0], 4000)
        g, dg, d2g = m.m2x_jet(xi)
        assert np.array_equal(g, m.m2(xi) * xi)
        low, high = np.abs(xi) <= 8.0, np.abs(xi) >= 16.0
        assert np.all(dg[low] == 1.0) and np.all(d2g[low] == 0.0)
        m2 = m.m2(xi[high])
        assert np.allclose(dg[high], (1.0 + 2.0 * s) * m2, rtol=1e-14, atol=0.0)
        assert np.allclose(d2g[high], 2.0 * s * (1.0 + 2.0 * s) * m2 / xi[high],
                           rtol=1e-14, atol=0.0)
        # on (N, 2N), away from the junctions: central differences, O(h^2)
        mid = (np.abs(xi) > 8.1) & (np.abs(xi) < 15.9)
        h = 1e-4
        f = lambda x: m.m2(x) * x
        fd1 = (f(xi[mid] + h) - f(xi[mid] - h)) / (2.0 * h)
        fd2 = (f(xi[mid] + h) - 2.0 * g[mid] + f(xi[mid] - h)) / (h * h)
        assert np.max(np.abs(fd1 - dg[mid])) <= 1e-8
        assert np.max(np.abs(fd2 - d2g[mid])) <= 1e-4 * np.max(np.abs(d2g[mid]))
        # g and g'' are odd, g' is even
        ng, ndg, nd2g = m.m2x_jet(-xi)
        assert np.array_equal(ng, -g) and np.array_equal(ndg, dg)
        assert np.array_equal(nd2g, -d2g)

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
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_overwrite_is_atomic_and_leaves_no_temp_file(self, tmp_path):
        g = Grid(8 * np.pi, 64)
        path = tmp_path / "field.txt"
        save_field(random_field(g, 1), path)
        u = random_field(g, 2)
        save_field(u, path)
        v = load_field(path)
        assert v.grid == u.grid
        assert np.array_equal(v.coeffs, u.coeffs)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field.txt"]

    @pytest.mark.parametrize("mode", [-5, 4, 5])
    def test_rejects_out_of_range_mode(self, tmp_path, mode):
        # on n = 8 the modes are -4..3; mode 5 would alias to -3, 4 to -4
        path = tmp_path / "field.txt"
        path.write_text("kawalab-field 1\nL 6.283185307179586\nn 8\nreal 1\n"
                        f"m,re,im\n{mode},0.1,0.0\n{-mode},0.1,0.0\n")
        with pytest.raises(ValueError, match=f"mode {mode} lies outside"):
            load_field(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a field\n")
        with pytest.raises(ValueError):
            load_field(path)
