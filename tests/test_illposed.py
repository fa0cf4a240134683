"""Band datum and iterates of the smoothness-breaking construction."""

import numpy as np
import pytest

from kawalab import DispersionParams
from kawalab.illposed import (
    FrequencyBoxDatum,
    IllposedConfig,
    band_halfwidth,
    build_datum,
    growth_fit,
    illposed_sweep,
    iterate_A,
    theta_direct,
    theta_eval,
)


class TestTheta:
    def test_worked_triple(self):
        d0 = DispersionParams(0.0)
        assert theta_direct(1.0, 1.0, 1.0, d0) == pytest.approx(240.0)
        assert theta_eval(1.0, 1.0, 1.0, d0) == pytest.approx(240.0)

    def test_vanishing_pair_sum(self):
        d = DispersionParams(0.7)
        assert theta_eval(3.0, -3.0, 11.0, d) == 0.0

    def test_dual_evaluation(self):
        d = DispersionParams(0.43)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10000, 3)) * 100.0
        td = theta_direct(x[:, 0], x[:, 1], x[:, 2], d)
        tf = theta_eval(x[:, 0], x[:, 1], x[:, 2], d)
        rel = np.abs(td - tf) / np.maximum(np.abs(td) + np.abs(tf), 1e-300)
        assert np.max(rel) < 1e-11


class TestDatum:
    CFG = IllposedConfig()

    def test_band_width(self):
        assert band_halfwidth(128.0) == pytest.approx(
            1.0 / (128.0 ** 1.5 * np.log(128.0)))

    def test_normalized_norm(self):
        for N in (128.0, 256.0, 2048.0):
            datum = build_datum(self.CFG, N)
            assert 0.9 <= datum.hs_norm <= 1.1

    def test_raw_band_integral_is_four(self):
        # with the raw amplitude r^-1/2 N^-s the squared band integral of
        # <xi>^(2s) over both bands evaluates near 4; the datum halves the
        # amplitude to sit at norm 1
        N = 512.0
        r = band_halfwidth(N)
        s = self.CFG.sobolev_s
        amp = r ** -0.5 * N ** -s
        xi = np.linspace(N - r, N + r, 20001)
        integrand = amp ** 2 * (1 + xi ** 2) ** s
        total = 2.0 * np.trapezoid(integrand, xi)
        assert total == pytest.approx(4.0, rel=0.1)
        datum = build_datum(self.CFG, N)
        assert datum.hs_norm == pytest.approx(np.sqrt(total) / 2.0, rel=1e-3)

    def test_flat_weight_case(self):
        cfg = IllposedConfig(sobolev_s=0.0, n_list=(256,))
        datum = build_datum(cfg, 256.0)
        # s = 0: the <xi> correction is O(N^-2)
        assert datum.hs_norm == pytest.approx(1.0, rel=1e-4)

    def test_profile_support(self):
        datum = build_datum(self.CFG, 128.0)
        xi = np.array([128.0, 128.0 + 2 * datum.r, -128.0, 5.0])
        vals = datum.profile(xi)
        assert vals[0] == datum.amplitude and vals[2] == datum.amplitude
        assert vals[1] == 0.0 and vals[3] == 0.0


class TestIterates:
    CFG = IllposedConfig(n_list=(128, 256))

    def test_first_iterate_norm_preserved(self):
        out = iterate_A(self.CFG, 128, 1)
        assert out["hs_norm"] == out["datum"].hs_norm

    def test_second_iterate_split_consistent(self):
        # low band frequency so the two phase paths are both representable;
        # the agreement floor is |omega t| ulps
        from kawalab.illposed import _a2_band_values

        cfg = IllposedConfig(n_list=(8,))
        datum = build_datum(cfg, 8)
        disp = DispersionParams(cfg.mu)
        xi = np.linspace(2 * 8 - datum.r, 2 * 8 + datum.r, 17)
        total = _a2_band_values(datum, disp, xi, 0.5, 32)
        free, flow = _a2_band_values(datum, disp, xi, 0.5, 32, split=True)
        assert np.max(np.abs(total - (free - flow))) <= 1e-9 * np.max(np.abs(total))

    def test_second_iterate_support_bands(self):
        # output spectrum confined to |xi| in [2N-2r, 2N+2r] and [0, 2r]
        from kawalab.illposed import _a2_band_values

        datum = build_datum(self.CFG, 128)
        disp = DispersionParams(self.CFG.mu)
        outside = np.array([64.0, 128.0, 200.0, 3 * 128.0])
        vals = _a2_band_values(datum, disp, outside, 0.5, 32)
        assert np.max(np.abs(vals)) == 0.0
        inside = np.array([2 * 128.0, datum.r])
        vals_in = _a2_band_values(datum, disp, inside, 0.5, 32)
        assert np.all(np.abs(vals_in) > 0.0)

    def test_iterate_orders(self):
        with pytest.raises(ValueError):
            iterate_A(self.CFG, 128, 4)

    def test_small_theta_scaling(self):
        rows = illposed_sweep(IllposedConfig(n_list=(128, 256, 512)))
        scaled = [r["theta_crit_max"] * np.log(r["N"]) ** 2 for r in rows]
        assert max(scaled) / min(scaled) < 2.0

    def test_g2_share_monotone_decreasing(self):
        rows = illposed_sweep(IllposedConfig(n_list=(128, 256, 512, 1024)))
        shares = [r["g2_over_g1"] for r in rows]
        assert all(a > b for a, b in zip(shares, shares[1:]))


class TestTailFloor:
    CFG = IllposedConfig(n_list=(128,), quad_points=16, out_points=16)

    def test_tail_below_resolution_reads_zero(self):
        raw = iterate_A(self.CFG, 128, 3, quad_points=2 * self.CFG.quad_points)
        assert 0.0 < raw["tail_norm"] < 1e-9 * raw["hs_norm"]
        (row,) = illposed_sweep(self.CFG)
        assert row["tail_norm"] == 0.0
        assert row["a3_norm"] == raw["hs_norm"]

    @pytest.mark.parametrize("share, kept", [(2e-9, True), (0.5e-9, False)])
    def test_floor_is_relative_to_a3_norm(self, monkeypatch, share, kept):
        from kawalab import illposed

        inner = illposed.iterate_A

        def resolved_tail(config, N, order, quad_points=None):
            out = inner(config, N, order, quad_points)
            if order == 3:
                out = dict(out, tail_norm=share * out["hs_norm"])
            return out

        monkeypatch.setattr(illposed, "iterate_A", resolved_tail)
        (row,) = illposed_sweep(self.CFG)
        assert row["tail_norm"] == (share * row["a3_norm"] if kept else 0.0)


class TestGrowthFit:
    def test_expected_exponents(self):
        assert -2.0 * (-2.5) - 4.5 == pytest.approx(0.5)
        assert -2.0 * (-2.25) - 4.5 == pytest.approx(0.0)

    def test_needs_four_points(self):
        cfg = IllposedConfig(n_list=(128, 256))
        with pytest.raises(ValueError):
            growth_fit(cfg, rows=illposed_sweep(cfg))

    def test_boundary_index_is_flat(self):
        cfg = IllposedConfig(sobolev_s=-2.25, n_list=(128, 256, 512, 1024),
                             quad_points=32, out_points=48)
        fit = growth_fit(cfg)
        assert abs(fit["slope"]) <= 0.1
