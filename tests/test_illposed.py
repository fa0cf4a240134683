"""Band datum and iterates of the smoothness-breaking construction."""

import numpy as np
import pytest

from kawalab import DispersionParams
from kawalab.dispersion import phasor, resonance
from kawalab.illposed import (
    _THETA_CUT_FACTOR,
    FrequencyBoxDatum,
    IllposedConfig,
    _a3_band_values,
    _gauss,
    _legendre,
    _phase_quotient,
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


class TestIterates:
    CFG = IllposedConfig(n_list=(128, 256))

    def test_first_iterate_norm_preserved(self):
        out = iterate_A(self.CFG, 128, 1)
        assert out["hs_norm"] == out["datum"].hs_norm

    @pytest.mark.parametrize("theta", [
        # series branch, |theta t/2| < 1e-6 (above 5e-7, so the closed
        # form's cancellation stays far below the tolerance)
        2.5e-6, -3.0e-6, 3.9e-6,
        # sinc branch
        4.1e-6, -1e-3, 0.7, -3.0, 250.0, 1e5])
    def test_phase_quotient_matches_closed_form(self, theta):
        t = 0.5
        got = _phase_quotient(np.array([theta]), t)
        want = (phasor(np.array([theta]), t) - 1.0) / (1j * theta)
        assert np.abs(got - want)[0] <= 1e-9 * np.abs(want)[0]

    def test_phase_quotient_at_zero_is_t(self):
        assert _phase_quotient(np.array([0.0]), 0.5)[0] == 0.5

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


def reference_a3_band_values(datum, disp, xi, t, quad_points, theta_cut):
    """The dense per-block loop: every (xi, xa) row of each band block is
    evaluated, and the rows with an empty xb interval carry weight 0."""
    xi = np.asarray(xi, dtype=np.float64)
    N, r, a = datum.N, datum.r, datum.amplitude
    g1 = np.zeros(xi.shape, dtype=np.complex128)
    tail = np.zeros_like(g1)
    g2 = np.zeros_like(g1)
    theta_crit_max = 0.0
    crit_mass = 0.0
    crit_small = 0.0
    nodes, weights = _legendre(quad_points)
    for sa in (1.0, -1.0):
        a_lo, a_hi = sa * N - r, sa * N + r
        xa = 0.5 * (a_lo + a_hi) + 0.5 * (a_hi - a_lo) * nodes
        wa = 0.5 * (a_hi - a_lo) * weights
        for sb in (1.0, -1.0):
            for s1 in (1.0, -1.0):
                # xb in band(sb) and x1 = xi - xa - xb in band(s1)
                lo = np.maximum(sb * N - r, xi[:, None] - xa[None, :] - (s1 * N + r))
                hi = np.minimum(sb * N + r, xi[:, None] - xa[None, :] - (s1 * N - r))
                width = hi - lo
                has = width > 0
                if not np.any(has):
                    continue
                xb = 0.5 * (lo + hi)[:, :, None] \
                    + 0.5 * width[:, :, None] * nodes[None, None, :]
                wb = 0.5 * np.where(has, width, 0.0)[:, :, None] * weights[None, None, :]
                x1 = xi[:, None, None] - xa[None, :, None] - xb
                om_ab = resonance(xa[None, :, None], xb, disp)
                # the resonant phase collapses to O((log N)^-2); the factored
                # form keeps it exact where the raw omega sums (~N^5) cancel
                theta = theta_eval(x1, xa[None, :, None], xb, disp)
                om_1p = theta - om_ab
                pref = (
                    -xi[:, None, None]
                    * (xa[None, :, None] + xb)
                    / (2.0 * np.pi)
                    * (a ** 3)
                    * wa[None, :, None] * wb
                )
                e_theta = _phase_quotient(theta, t) / (1j * om_ab)
                e_flow = _phase_quotient(om_1p, t) / (1j * om_ab)
                small = np.abs(theta) <= theta_cut
                g1 += np.sum(pref * e_theta * small, axis=(1, 2))
                tail += np.sum(pref * e_theta * ~small, axis=(1, 2))
                g2 += np.sum(pref * e_flow, axis=(1, 2))
                mixed = (sa != sb) or (sa != s1)
                if mixed:
                    theta_crit_max = max(
                        theta_crit_max,
                        float(np.max(np.abs(theta) * has[:, :, None])),
                    )
                    crit_mass += float(np.sum(np.abs(wa[None, :, None] * wb)))
                    crit_small += float(np.sum(np.abs(wa[None, :, None] * wb) * small))
    diag = {
        "theta_crit_max": theta_crit_max,
        "small_theta_fraction": crit_small / crit_mass if crit_mass else 0.0,
    }
    return g1, tail, g2, diag


class TestLiveRowQuadrature:
    """The third iterate's live-row quadrature against the dense loop: the
    values agree to rounding (the node sums are grouped differently), the
    weight diagnostics exactly."""

    @pytest.mark.parametrize("N", [128, 1024])
    @pytest.mark.parametrize("quad_points", [8, 16])
    def test_matches_dense_loop(self, N, quad_points):
        cfg = IllposedConfig(n_list=(N,))
        datum = build_datum(cfg, N)
        disp = DispersionParams(cfg.mu)
        r = datum.r
        cut = _THETA_CUT_FACTOR * r * r * N ** 3
        # both output bands, plus 2N, where no block has a live row
        xi = np.concatenate([_gauss(N - 3 * r, N + 3 * r, 16)[0],
                             _gauss(3 * N - 3 * r, 3 * N + 3 * r, 16)[0],
                             [2.0 * N]])
        got = _a3_band_values(datum, disp, xi, cfg.t_eval, quad_points, cut)
        ref = reference_a3_band_values(datum, disp, xi, cfg.t_eval, quad_points, cut)
        for g, e in zip(got[:3], ref[:3]):
            assert np.max(np.abs(g - e)) <= 1e-13 * np.max(np.abs(e))
            assert g[-1] == 0.0 and e[-1] == 0.0
        assert np.max(np.abs(ref[0])) > 0.0 and np.max(np.abs(ref[2])) > 0.0
        assert got[3] == ref[3]
        assert got[3]["small_theta_fraction"] > 0.0


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
