"""Space-time norms and the Duhamel bilinear operator."""

import numpy as np
import pytest

from kawalab import DispersionParams, Grid, SpectralField, resonance
from kawalab.dyadic import eta0, eta_k
from kawalab.spacetime import (
    SpaceTimeField,
    duhamel_bilinear,
    fbar_norm,
    free_trajectory,
    uniform_times,
    xk_norm,
    xsb_norm,
)

D = DispersionParams(1.0)


def shell_packet(grid, k, seed=0):
    rng = np.random.default_rng(seed)
    u = SpectralField.random_real(grid, rng,
                                  envelope=lambda a: np.sqrt(eta_k(a, k)))
    return u * (1.0 / u.l2_norm())


def windowed_free(grid, phi, t_box=8.0, n_t=2048):
    times = uniform_times(-t_box / 2, t_box / 2, n_t)
    _, fields = free_trajectory(phi, D, times)
    return times, fields, SpaceTimeField.from_samples(grid, times, fields)


class TestSpaceTimeNorms:
    def test_unit_weight_is_spacetime_l2(self):
        g = Grid(16 * np.pi, 128)
        phi = shell_packet(g, 1)
        times, fields, F = windowed_free(g, phi)
        direct = np.sqrt(sum(
            (eta0(t) * f.l2_norm()) ** 2 * (times[1] - times[0])
            for t, f in zip(times, fields)))
        assert xsb_norm(F, 0.0, 0.0, D) == pytest.approx(direct, rel=1e-12)

    def test_homogeneity(self):
        g = Grid(16 * np.pi, 128)
        phi = shell_packet(g, 1, seed=3)
        times, fields, F = windowed_free(g, phi)
        tripled = SpaceTimeField(g, F.t_box, 3.0 * F.coeffs2d)
        for (s, b) in ((0.0, 0.5), (-1.75, 0.5)):
            assert xsb_norm(tripled, s, b, D) == pytest.approx(
                3.0 * xsb_norm(F, s, b, D), rel=1e-12)
        assert xk_norm(tripled, 1, D) == pytest.approx(
            3.0 * xk_norm(F, 1, D), rel=1e-12)

    def test_free_flow_concentrates_on_low_modulation(self):
        g = Grid(16 * np.pi, 128)
        phi = SpectralField.from_mode_dict(g, {24: 1.0, -24: 1.0})
        _, _, F = windowed_free(g, phi, n_t=4096)
        mod = F.tau[:, None] - (D.mu * g.xi ** 3 - g.xi ** 5)[None, :]
        mag2 = np.abs(F.coeffs2d) ** 2
        share = np.sum(mag2 * eta0(mod / 4.0)) / np.sum(mag2)
        assert share >= 0.9

    def test_xk_dominates_shell_l2_aggregate(self):
        g = Grid(16 * np.pi, 128)
        k = 1
        phi = shell_packet(g, k, seed=7)
        _, _, F = windowed_free(g, phi)
        # l1 over modulation shells >= the l2 aggregate
        total = xsb_norm(SpaceTimeField(
            g, F.t_box, eta_k(g.xi, k)[None, :] * F.coeffs2d), 0.0, 0.0, D)
        assert xk_norm(F, k, D) >= total * (1 - 1e-12)

    def test_fbar_norm_positive_and_scales(self):
        g = Grid(16 * np.pi, 128)
        phi = shell_packet(g, 1, seed=9)
        times = uniform_times(-4.0, 4.0, 1024)
        _, fields = free_trajectory(phi, D, times)
        base = fbar_norm(times, fields, -1.75, D)
        doubled = fbar_norm(times, [f * 2.0 for f in fields], -1.75, D)
        assert base > 0
        assert doubled == pytest.approx(2.0 * base, rel=1e-10)


class TestDuhamel:
    def _mode_pair(self, grid, m0, amp):
        return SpectralField.from_mode_dict(grid, {m0: amp, -m0: amp})

    def test_zero_input(self):
        g = Grid(16 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 64)
        _, fu = free_trajectory(self._mode_pair(g, 5, 0.1), D, times)
        _, fz = free_trajectory(SpectralField.zero(g), D, times)
        out = duhamel_bilinear(times, fz, fu, D)
        assert all(np.max(np.abs(f.coeffs)) == 0.0 for f in out["fields"])

    def test_symmetry(self):
        g = Grid(16 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 256)
        rng = np.random.default_rng(4)
        u0 = SpectralField.random_real(g, rng, support=6)
        v0 = SpectralField.random_real(g, rng, support=6)
        _, fu = free_trajectory(u0, D, times)
        _, fv = free_trajectory(v0, D, times)
        a = duhamel_bilinear(times, fu, fv, D)
        b = duhamel_bilinear(times, fv, fu, D)
        for fa, fb in zip(a["fields"], b["fields"]):
            assert np.max(np.abs(fa.coeffs - fb.coeffs)) <= 1e-14

    def test_single_mode_closed_form(self):
        g = Grid(16 * np.pi, 256)
        m0, amp = 8, 0.1
        times = uniform_times(-2.0, 2.0, 1024)
        _, fu = free_trajectory(self._mode_pair(g, m0, amp), D, times)
        res = duhamel_bilinear(times, fu, fu, D)
        assert res["quadrature_change"] < 0.005
        xi0 = m0 * g.dxi
        idx = int(np.argmin(np.abs(res["times"] - 1.0)))
        t = float(res["times"][idx])
        theta = float(resonance(xi0, xi0, D))
        omega2 = D.mu * (2 * xi0) ** 3 - (2 * xi0) ** 5
        expected = (1j * 2 * xi0 * amp * amp * g.dxi / np.sqrt(2 * np.pi)
                    * np.exp(1j * omega2 * t)
                    * (np.exp(1j * theta * t) - 1.0) / (1j * theta))
        got = res["fields"][idx].coeffs[g.index_of_mode(2 * m0)]
        assert abs(got - expected) <= 0.01 * abs(expected)
        # spectrum confined to 0 and +-2 xi0
        mask = np.ones(g.size, dtype=bool)
        for m in (0, 2 * m0, -2 * m0):
            mask[g.index_of_mode(m)] = False
        assert np.max(np.abs(res["fields"][idx].coeffs[mask])) <= 1e-14

    def test_quadrature_change_of_nearly_equal_fields(self):
        # full and stride-2 outputs agree so closely here that their
        # difference is not Hermitian to the relative 1e-10 of a real field
        g = Grid(8 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 1024)
        _, fu = free_trajectory(self._mode_pair(g, 4, 0.1), D, times)
        res = duhamel_bilinear(times, fu, fu, D)
        assert 0.0 < res["quadrature_change"] < 0.005

    def test_coarse_grid_rejected(self):
        g = Grid(16 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 4)
        with pytest.raises(ValueError):
            duhamel_bilinear(times, [], [], D)
