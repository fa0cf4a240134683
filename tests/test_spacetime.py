"""Space-time norms and the Duhamel bilinear operator."""

import numpy as np
import pytest

from kawalab import DispersionParams, Grid, SpectralField, resonance
from kawalab import spacetime
from kawalab.dispersion import omega
from kawalab.dyadic import SUPPORT, eta0, eta_k, project_low, shell_count
from kawalab.grid import apply_multiplier
from kawalab.solver import dealias_mask
from kawalab.spacetime import (
    SpaceTimeField,
    _first_shell,
    duhamel_bilinear,
    fbar_norm,
    free_trajectory,
    low_frequency_norm,
    modulation_profiles,
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
    _, coeffs = free_trajectory(phi, D, times)
    return times, coeffs, SpaceTimeField.from_samples(grid, times, coeffs)


def reference_modulation_profiles(F, disp):
    """Per-shell telescoping loop: one eta0 over the whole array per shell."""
    mod = F.tau[:, None] - omega(F.grid.xi, disp)[None, :]
    mag2 = np.abs(F.coeffs2d) ** 2
    top = np.max(np.abs(mod))
    j_max = 0
    while 1.25 * 2.0 ** j_max < top:
        j_max += 1
    prev, profiles = 0.0, []
    for j in range(j_max + 1):
        cur = eta0(mod / 2.0 ** j)
        profiles.append(np.sum((cur - prev) ** 2 * mag2, axis=0))
        prev = cur
    return np.array(profiles)


def reference_xk_norm(F, k, disp):
    """Per-shell loop: every modulation shell over the full 2-D array."""
    mod = F.tau[:, None] - (disp.mu * F.grid.xi ** 3 - F.grid.xi ** 5)[None, :]
    mag2 = np.abs(eta_k(F.grid.xi, k)[None, :] * F.coeffs2d) ** 2
    top = np.max(np.abs(mod))
    j_max = 0
    while 1.25 * 2.0 ** j_max < top:
        j_max += 1
    total = 0.0
    for j in range(j_max + 1):
        wj = eta_k(mod, j) if j > 0 else eta0(mod)
        total += 2.0 ** (j / 2.0) * np.sqrt(np.sum(wj ** 2 * mag2) * F.cell)
    return total


def reference_duhamel(grid, times, coeffs_u, coeffs_v, disp):
    """Per-sample forcing and a Python-loop trapezoid on both grids."""
    fields_u = [SpectralField(grid, c) for c in coeffs_u]
    fields_v = [SpectralField(grid, c) for c in coeffs_v]
    w = disp.mu * grid.xi ** 3 - grid.xi ** 5
    mask = dealias_mask(grid)

    def forcing(t, fu, fv):
        prod = eta0(t) ** 2 * fu.to_physical() * fv.to_physical()
        q = np.fft.fft(prod) * (grid.dx / np.sqrt(2 * np.pi))
        q = 1j * grid.xi * q * mask
        q[grid.nyquist_index] = 0.0
        return q

    def integrate(sub):
        ts = times[sub]
        dt = ts[1] - ts[0]
        integrand = np.stack([
            forcing(times[i], fields_u[i], fields_v[i]) * np.exp(-1j * w * times[i])
            for i in sub])
        i0 = int(np.argmin(np.abs(ts)))
        cum = np.zeros_like(integrand)
        for i in range(i0 + 1, ts.size):
            cum[i] = cum[i - 1] + 0.5 * dt * (integrand[i - 1] + integrand[i])
        for i in range(i0 - 1, -1, -1):
            cum[i] = cum[i + 1] - 0.5 * dt * (integrand[i] + integrand[i + 1])
        out = np.stack([eta0(t / 4.0) * np.exp(1j * w * t) * cum[i]
                        for i, t in enumerate(ts)])
        out[:, grid.nyquist_index] = 0.0
        return out

    i0 = int(np.argmin(np.abs(times)))
    sub = np.arange(i0 % 2, times.size, 2)
    full = integrate(np.arange(times.size))
    coarse = integrate(sub)
    change = np.sqrt(np.sum(np.abs(full[sub] - coarse) ** 2) / np.sum(np.abs(full[sub]) ** 2))
    return full, change


class TestTrajectoryArrays:
    @pytest.mark.parametrize("n_t", [4, 150])
    def test_free_trajectory_matches_per_sample_fields(self, n_t):
        # times of both signs; 150 samples fill two blocks and part of a third
        g = Grid(16 * np.pi, 128)
        phi = shell_packet(g, 2, seed=4)
        times = uniform_times(-3.0, 2.0, n_t)
        w = omega(g.xi, D)
        ref = np.stack([apply_multiplier(phi, np.exp(1j * w * t)).coeffs for t in times])
        out_times, coeffs = free_trajectory(phi, D, times)
        assert np.array_equal(out_times, times)
        assert coeffs.shape == ref.shape and coeffs.tobytes() == ref.tobytes()

    def test_free_trajectory_refuses_complex_field(self):
        g = Grid(16 * np.pi, 128)
        # Hermitian-symmetric coefficients, flagged complex
        phi = SpectralField.from_mode_dict(g, {3: 1.0, -3: 1.0}, real=False)
        with pytest.raises(ValueError, match="for real-flagged fields only"):
            free_trajectory(phi, D, uniform_times(-1.0, 1.0, 8))

    def test_outputs_checked_whole(self, monkeypatch):
        # one Hermitian check of the whole trajectory, and one each of the
        # Duhamel output on the full and on the stride-2 grid
        shapes = []
        check = spacetime.require_hermitian

        def recorded(c):
            shapes.append(c.shape)
            return check(c)

        monkeypatch.setattr(spacetime, "require_hermitian", recorded)
        g = Grid(16 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 96)
        _, cu = free_trajectory(SpectralField.from_mode_dict(g, {5: 0.1, -5: 0.1}), D, times)
        assert shapes == [(96, 128)]
        duhamel_bilinear(g, times, cu, cu, D)
        assert sorted(shapes[1:]) == [(48, 128), (96, 128)]

    def test_first_shell_at_shell_edges(self):
        j = np.arange(60, dtype=float)
        edge = SUPPORT * 2.0 ** j
        a = np.concatenate([[0.0, 1e-300], edge, np.nextafter(edge, 0.0),
                            np.nextafter(edge, np.inf),
                            np.random.default_rng(1).uniform(0.0, 1e6, 2000)])
        ref = np.array([next(k for k in range(80) if x / 2.0 ** k < SUPPORT) for x in a])
        got = _first_shell(a)
        assert np.array_equal(got, ref)
        # eta0(./2^j) is 0 below the first shell and exactly 1 above it
        assert np.all(eta0(np.ldexp(a, 1 - got))[got > 0] == 0.0)
        assert np.all(eta0(np.ldexp(a, -1 - got)) == 1.0)

    @pytest.mark.parametrize("n, length, n_t, t_box", [
        (64, 4 * np.pi, 1024, 8.0), (128, 16 * np.pi, 512, 8.0), (64, 8 * np.pi, 300, 5.0)])
    def test_modulation_profiles_match_per_shell_loop(self, n, length, n_t, t_box):
        g = Grid(length, n)
        phi = SpectralField.random_real(g, np.random.default_rng(n_t),
                                        envelope=lambda a: np.exp(-a * a / 8.0))
        _, _, F = windowed_free(g, phi, t_box=t_box, n_t=n_t)
        ref = reference_modulation_profiles(F, D)
        got = modulation_profiles(F, D)
        assert got.shape == ref.shape and np.array_equal(got, ref)


class TestSpaceTimeNorms:
    def test_unit_weight_is_spacetime_l2(self):
        g = Grid(16 * np.pi, 128)
        phi = shell_packet(g, 1)
        times, coeffs, F = windowed_free(g, phi)
        direct = np.sqrt(sum(
            (eta0(t) * SpectralField(g, c).l2_norm()) ** 2 * (times[1] - times[0])
            for t, c in zip(times, coeffs)))
        assert xsb_norm(F, 0.0, 0.0, D) == pytest.approx(direct, rel=1e-12)

    def test_homogeneity(self):
        g = Grid(16 * np.pi, 128)
        phi = shell_packet(g, 1, seed=3)
        times, coeffs, F = windowed_free(g, phi)
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
        _, coeffs = free_trajectory(phi, D, times)
        base = fbar_norm(g, times, coeffs, -1.75, D)
        doubled = fbar_norm(g, times, coeffs * 2.0, -1.75, D)
        assert base > 0
        assert doubled == pytest.approx(2.0 * base, rel=1e-10)

    @pytest.mark.parametrize("n, length, n_t", [(128, 16 * np.pi, 512), (64, 4 * np.pi, 1024)])
    def test_shell_norms_match_per_shell_loop(self, n, length, n_t):
        g = Grid(length, n)
        phi = SpectralField.random_real(g, np.random.default_rng(11),
                                        envelope=lambda a: np.exp(-a * a / 8.0))
        times = uniform_times(-4.0, 4.0, n_t)
        _, coeffs = free_trajectory(phi, D, times)
        F = SpaceTimeField.from_samples(g, times, coeffs)
        K = shell_count(g)
        xks = [reference_xk_norm(F, k, D) for k in range(1, K + 1)]
        for k, ref in zip(range(1, K + 1), xks):
            assert xk_norm(F, k, D) == pytest.approx(ref, rel=1e-13)
        for s in (-1.75, 0.0):
            ref = np.sqrt(low_frequency_norm(g, times, coeffs) ** 2 + sum(
                2.0 ** (2.0 * s * k) * xk ** 2 for k, xk in zip(range(1, K + 1), xks)))
            assert fbar_norm(g, times, coeffs, s, D) == pytest.approx(ref, rel=1e-13)

    def test_low_frequency_norm_matches_per_sample_loop(self):
        g = Grid(16 * np.pi, 128)
        phi = shell_packet(g, 1, seed=5)
        times = uniform_times(-2.0, 2.0, 256)
        _, coeffs = free_trajectory(phi, D, times)
        for window in (True, False):
            sup = np.max([np.abs(project_low(SpectralField(g, c), 0).to_physical())
                          * (eta0(t) if window else 1.0)
                          for t, c in zip(times, coeffs)], axis=0)
            ref = np.sqrt(np.sum(sup ** 2) * g.dx)
            assert low_frequency_norm(g, times, coeffs, window=window) == pytest.approx(
                ref, rel=1e-13)


class TestDuhamel:
    def _mode_pair(self, grid, m0, amp):
        return SpectralField.from_mode_dict(grid, {m0: amp, -m0: amp})

    def test_zero_input(self):
        g = Grid(16 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 64)
        _, cu = free_trajectory(self._mode_pair(g, 5, 0.1), D, times)
        _, cz = free_trajectory(SpectralField.zero(g), D, times)
        out = duhamel_bilinear(g, times, cz, cu, D)
        assert np.max(np.abs(out["coeffs"])) == 0.0

    def test_symmetry(self):
        g = Grid(16 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 256)
        rng = np.random.default_rng(4)
        u0 = SpectralField.random_real(g, rng, support=6)
        v0 = SpectralField.random_real(g, rng, support=6)
        _, cu = free_trajectory(u0, D, times)
        _, cv = free_trajectory(v0, D, times)
        a = duhamel_bilinear(g, times, cu, cv, D)
        b = duhamel_bilinear(g, times, cv, cu, D)
        for ra, rb in zip(a["coeffs"], b["coeffs"]):
            assert np.max(np.abs(ra - rb)) <= 1e-14

    def test_single_mode_closed_form(self):
        g = Grid(16 * np.pi, 256)
        m0, amp = 8, 0.1
        times = uniform_times(-2.0, 2.0, 1024)
        _, cu = free_trajectory(self._mode_pair(g, m0, amp), D, times)
        res = duhamel_bilinear(g, times, cu, cu, D)
        assert res["quadrature_change"] < 0.005
        xi0 = m0 * g.dxi
        idx = int(np.argmin(np.abs(res["times"] - 1.0)))
        t = float(res["times"][idx])
        theta = float(resonance(xi0, xi0, D))
        omega2 = D.mu * (2 * xi0) ** 3 - (2 * xi0) ** 5
        expected = (1j * 2 * xi0 * amp * amp * g.dxi / np.sqrt(2 * np.pi)
                    * np.exp(1j * omega2 * t)
                    * (np.exp(1j * theta * t) - 1.0) / (1j * theta))
        got = res["coeffs"][idx, g.index_of_mode(2 * m0)]
        assert abs(got - expected) <= 0.01 * abs(expected)
        # spectrum confined to 0 and +-2 xi0
        mask = np.ones(g.size, dtype=bool)
        for m in (0, 2 * m0, -2 * m0):
            mask[g.index_of_mode(m)] = False
        assert np.max(np.abs(res["coeffs"][idx, mask])) <= 1e-14

    def test_quadrature_change_of_nearly_equal_fields(self):
        # full and stride-2 outputs agree so closely here that their
        # difference is not Hermitian to the relative 1e-10 of a real field
        g = Grid(8 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 1024)
        _, cu = free_trajectory(self._mode_pair(g, 4, 0.1), D, times)
        res = duhamel_bilinear(g, times, cu, cu, D)
        assert 0.0 < res["quadrature_change"] < 0.005

    @pytest.mark.parametrize("lead", [16, 15])
    def test_batched_matches_per_sample_loop(self, lead):
        # t = 0 sits `lead` samples from the left end, so both trapezoid
        # branches run, and the stride-2 subgrid starts at index 0 or 1
        g = Grid(16 * np.pi, 128)
        dt = 1.0 / 32.0
        times = uniform_times(-lead * dt, (256 - lead) * dt, 256)
        assert times[lead] == 0.0
        rng = np.random.default_rng(8)
        _, cu = free_trajectory(SpectralField.random_real(g, rng, support=6), D, times)
        _, cv = free_trajectory(SpectralField.random_real(g, rng, support=9), D, times)
        res = duhamel_bilinear(g, times, cu, cv, D)
        full, change = reference_duhamel(g, times, cu, cv, D)
        got = res["coeffs"]
        assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))
        assert res["quadrature_change"] == pytest.approx(change, rel=1e-13)
        assert all(SpectralField(g, c).hermitian_defect() <= 1e-10 for c in got)

    def test_coarse_grid_rejected(self):
        g = Grid(16 * np.pi, 128)
        times = uniform_times(-2.0, 2.0, 4)
        c = np.zeros((times.size, g.size), dtype=np.complex128)
        with pytest.raises(ValueError):
            duhamel_bilinear(g, times, c, c, D)
