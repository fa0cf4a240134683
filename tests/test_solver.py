"""Time integration, conservation, and the traveling-wave oracle."""

import numpy as np
import pytest

from kawalab import (
    DispersionParams,
    Grid,
    SolverConfig,
    SolverDivergenceError,
    SpectralField,
    free_evolve,
    nonlinear_rhs,
    petviashvili_wave,
    simulate,
    step,
)
from kawalab.dispersion import omega, phasor
from kawalab.solver import (
    DIVERGENCE_THRESHOLD,
    PHASE_GUARD,
    _Stepper,
    dealias_cutoff_index,
    dealias_mask,
    trajectory_to_rows,
)

D1 = DispersionParams(1.0)


def reference_stepper(g, disp, dt, fraction):
    """The stepper as it was before it kept only the dealias band: IF-RK4 on
    the whole half spectrum (modes 0..n/2), one temporary per operation.
    Returns ``step(c) -> c`` on length n/2+1 arrays, None on divergence."""
    n = g.size
    band = dealias_cutoff_index(g, fraction) + 1
    mult = np.zeros(n // 2 + 1, dtype=np.complex128)
    mult[:band] = (-0.5j * np.sqrt(2.0 * np.pi) / g.dx) * (np.arange(band) * g.dxi)
    eh = phasor(omega(np.arange(n // 2 + 1) * g.dxi, disp), 0.5 * dt)
    ef = eh * eh

    def rhs(c):
        v = np.fft.irfft(c[:band], n)
        return mult * np.fft.rfft(v * v)

    def step(c):
        k1 = rhs(c)
        k2 = rhs(eh * (c + 0.5 * dt * k1))
        k3 = rhs(eh * c + 0.5 * dt * k2)
        k4 = rhs(ef * c + dt * eh * k3)
        out = ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
        if not np.max(np.abs(out)) <= DIVERGENCE_THRESHOLD:
            return None
        return out

    return step


def reference_start(u, fraction):
    """Half spectrum of ``u`` projected into the dealias band."""
    n = u.grid.size
    band = dealias_cutoff_index(u.grid, fraction) + 1
    return np.pad(u.coeffs[:band], (0, n // 2 + 1 - band))


def smooth_datum(grid, seed=7, amplitude=1.0, decay=8.0):
    rng = np.random.default_rng(seed)
    u = SpectralField.random_real(
        grid, rng, envelope=lambda a: (1.0 + a ** 2) ** (-decay / 2.0))
    return u * (amplitude / u.l2_norm())


class TestNonlinearRHS:
    def test_constant_field(self):
        g = Grid(2 * np.pi, 64)
        u = SpectralField.from_physical(g, np.full(g.size, 1.7))
        assert np.max(np.abs(nonlinear_rhs(u).coeffs)) <= 1e-15

    def test_cosine_closed_form(self):
        g = Grid(2 * np.pi, 64)
        u = SpectralField.from_physical(g, np.cos(g.x))
        out = nonlinear_rhs(u)
        expect = SpectralField.from_physical(g, 0.5 * np.sin(2 * g.x))
        assert np.max(np.abs(out.coeffs - expect.coeffs)) <= 1e-13

    def test_exact_zero_mean(self):
        g = Grid(8 * np.pi, 256)
        u = smooth_datum(g, seed=3)
        out = nonlinear_rhs(u)
        assert out.coeffs[0] == 0.0
        assert abs(np.mean(out.to_physical())) <= 1e-14


class TestStep:
    def test_zero_and_constant_fixed_points(self):
        g = Grid(2 * np.pi, 64)
        cfg = SolverConfig(g, D1, dt=1e-4, t_end=1.0)
        z = SpectralField.zero(g)
        assert np.max(np.abs(step(z, 1e-4, cfg).coeffs)) == 0.0
        c = SpectralField.from_physical(g, np.full(g.size, 0.3))
        after = step(c, 1e-4, cfg)
        assert abs(after.mean() - 0.3) <= 1e-15
        assert np.max(np.abs(after.coeffs[1:] )) <= 1e-15

    def test_richardson_self_convergence(self):
        # one-step error against a dt/8 reference drops ~2^4 when dt halves;
        # the datum is low-frequency so the nonlinear phases are resolved
        g = Grid(64 * np.pi, 256)
        rng = np.random.default_rng(5)
        u = SpectralField.random_real(g, rng, envelope=lambda a: 1.0 / (1 + a),
                                      support=32)
        u = u * (1.0 / u.l2_norm())
        cfg = SolverConfig(g, D1, dt=1e-4, t_end=1.0)

        def advance(dt, nsteps):
            v = u
            for _ in range(nsteps):
                v = step(v, dt, cfg)
            return v

        dt = 4e-3
        ref = advance(dt / 8.0, 8)
        err1 = np.max(np.abs(advance(dt, 1).coeffs - ref.coeffs))
        ref2 = advance(dt / 16.0, 8)
        err2 = np.max(np.abs(advance(dt / 2.0, 1).coeffs - ref2.coeffs))
        order = np.log2(err1 / err2)
        assert 3.5 <= order <= 5.5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dt", [1e3, np.nan, np.inf, -np.inf, 0.0, -1e-4])
    def test_rejects_dt_outside_config_rule(self, dt):
        # the SolverConfig rule: 0 < dt < inf and dt*max|omega| <= PHASE_GUARD
        g = Grid(2 * np.pi, 64)
        cfg = SolverConfig(g, D1, dt=1e-4, t_end=1.0)
        u = smooth_datum(g, seed=1)
        with pytest.raises(ValueError, match="dt"):
            step(u, dt, cfg)

    def test_phase_guard_matches_config(self):
        g = Grid(2 * np.pi, 64)
        wmax = float(np.max(np.abs(omega(g.xi, D1))))
        cfg = SolverConfig(g, D1, dt=1e-4, t_end=1.0)
        inside, outside = 0.999 * PHASE_GUARD / wmax, 1.001 * PHASE_GUARD / wmax
        SolverConfig(g, D1, dt=inside, t_end=1.0)
        step(SpectralField.zero(g), inside, cfg)
        with pytest.raises(ValueError, match="phase-accuracy guard"):
            SolverConfig(g, D1, dt=outside, t_end=1.0)
        with pytest.raises(ValueError, match="phase-accuracy guard"):
            step(SpectralField.zero(g), outside, cfg)

    def test_divergence_signal(self):
        g = Grid(2 * np.pi, 64)
        cfg = SolverConfig(g, D1, dt=1e-4, t_end=1.0)
        huge = SpectralField.from_mode_dict(g, {1: 1e15, -1: 1e15})
        with pytest.raises(SolverDivergenceError):
            step(huge, 1e-4, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_signal_on_nan(self):
        # a real-flagged field cannot hold NaN, so the NaN is born in the
        # step: the square of a 1e200 datum overflows and its FFT turns the
        # Inf into NaN, which compares false against the threshold
        g = Grid(2 * np.pi, 64)
        cfg = SolverConfig(g, D1, dt=1e-4, t_end=1.0)
        bad = SpectralField.from_mode_dict(g, {1: 1e200, -1: 1e200})
        with pytest.raises(SolverDivergenceError):
            step(bad, 1e-4, cfg)

    @pytest.mark.parametrize("dt, t_end", [(np.nan, 1.0), (1e-4, np.nan),
                                           (1e-4, np.inf), (0.0, 1.0)])
    def test_rejects_nonfinite_times(self, dt, t_end):
        with pytest.raises(ValueError):
            SolverConfig(Grid(2 * np.pi, 64), D1, dt=dt, t_end=t_end)

    def test_phase_guard(self):
        g = Grid(2 * np.pi, 1024)  # xi_max = 512, max omega ~ 3.4e13
        with pytest.raises(ValueError):
            SolverConfig(g, D1, dt=1e-3, t_end=1.0)


class TestHermitianByConstruction:
    """Real fields are stepped as half spectra (modes 0..n/2), so Hermitian
    symmetry holds by construction rather than by a re-symmetrising step.

    The grid is the rescaled box of the global-iteration criterion (n=512,
    dt*max|omega| just under the phase guard), where a per-step asymmetry of
    one ulp in the phasor compounds over ~64 000 steps per unit time."""

    @staticmethod
    def _full_phasor(g, t):
        """``exp(i omega t)`` on every mode in FFT order."""
        return phasor(omega(g.xi, D1), t)

    @staticmethod
    def _box():
        n, N = 512, 64.0
        g = Grid(2 * np.pi / (1.5 * N / dealias_cutoff_index(Grid(2 * np.pi, n))), n)
        wmax = float(np.max(np.abs(omega(g.xi, D1))))
        return g, 0.98 * PHASE_GUARD / wmax

    def test_half_phasors_match_full_spectrum_phasor(self):
        g, dt = self._box()
        st = _Stepper(g, D1, dt, 2.0 / 3.0)
        full = self._full_phasor(g, 0.5 * dt)
        # FFT-order indices 0..band-1 hold the stepped modes m >= 0
        assert st.e_half.shape == st.e_full.shape == (st.band,)
        assert np.array_equal(st.e_half, full[:st.band])
        assert np.array_equal(st.e_full, (full * full)[:st.band])

    def test_steps_keep_real_field_hermitian(self):
        g, dt = self._box()
        rng = np.random.default_rng(108)
        u0 = SpectralField.random_real(
            g, rng, envelope=lambda a: (1.0 + a ** 2) ** 0.625,
            support=dealias_cutoff_index(g) - 2)
        cfg = SolverConfig(g, D1, dt=dt, t_end=3000 * dt, monitor_stride=1000)
        traj = simulate(u0 * (0.1 / u0.l2_norm()), cfg)
        assert len(traj) == 4
        assert all(u.hermitian_defect() == 0.0 for u in traj.fields)

    def test_half_spectrum_matches_complex_fft_reference(self):
        g = Grid(8 * np.pi, 256)
        dt, steps = 2.0 ** -12, 100
        u0 = smooth_datum(g, seed=4, amplitude=2.0, decay=6.0)
        cfg = SolverConfig(g, D1, dt=dt, t_end=steps * dt, monitor_stride=10 ** 9)
        got = simulate(u0, cfg).fields[-1].coeffs

        # integrating-factor RK4 on the full spectrum with complex FFTs
        mask = dealias_mask(g)
        eh = self._full_phasor(g, 0.5 * dt)
        ef = eh * eh

        def rhs(c):
            v = np.fft.ifft(c * mask).real * (np.sqrt(2 * np.pi) / g.dx)
            sq = np.fft.fft(v * v) * (g.dx / np.sqrt(2 * np.pi))
            return -0.5j * g.xi * sq * mask

        c = u0.coeffs * mask
        for _ in range(steps):
            k1 = rhs(c)
            k2 = rhs(eh * (c + 0.5 * dt * k1))
            k3 = rhs(eh * c + 0.5 * dt * k2)
            k4 = rhs(ef * c + dt * eh * k3)
            c = ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
        c[g.nyquist_index] = 0.0
        assert np.max(np.abs(got - c)) <= 1e-12 * np.max(np.abs(c))


class TestBandStepper:
    """The stepper keeps only the dealias band and reuses its buffers; the
    result must equal the whole-half-spectrum formula bit for bit."""

    @pytest.mark.parametrize("n", [32, 64, 256, 512, 4096])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
    def test_matches_reference_step_bitwise(self, n, fraction):
        # past n = 256 the box grows with n, so the spectral extent, and
        # with it dt*max|omega|, stays that of n = 256, inside the guard
        g = Grid(8 * np.pi * max(1, n // 256), n)
        dt, steps = 1e-3, 200
        # strong enough that a reordered rounding in one stage reaches the state
        u0 = smooth_datum(g, seed=n, amplitude=30.0, decay=2.0)
        cfg = SolverConfig(g, D1, dt=dt, t_end=steps * dt, monitor_stride=50,
                           dealias_fraction=fraction)
        traj = simulate(u0, cfg)
        ref = reference_stepper(g, D1, dt, fraction)
        c = reference_start(u0, fraction)
        expect = [c]
        for i in range(1, steps + 1):
            c = ref(c)
            if i % 50 == 0:
                expect.append(c)
        assert len(traj) == len(expect) == 5
        above = dealias_mask(g, fraction) == 0.0
        for u, half in zip(traj.fields, expect):
            assert np.array_equal(u.coeffs[:n // 2 + 1], np.concatenate((half[:-1], [0.0])))
            assert np.all(u.coeffs[above] == 0.0)

    def test_samples_do_not_share_memory(self):
        g = Grid(2 * np.pi, 64)
        cfg = SolverConfig(g, D1, dt=1e-3, t_end=5e-3, monitor_stride=1)
        traj = simulate(smooth_datum(g, seed=2), cfg)
        assert len(traj) == 6
        for a, b in zip(traj.fields, traj.fields[1:]):
            assert not np.shares_memory(a.coeffs, b.coeffs)
        # the states the stepper returns own their memory as well
        st = _Stepper(g, D1, 1e-3, 2.0 / 3.0)
        buffers = [st._v, st._spec, *st._k, st._s, st._t, st._efc, st._abs]
        states = [traj.fields[0].coeffs[:st.band]]
        for _ in range(3):
            states.append(st.step(states[-1]))
        for i, a in enumerate(states[1:]):
            assert not any(np.shares_memory(a, b) for b in buffers + states[:i + 1])

    def test_step_leaves_input_unchanged(self):
        g = Grid(8 * np.pi, 256)
        u = smooth_datum(g, seed=3, amplitude=2.0)
        before = u.coeffs.copy()
        cfg = SolverConfig(g, D1, dt=1e-3, t_end=1.0)
        step(u, 1e-3, cfg)
        assert np.array_equal(u.coeffs.view(np.uint64), before.view(np.uint64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_mid_run_reports_failing_time(self):
        g = Grid(2 * np.pi, 64)
        u0 = SpectralField.from_physical(g, 30.0 * np.cos(g.x))
        t0, cfg = 0.5, SolverConfig(g, D1, dt=3e-3, t_end=0.3)
        dt = cfg.t_end / 100
        ref = reference_stepper(g, D1, dt, cfg.dealias_fraction)
        c, fail = reference_start(u0, cfg.dealias_fraction), None
        for i in range(1, 101):
            c = ref(c)
            if c is None:
                fail = i
                break
        assert fail is not None and 1 < fail < 100
        with pytest.raises(SolverDivergenceError) as info:
            simulate(u0, cfg, t0=t0)
        assert info.value.t == t0 + fail * dt

    def test_health_counters(self):
        g = Grid(8 * np.pi, 256)
        u0 = smooth_datum(g, seed=5, amplitude=2.0)
        cfg = SolverConfig(g, D1, dt=3e-4, t_end=0.01, monitor_stride=1)
        traj = simulate(u0, cfg)
        assert traj.steps == 33 == len(traj) - 1
        assert traj.dt == 0.01 / 33
        # both maxima leave out the mean, index 0 of the full spectrum
        peak = max(np.max(np.abs(u.coeffs[1:])) for u in traj.fields[1:])
        assert traj.peak_growth == peak / np.max(np.abs(traj.fields[0].coeffs[1:]))
        assert 0.99 < traj.peak_growth < 1.01  # a smooth datum over 0.01 time
        zero = simulate(SpectralField.zero(g), cfg)
        assert (zero.steps, zero.peak_growth) == (33, 0.0)
        mean_only = simulate(SpectralField.from_mode_dict(g, {0: 3.0}), cfg)
        assert mean_only.peak_growth == 0.0

    def test_peak_growth_sees_past_a_large_mean(self):
        # the mean is conserved to the bit, so a mean larger than every
        # other coefficient would pin a peak over all modes at exactly 1.0
        g = Grid(8 * np.pi, 256)
        u0 = smooth_datum(g, seed=5, amplitude=2.0)
        big = np.max(np.abs(u0.coeffs)) * 100.0
        u0 = u0.with_coeffs(u0.coeffs + np.where(g.modes == 0, big, 0.0))
        cfg = SolverConfig(g, D1, dt=3e-4, t_end=0.01, monitor_stride=1)
        traj = simulate(u0, cfg)
        peak = max(np.max(np.abs(u.coeffs[1:])) for u in traj.fields[1:])
        assert traj.peak_growth == peak / np.max(np.abs(traj.fields[0].coeffs[1:]))
        assert traj.peak_growth != 1.0


class TestSimulate:
    def test_zero_end_time_takes_no_step(self):
        g = Grid(8 * np.pi, 256)
        u0 = smooth_datum(g, seed=6, amplitude=2.0)
        cfg = SolverConfig(g, D1, dt=1e-3, t_end=0.0)
        traj = simulate(u0, cfg, t0=0.25)
        assert traj.times == [0.25]
        assert (traj.steps, traj.dt, traj.peak_growth) == (0, 0.0, 0.0)
        # the one sample is the band-projected datum
        above = dealias_mask(g) == 0.0
        assert np.array_equal(traj.fields[0].coeffs,
                              np.where(above, 0.0, u0.coeffs))

    def test_zero_datum(self):
        g = Grid(2 * np.pi, 64)
        cfg = SolverConfig(g, D1, dt=1e-3, t_end=0.1, monitor_stride=10)
        traj = simulate(SpectralField.zero(g), cfg)
        assert all(m == 0.0 for m in traj.l2_masses)

    def test_mean_and_mass_conservation(self):
        g = Grid(8 * np.pi, 512)
        u0 = smooth_datum(g, seed=7)
        cfg = SolverConfig(g, D1, dt=5e-4, t_end=1.0, monitor_stride=200)
        traj = simulate(u0, cfg)
        assert max(abs(m - traj.means[0]) for m in traj.means) <= 1e-14
        drift = max(abs(m / traj.l2_masses[0] - 1.0) for m in traj.l2_masses)
        assert drift <= 1e-8

    def test_linear_regime_matches_free_flow(self):
        g = Grid(8 * np.pi, 512)
        eps = 1e-6
        u0 = SpectralField.from_physical(g, eps * np.cos(g.x / 4.0))
        cfg = SolverConfig(g, D1, dt=5e-4, t_end=1.0, monitor_stride=2000)
        traj = simulate(u0, cfg)
        free = free_evolve(u0, 1.0, D1)
        diff = np.sqrt(np.sum(np.abs(traj.fields[-1].coeffs - free.coeffs) ** 2)
                       * g.dxi)
        assert diff <= 1e-9

    def test_time_reversal(self):
        g = Grid(8 * np.pi, 256)
        u0 = smooth_datum(g, seed=9, amplitude=0.5, decay=6.0)
        cfg = SolverConfig(g, D1, dt=2.5e-4, t_end=0.5, monitor_stride=10 ** 9)
        forward = simulate(u0, cfg).fields[-1]
        # reflect x -> -x: coefficients conjugate
        reflected = forward.with_coeffs(np.conj(forward.coeffs))
        back = simulate(reflected, cfg).fields[-1]
        expect = u0.with_coeffs(np.conj(u0.coeffs))
        num = np.sqrt(np.sum(np.abs(back.coeffs - expect.coeffs) ** 2))
        den = np.sqrt(np.sum(np.abs(expect.coeffs) ** 2))
        assert num / den <= 1e-7

    def test_self_convergence_order(self):
        # low-frequency datum, strong nonlinearity, short window: the
        # truncation error then dominates the eps-per-step roundoff floor,
        # and consecutive halvings expose the clean fourth-order regime
        g = Grid(64 * np.pi, 256)
        rng = np.random.default_rng(11)
        u0 = SpectralField.random_real(g, rng, envelope=lambda a: 1.0 / (1 + a),
                                       support=32)
        u0 = u0 * (30.0 / u0.l2_norm())
        finals = {}
        for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
            cfg = SolverConfig(g, D1, dt=dt, t_end=0.005, monitor_stride=10 ** 9)
            finals[dt] = simulate(u0, cfg).fields[-1].coeffs
        pairs = [(1e-3, 5e-4), (5e-4, 2.5e-4), (2.5e-4, 1.25e-4)]
        errs = [np.max(np.abs(finals[a] - finals[b])) for a, b in pairs]
        order = np.polyfit(np.log([1e-3, 5e-4, 2.5e-4]), np.log(errs), 1)[0]
        assert order >= 3.8

    def test_grid_mismatch_rejected(self):
        g = Grid(2 * np.pi, 64)
        cfg = SolverConfig(g, D1, dt=1e-3, t_end=0.01)
        for other in (Grid(4 * np.pi, 64), Grid(2 * np.pi, 128)):
            u0 = smooth_datum(other, seed=1, amplitude=0.1)
            with pytest.raises(ValueError, match="does not match the configured grid"):
                simulate(u0, cfg)

    def test_rows_export(self):
        g = Grid(2 * np.pi, 64)
        u0 = smooth_datum(g, seed=1, amplitude=0.1)
        cfg = SolverConfig(g, D1, dt=1e-3, t_end=0.01, monitor_stride=5)
        rows = trajectory_to_rows(simulate(u0, cfg), s=-1.0)
        assert len(rows) >= 2 and len(rows[0]) == 4


class TestPetviashvili:
    def test_residual_and_symmetry(self):
        g = Grid(32 * np.pi, 1024)
        phi, residual, iterations = petviashvili_wave(-1.0, D1, g)
        assert residual <= 1e-9
        assert iterations < 500
        # center by the first-mode phase, then compare odd and even parts
        centered = phi.coeffs * np.exp(-1j * g.xi * (g.length / 2.0))
        odd = np.linalg.norm(centered.imag)
        even = np.linalg.norm(centered.real)
        assert odd / even <= 1e-8

    def test_translation_equivariance(self):
        g = Grid(32 * np.pi, 1024)
        a, _, _ = petviashvili_wave(-1.0, D1, g, center=g.length / 2.0)
        b, _, _ = petviashvili_wave(-1.0, D1, g, center=g.length / 2.0 + 3.7)
        def centered(u):
            shift = np.angle(u.coeffs[1]) / u.grid.dxi
            return u.coeffs * np.exp(-1j * g.xi * shift)
        dist = np.sqrt(np.sum(np.abs(centered(a) - centered(b)) ** 2) * g.dxi)
        assert dist <= 1e-9

    def test_positivity_precondition(self):
        g = Grid(32 * np.pi, 256)
        with pytest.raises(ValueError):
            petviashvili_wave(1.0, D1, g)  # xi^4 - xi^2 - 1 < 0 near xi ~ 1

    def test_closed_form_wave(self):
        # mu = -1, c = -36/169: (105/169) sech^4(x / (2 sqrt(13))) profile
        d = DispersionParams(-1.0)
        g = Grid(96 * np.pi, 2048)
        phi, residual, _ = petviashvili_wave(-36.0 / 169.0, d, g, width=6.0)
        assert residual <= 1e-9
        x = g.x - g.length / 2.0
        exact = -(105.0 / 169.0) / np.cosh(x / (2.0 * np.sqrt(13.0))) ** 4
        assert np.max(np.abs(phi.to_physical() - exact)) <= 1e-10

    def test_wave_propagates_at_speed(self):
        g = Grid(32 * np.pi, 1024)
        c = -1.0
        phi, _, _ = petviashvili_wave(c, D1, g)
        cfg = SolverConfig(g, D1, dt=5e-4, t_end=1.0, monitor_stride=10 ** 9)
        arrived = simulate(phi, cfg).fields[-1]
        translated = phi.coeffs * np.exp(-1j * g.xi * c * 1.0)
        err = np.sqrt(np.sum(np.abs(arrived.coeffs - translated) ** 2) * g.dxi)
        assert err <= 1e-6
