"""Tuple kernels: power sums, cancellation, symmetry, singular limits."""

import functools
import itertools
import operator
from fractions import Fraction

import numpy as np
import pytest

from kawalab import (DispersionParams, EnergyMultipliers, Grid, IMultiplier, SpectralField,
                     h_v_eval, modified_energies)
from kawalab.multipliers import _columns, _piecewise, _top, power_sum_identity_check

D = DispersionParams(1.0)
M = IMultiplier(4.0, -1.75)
KERN = EnergyMultipliers(M, D)


def scalar(value):
    return complex(np.asarray(value).reshape(-1)[0])


def zero_sum_tuples(rng, count, k, span=1000.0):
    x = rng.uniform(-span, span, (count, k - 1))
    return np.column_stack([x, -x.sum(axis=1)])


class TestPowerSums:
    def test_worked_triple(self):
        h, v = h_v_eval(np.array([1.0, 2.0, -3.0]), D)
        assert h == pytest.approx(-18j)
        assert v == pytest.approx(-210j)
        # factored forms
        assert 3 * 1 * 2 * (-3) == -18
        assert 2.5 * (1 * 2 * -3) * (1 + 4 + 9) == -210

    def test_worked_quadruple(self):
        h, v = h_v_eval(np.array([1.0, 1.0, 1.0, -3.0]), D)
        assert v == pytest.approx(-240j)
        assert -2.5 * 2 * 2 * 2 * (1 + 1 + 1 + 9) == -240

    def test_random_tuples(self):
        rng = np.random.default_rng(0)
        assert power_sum_identity_check(zero_sum_tuples(rng, 10000, 3)) < 1e-11
        assert power_sum_identity_check(zero_sum_tuples(rng, 10000, 4)) < 1e-11

    @staticmethod
    def signed_tuples(k):
        """Rows of length ``k``: all-negative ones, then mixed signs."""
        rng = np.random.default_rng(17 + k)
        x = rng.uniform(1e-2, 1e3, (60, k))
        x[30:] *= rng.choice([-1.0, 1.0], (30, k))
        x[30:, 0], x[30:, 1] = -np.abs(x[30:, 0]), np.abs(x[30:, 1])
        return x

    @pytest.mark.parametrize("k", [3, 4])
    def test_h_v_match_exact_power_sums(self, k):
        eps = np.finfo(float).eps
        x = self.signed_tuples(k)
        h, v = h_v_eval(x, D)
        assert not h.real.any() and not v.real.any()
        for row, cubes, quints in zip(x, h.imag, v.imag):
            exact = [Fraction(float(xi)) for xi in row]
            # at most three roundings per power and k - 1 per sum
            for got, p in ((cubes, 3), (quints, 5)):
                total = sum(xi ** p for xi in exact)
                scale = sum(abs(xi) ** p for xi in exact)
                assert abs(Fraction(float(got)) - total) <= 4 * eps * scale

    @pytest.mark.parametrize("k", [3, 4])
    def test_identity_gap_matches_exact_rationals(self, k):
        # off the hyperplane the identities fail at order one, so each row's
        # gap reads its power sums
        eps = np.finfo(float).eps
        for row in self.signed_tuples(k):
            e = [Fraction(float(xi)) for xi in row]
            squares = sum(xi * xi for xi in e)
            if k == 3:
                prod = e[0] * e[1] * e[2]
                fc, fq = 3 * prod, Fraction(5, 2) * prod * squares
            else:
                prod = (e[0] + e[1]) * (e[0] + e[2]) * (e[1] + e[2])
                fc, fq = -3 * prod, -Fraction(5, 2) * prod * squares
            gaps = []
            for p, f in ((3, fc), (5, fq)):
                total = sum(xi ** p for xi in e)
                scale = max(abs(total), abs(f)) + sum(abs(xi) ** p for xi in e)
                gaps.append(abs(total - f) / scale)
            got = power_sum_identity_check(row[None])
            assert abs(Fraction(got) - max(gaps)) <= 32 * eps

    @pytest.mark.parametrize("k", [3, 4])
    def test_integer_hyperplane_gap_is_zero(self, k):
        # entries below 500: every power, product and sum is an exact double
        rng = np.random.default_rng(k)
        x = rng.integers(-150, 151, (1000, k - 1)).astype(np.float64)
        x = np.column_stack([x, -x.sum(axis=1)])
        assert (x < 0).any(axis=1).all()
        assert power_sum_identity_check(x) == 0.0

    def test_rejects_other_lengths(self):
        with pytest.raises(ValueError):
            power_sum_identity_check(np.zeros((4, 5)))


class TestCubicKernel:
    def test_m3_equals_its_defining_symmetrization(self):
        x = np.array([1.7, -0.4, -1.3])
        vals = []
        for p in itertools.permutations(range(3)):
            xp = x[list(p)]
            vals.append(M.m(xp[0]) * M.m(xp[1] + xp[2]) * (xp[1] + xp[2]))
        direct = -1j * np.mean(vals)
        assert abs(direct - scalar(KERN.m3(x[0], x[1], x[2]))) <= 1e-14

    def test_sigma3_zero_below_threshold(self):
        # all frequencies at or below N: the numerator vanishes identically
        vals = KERN.sigma3(np.array([1.0]), np.array([2.5]), np.array([-3.5]))
        assert vals[0] == 0.0

    def test_cubic_cancellation(self):
        rng = np.random.default_rng(1)
        x = zero_sum_tuples(rng, 5000, 3, span=100.0)
        ok = np.all(x != 0.0, axis=1)
        x = x[ok]
        m3 = KERN.m3(x[:, 0], x[:, 1], x[:, 2])
        s3 = KERN.sigma3(x[:, 0], x[:, 1], x[:, 2])
        hv = KERN.hv3(x[:, 0], x[:, 1], x[:, 2])
        resid = np.abs(m3 + s3 * hv)
        nz = np.abs(m3) > 0
        assert np.max(resid[nz] / np.abs(m3[nz])) <= 1e-12

    def test_sigma3_permutation_invariance(self):
        x = (5.25, -12.5, 7.25)
        vals = [scalar(KERN.sigma3(*[x[i] for i in p]))
                for p in itertools.permutations(range(3))]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-15 * abs(vals[0])

    def test_sigma3_conjugation_symmetry(self):
        x = np.array([5.25, -12.5, 7.25])
        a = scalar(KERN.sigma3(*x))
        b = scalar(KERN.sigma3(*(-x)))
        assert abs(b - np.conj(a)) <= 1e-15 * abs(a)

    def test_sigma3_removable_point_matches_limit(self):
        # zero first argument: compare the policy value against a direct
        # shrinking-perturbation limit along the hyperplane
        xi = 9.0
        policy = scalar(KERN.sigma3(np.array([0.0]), np.array([xi]), np.array([-xi])))
        eps = np.array([1e-4, 5e-5, 2.5e-5])
        probe = [scalar(KERN.sigma3(np.array([e]), np.array([xi]),
                                     np.array([-xi - e]))) for e in eps]
        extrap = probe[2] + (probe[2] - probe[1])  # crude Richardson tail
        assert abs(policy - extrap) <= 1e-6 * abs(policy)
        assert policy != 0.0


def grouped_m4(kern, x1, x2, x3, x4):
    """Alternate M4 evaluator: the three complementary-pair differences."""
    def bracket(a, b, c, d):
        s = c + d
        return (kern.sigma3(a, b, s) - kern.sigma3(-c, -d, s)) * s * kern._band(s)

    total = bracket(x1, x2, x3, x4) + bracket(x1, x3, x2, x4) + bracket(x1, x4, x2, x3)
    return 1j * (-0.25 * total)


class TestQuarticKernel:
    def test_m4_two_evaluators_agree(self):
        rng = np.random.default_rng(2)
        x = zero_sum_tuples(rng, 4000, 4, span=200.0)
        p = np.stack([x[:, 0] + x[:, 1], x[:, 0] + x[:, 2], x[:, 1] + x[:, 2]])
        x = x[np.all(np.abs(p) > 1e-9, axis=0)]
        a = KERN.m4(x[:, 0], x[:, 1], x[:, 2], x[:, 3])
        b = grouped_m4(KERN, x[:, 0], x[:, 1], x[:, 2], x[:, 3])
        rel = np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-300)
        nz = (np.abs(a) + np.abs(b)) > 0
        assert np.max(rel[nz]) <= 1e-12

    def test_m4_vanishes_in_low_region(self):
        # frequencies below N/8 with pair sums below N
        x = np.array([[0.3, 0.2, -0.1, -0.4]])
        val = KERN.m4(x[:, 0], x[:, 1], x[:, 2], x[:, 3])
        assert np.max(np.abs(val)) == 0.0

    def test_quartic_cancellation(self):
        rng = np.random.default_rng(3)
        x = zero_sum_tuples(rng, 5000, 4, span=100.0)
        p = np.stack([x[:, 0] + x[:, 1], x[:, 0] + x[:, 2], x[:, 1] + x[:, 2]])
        x = x[np.all(np.abs(p) > 1e-9, axis=0)]
        m4 = KERN.m4(x[:, 0], x[:, 1], x[:, 2], x[:, 3])
        s4 = KERN.sigma4(x[:, 0], x[:, 1], x[:, 2], x[:, 3])
        hv = KERN.hv4(x[:, 0], x[:, 1], x[:, 2], x[:, 3])
        resid = np.abs(m4 + s4 * hv)
        nz = np.abs(m4) > 0
        assert np.max(resid[nz] / np.abs(m4[nz])) <= 1e-12

    def test_sigma4_permutation_invariance(self):
        x = (6.0, -13.0, 4.5, 2.5)
        vals = [scalar(KERN.sigma4(*[x[i] for i in p]))
                for p in itertools.permutations(range(4))]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12 * abs(vals[0])

    def test_sigma4_singular_limit_consistency(self):
        # lattice tuple with an exactly vanishing pair sum: the policy
        # value continues the nearby regular values
        x0 = np.array([5.0, -5.0, 9.0, -9.0])
        policy = scalar(KERN.sigma4(*[np.array([v]) for v in x0]))
        for eps in (1e-5, 1e-6):
            nearby = scalar(KERN.sigma4(
                np.array([5.0 + eps]), np.array([-5.0 + eps]),
                np.array([9.0 - eps]), np.array([-9.0 - eps])))
            assert abs(policy - nearby) <= 1e-3 * abs(policy)

    def test_sigma4_double_singular_limit(self):
        x0 = np.array([5.0, 5.0, -5.0, -5.0])  # two vanishing pair factors
        policy = scalar(KERN.sigma4(*[np.array([v]) for v in x0]))
        eps = 1e-6
        nearby = scalar(KERN.sigma4(
            np.array([5.0 + eps]), np.array([5.0 - eps]),
            np.array([-5.0 + eps]), np.array([-5.0 - eps])))
        assert abs(policy - nearby) <= 1e-3 * max(abs(policy), 1e-300)


class TestBatchIndependence:
    """The singular limits stack their displaced arguments into one kernel
    call; no element of a batch may depend on the others."""

    KERNELS = [KERN, EnergyMultipliers(M, D, band_cutoff=12.0)]

    @pytest.mark.parametrize("kern", KERNELS, ids=["plain", "band"])
    def test_sigma4_batch_equals_one_at_a_time(self, kern):
        tuples = np.array([
            [5.0, -5.0, 9.0, -9.0],     # x1 + x2 = 0
            [5.0, 9.0, -5.0, -9.0],     # x1 + x3 = 0
            [9.0, 5.0, -5.0, -9.0],     # x2 + x3 = 0
            [5.0, 5.0, -5.0, -5.0],     # x1 + x3 = x2 + x3 = 0
            [5.0, -5.0, 5.0, -5.0],     # x1 + x2 = x2 + x3 = 0
            [5.0, -5.0, -5.0, 5.0],     # x1 + x2 = x1 + x3 = 0
            [100.0, -100.0, 37.0, -37.0],  # x1 + x2 = 0, larger step
            [7.0, 3.0, -2.0, -8.0],     # regular
            [-13.0, 6.0, 7.0, 0.0],     # regular, one zero frequency
            [6.0, -13.0, 4.5, 2.5],
            [1.0, -1.0, 2.0, -2.0],     # singular but below threshold
            [1.0, 2.0, -1.0, -2.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        batch = kern.sigma4(*tuples.T)
        single = np.array([scalar(kern.sigma4(*[t[i:i + 1] for i in range(4)]))
                           for t in tuples])
        assert np.all(batch == single)
        assert np.all(batch[:8] != 0.0) and np.all(batch[-3:] == 0.0)

    @pytest.mark.parametrize("kern", KERNELS, ids=["plain", "band"])
    def test_sigma3_batch_equals_one_at_a_time(self, kern):
        triples = np.array([
            [0.0, 9.0, -9.0],
            [9.0, 0.0, -9.0],
            [-9.0, 9.0, 0.0],
            [0.0, 100.0, -100.0],
            [0.0, -5.5, 5.5],
            [5.25, -12.5, 7.25],        # regular
            [0.0, 2.0, -2.0],           # zero frequency, below threshold
            [0.0, 0.0, 0.0],
        ])
        batch = kern.sigma3(*triples.T)
        single = np.array([scalar(kern.sigma3(*[t[i:i + 1] for i in range(3)]))
                           for t in triples])
        assert np.all(batch == single)
        assert np.all(batch[:6] != 0.0) and np.all(batch[-2:] == 0.0)


class TestSymmetricLimit:
    """The sigma4 limit is taken at the sorted tuple: all 24 orderings of a
    singular point give the same value bit for bit."""

    TUPLES = [
        (5.0, -5.0, 9.0, -9.0),          # one vanishing pairing
        (100.0, -100.0, 37.0, -37.0),    # one, larger step
        (0.5, -0.5, 11.25, -11.25),      # one, a small pair
        (9.0, -9.0, 0.0, 0.0),           # one, two zero frequencies
        (7.0, 7.0, -7.0, -7.0),          # two vanishing pairings
        (0.0, 0.0, 0.0, 0.0),            # all three; only at zero, below N
    ]

    @pytest.mark.parametrize("kern", [KERN, EnergyMultipliers(M, D, band_cutoff=12.0)],
                             ids=["plain", "band"])
    @pytest.mark.parametrize("point", TUPLES)
    def test_every_ordering_bitwise_equal(self, kern, point):
        orderings = np.array(list(itertools.permutations(point)))
        assert len(orderings) == 24
        batch = kern.sigma4(*orderings.T)
        single = [scalar(kern.sigma4(*[np.array([x]) for x in t])) for t in orderings]
        assert np.all(batch == batch[0]) and all(v == batch[0] for v in single)
        assert (batch[0] == 0.0) == (max(map(abs, point)) == 0.0)


# the first tuple sums to 0.25, off the hyperplane; the second is on it
QUINTIC_TUPLES = [(6.0, -13.0, 4.5, 2.5, 0.25), (6.0, -13.0, 4.5, 2.25, 0.25)]


class TestQuinticKernel:
    def test_m5_permutation_invariance(self):
        for x in QUINTIC_TUPLES:
            base = scalar(KERN.m5(*x))
            assert base != 0.0
            rng = np.random.default_rng(4)
            for _ in range(8):
                p = rng.permutation(5)
                val = scalar(KERN.m5(*[x[i] for i in p]))
                assert abs(val - base) <= 1e-12 * abs(base)

    def test_m5_conjugation_symmetry(self):
        for x in map(np.array, QUINTIC_TUPLES):
            a = scalar(KERN.m5(*x))
            b = scalar(KERN.m5(*(-x)))
            assert abs(b - np.conj(a)) <= 1e-12 * abs(a)


class _PlainPairM4(EnergyMultipliers):
    """The six-pair sum of sigma4's regular kernel as the pair terms with
    ``m2x=None``: each sigma3 call evaluates ``m^2 x`` at its own three
    frequencies."""

    def _m4_sum(self, x1, x2, x3, x4, pairs=None, m2x=None):
        xs = (x1, x2, x3, x4)
        terms = [self._t_pair(xs[a], xs[b]) for a, b in itertools.combinations(range(4), 2)]
        return functools.reduce(operator.add, terms)


class TestM4SharedM2:
    """Without ``m2x``, m4 evaluates ``m^2 x`` once at the four frequencies
    and once at the six pair sums, and equals the plain six-term sum bit
    for bit (m is even: the pair terms take ``-(m^2(s) s)`` for
    ``m^2(-s) (-s)``)."""

    @staticmethod
    def regular_batch():
        x = zero_sum_tuples(np.random.default_rng(8), 3000, 4, span=60.0)
        p = np.stack([x[:, 0] + x[:, 1], x[:, 0] + x[:, 2], x[:, 1] + x[:, 2]])
        return x[np.all(np.abs(p) > 1e-9, axis=0)]

    @staticmethod
    def singular_batch():
        rng = np.random.default_rng(9)
        a = rng.integers(5, 60, 400).astype(np.float64)
        b = a + rng.integers(1, 30, 400)
        x = np.column_stack([a, -a, b, -b])
        return rng.permuted(x * rng.choice([-1.0, 1.0], (400, 1)), axis=1)

    @pytest.mark.parametrize("cutoff", [None, 30.0], ids=["plain", "band"])
    @pytest.mark.parametrize("batch", ["regular", "singular"])
    def test_ten_evaluations_bitwise_equal(self, monkeypatch, cutoff, batch):
        x = getattr(self, f"{batch}_batch")()
        expect = _PlainPairM4(M, D, band_cutoff=cutoff).sigma4(*x.T)
        calls = []
        m2 = IMultiplier.m2

        def counted(self, xi):
            calls.append(np.size(xi))
            return m2(self, xi)

        monkeypatch.setattr(IMultiplier, "m2", counted)
        got = EnergyMultipliers(M, D, band_cutoff=cutoff).sigma4(*x.T)
        # a singular-only batch is one displaced stack through the regular kernel
        assert len(calls) == 10
        assert np.array_equal(got, expect)
        assert np.count_nonzero(got) > 0.5 * len(x)


def reference_m5(kern, *x):
    """The ten pair groupings, each a plain ``sigma4`` call."""
    cols = list(np.broadcast_arrays(*[np.atleast_1d(np.asarray(c, dtype=np.float64))
                                      for c in x]))
    total = np.zeros(cols[0].shape, dtype=np.complex128)
    for a, b in itertools.combinations(range(5), 2):
        rest = [i for i in range(5) if i not in (a, b)]
        s = cols[a] + cols[b]
        total = total + (kern.sigma4(cols[rest[0]], cols[rest[1]], cols[rest[2]], s)
                         * s * kern._band(s))
    return -0.2j * total


def lattice_quintuples(rng, count, span=40):
    """Integer zero-sum 5-tuples with vanishing pair sums, zero frequencies
    and pairings that vanish in sigma4's regular and limit paths."""
    x = rng.integers(-span, span + 1, (count, 4)).astype(np.float64)
    x[0::5, 1] = -x[0::5, 0]                 # x1 + x2 = 0
    x[1::5, 3] = -x[1::5, 2]                 # x3 + x4 = 0
    x[2::5, 2] = 0.0                         # a zero frequency
    x[3::5, 1], x[3::5, 3] = -x[3::5, 0], -x[3::5, 2]   # two vanishing pairs
    x5 = -x.sum(axis=1)
    return np.column_stack([x, x5])


class TestM5SharedPairs:
    """m5 computes each singleton pair term once; it must equal the
    ten-grouping sum of plain sigma4 calls bit for bit."""

    @pytest.mark.parametrize("cutoff", [None, 30.0], ids=["plain", "band"])
    def test_audit_tuples(self, cutoff):
        from kawalab.audits import _shell_tuples
        kern = EnergyMultipliers(IMultiplier(16.0), D, band_cutoff=cutoff)
        x = np.concatenate([_shell_tuples(112, e, 7, 400, 5)[0] for e in range(8)])
        got = kern.m5(*x.T)
        assert np.array_equal(got, reference_m5(kern, *x.T))
        assert np.all(np.isfinite(got))

    def test_m2_once_per_distinct_argument(self, monkeypatch):
        # 5 frequencies, 10 pair sums and 30 triple sums x_c + s_ab; one
        # evaluation per sigma3 call would make 120
        from kawalab.audits import _shell_tuples
        calls = []
        m2 = IMultiplier.m2

        def counted(self, xi):
            calls.append(np.size(xi))
            return m2(self, xi)

        monkeypatch.setattr(IMultiplier, "m2", counted)
        kern = EnergyMultipliers(IMultiplier(16.0), D)
        x, _ = _shell_tuples(112, 6, 7, 2500, 5)
        kern.m5(*x.T)
        assert len(calls) == 45

    @pytest.mark.parametrize("cutoff", [None, 30.0], ids=["plain", "band"])
    def test_lattice_tuples_with_singular_pairings(self, cutoff):
        kern = EnergyMultipliers(M, D, band_cutoff=cutoff)
        x = lattice_quintuples(np.random.default_rng(6), 3000)
        got = kern.m5(*x.T)
        assert np.array_equal(got, reference_m5(kern, *x.T))
        assert np.all(np.isfinite(got)) and np.count_nonzero(got) > 2000


def _richardson_complex(f, cols, direction, step):
    eps = (step, -step, 0.5 * step, -0.5 * step)
    args = [np.concatenate([c + e * d for e in eps]) for c, d in zip(cols, direction)]
    fp, fm, hp, hm = np.split(f(*args), 4)
    g1 = 0.5 * (fp + fm)
    g2 = 0.5 * (hp + hm)
    return (4.0 * g2 - g1) / 3.0


class _ComplexChain(EnergyMultipliers):
    """The complex128 chain the float64 kernels replaced: each level
    divides complex values (numpy's Smith division), and m5 runs every
    tuple through every grouping."""

    def sigma3(self, x1, x2, x3, m2x=None):
        x1, x2, x3 = np.broadcast_arrays(*[np.atleast_1d(np.asarray(c, dtype=np.float64))
                                           for c in (x1, x2, x3)])
        N = self.mult.threshold
        below = (np.abs(x1) <= N) & (np.abs(x2) <= N) & (np.abs(x3) <= N)
        singular = (x1 * x2 * x3 == 0.0) & ~below
        out = np.zeros(x1.shape, dtype=np.complex128)
        ok = ~below & ~singular
        if np.any(ok):
            if m2x is not None:
                m2x = [v[ok] for v in m2x]
            out[ok] = self._sigma3_regular(x1[ok], x2[ok], x3[ok], m2x)
        if np.any(singular):
            out[singular] = self._sigma3_limit(x1[singular], x2[singular], x3[singular])
        return out

    def _sigma3_regular(self, x1, x2, x3, m2x=None):
        return -self.m3(x1, x2, x3, m2x) / self.hv3(x1, x2, x3)

    def _sigma3_limit(self, x1, x2, x3):
        mags = np.stack([np.abs(x1), np.abs(x2), np.abs(x3)])
        zero_slot, big_slot = np.argmin(mags, axis=0), np.argmax(mags, axis=0)
        direction = [(zero_slot == i).astype(np.float64) - (big_slot == i).astype(np.float64)
                     for i in range(3)]
        step = 1e-3 * np.maximum(1.0, mags.max(axis=0))
        return _richardson_complex(self._sigma3_regular, [x1, x2, x3], direction, step)

    def _t_pair(self, xa, xb, m2x=None):
        s = xa + xb
        if m2x is not None:
            m2x = (m2x[0], m2x[1], -m2x[2])
        return self.sigma3(xa, xb, -s, m2x) * s * self._band(s)

    def m4(self, x1, x2, x3, x4, pairs=None, m2x=None):
        xs = (x1, x2, x3, x4)
        if m2x is None:
            m2x = [self._m2x(x) for x in xs]

        def term(a, b):
            return self._t_pair(xs[a], xs[b], (m2x[a], m2x[b], self._m2x(xs[a] + xs[b])))

        if pairs is None:
            pairs = (term(0, 1), term(0, 2), term(1, 2))
        t14, t24, t34 = (term(a, 3) for a in range(3))
        t12, t13, t23 = pairs
        return 0.25j * (t12 + t13 + t14 + t23 + t24 + t34)

    def sigma4(self, x1, x2, x3, x4, pairs=None, m2x=None):
        x1, x2, x3, x4 = np.broadcast_arrays(*[np.atleast_1d(np.asarray(c, dtype=np.float64))
                                               for c in (x1, x2, x3, x4)])
        N = self.mult.threshold
        p12, p13, p23 = x1 + x2, x1 + x3, x2 + x3
        below = np.all(np.abs(np.stack([x1, x2, x3, x4, p12, p13, p23])) <= N, axis=0)
        singular = ((p12 == 0.0) | (p13 == 0.0) | (p23 == 0.0)) & ~below
        out = np.zeros(x1.shape, dtype=np.complex128)
        ok = ~below & ~singular
        if np.any(ok):
            if pairs is not None:
                pairs = [t[ok] for t in pairs]
            if m2x is not None:
                m2x = [v[ok] for v in m2x]
            out[ok] = self._sigma4_regular(x1[ok], x2[ok], x3[ok], x4[ok], pairs, m2x)
        if np.any(singular):
            out[singular] = self._sigma4_limit(
                x1[singular], x2[singular], x3[singular], x4[singular])
        return out

    def _sigma4_regular(self, x1, x2, x3, x4, pairs=None, m2x=None):
        return -self.m4(x1, x2, x3, x4, pairs, m2x) / self.hv4(x1, x2, x3, x4)

    def _sigma4_limit(self, x1, x2, x3, x4):
        cols = np.sort(np.stack([x1, x2, x3, x4]), axis=0)
        z12 = (cols[0] + cols[1] == 0.0) | (cols[2] + cols[3] == 0.0)
        z13 = (cols[0] + cols[2] == 0.0) | (cols[1] + cols[3] == 0.0)
        z23 = (cols[1] + cols[2] == 0.0) | (cols[0] + cols[3] == 0.0)
        d = self._DIRECTION_ROWS[4 * z12 + 2 * z13 + z23]
        step = 1e-3 * np.maximum(1.0, np.max(np.abs(cols), axis=0))
        return _richardson_complex(self._sigma4_regular, list(cols), list(d.T), step)

    def m5(self, x1, x2, x3, x4, x5):
        cols = list(np.broadcast_arrays(*[np.atleast_1d(np.asarray(c, dtype=np.float64))
                                          for c in (x1, x2, x3, x4, x5)]))
        groupings = list(itertools.combinations(range(5), 2))
        sums = {(a, b): cols[a] + cols[b] for a, b in groupings}
        m2x = [self._m2x(c) for c in cols]
        m2x_sum = {ab: self._m2x(s) for ab, s in sums.items()}
        pair = {(a, b): self._t_pair(cols[a], cols[b], (m2x[a], m2x[b], m2x_sum[a, b]))
                for a, b in groupings}
        total = np.zeros(cols[0].shape, dtype=np.complex128)
        for a, b in groupings:
            c, d, e = (i for i in range(5) if i not in (a, b))
            s = sums[a, b]
            total = total + (
                self.sigma4(cols[c], cols[d], cols[e], s,
                            pairs=(pair[c, d], pair[c, e], pair[d, e]),
                            m2x=(m2x[c], m2x[d], m2x[e], m2x_sum[a, b]))
                * s * self._band(s))
        return -0.2j * total


class TestRealChain:
    """sigma3, the pair terms, M4 and sigma4 run as float64 arrays: sigma3
    and sigma4 equal the complex128 chain's real part bit for bit, whose
    imaginary part is exactly zero, and m4 and m5 apply i once and equal
    it in both parts (zeros compare equal whatever their sign)."""

    @staticmethod
    def quintuples(case):
        if case == "shells":
            from kawalab.audits import _shell_tuples
            return np.concatenate([_shell_tuples(112, e, 7, 400, 5)[0] for e in range(8)])
        if case == "lattice":
            return lattice_quintuples(np.random.default_rng(6), 3000)
        x4 = TestM4SharedM2.singular_batch()
        return np.column_stack([x4, np.zeros(len(x4))])

    @pytest.mark.parametrize("cutoff", [None, 30.0], ids=["plain", "band"])
    @pytest.mark.parametrize("case", ["shells", "lattice", "singular"])
    def test_bitwise_equal_complex_chain(self, cutoff, case):
        x5 = self.quintuples(case)
        x4 = np.column_stack([x5[:, :3], x5[:, 3] + x5[:, 4]])
        x3 = np.column_stack([x4[:, :2], x4[:, 2] + x4[:, 3]])
        mult = IMultiplier(16.0) if case == "shells" else M
        got = EnergyMultipliers(mult, D, band_cutoff=cutoff)
        want = _ComplexChain(mult, D, band_cutoff=cutoff)
        for name, x in (("sigma3", x3), ("sigma4", x4), ("m4", x4), ("m5", x5)):
            a, b = getattr(got, name)(*x.T), getattr(want, name)(*x.T)
            if name.startswith("sigma"):
                assert a.dtype == np.float64, name
                assert np.array_equal(a, b.real), name
                assert np.all(b.imag == 0.0), name
            else:
                assert a.dtype == np.complex128, name
                assert np.array_equal(a.real, b.real), name
                assert np.array_equal(a.imag, b.imag), name
            assert np.count_nonzero(a) > 0, name


class TestM5DeadTuples:
    """A 5-tuple whose frequencies and pair sums all lie at or below N has
    M5 = 0 exactly; m5 evaluates no m^2 there."""

    KERN16 = EnergyMultipliers(IMultiplier(16.0), D)

    @staticmethod
    def tops(x):
        sums = [x[:, a] + x[:, b] for a, b in itertools.combinations(range(5), 2)]
        return np.max(np.abs(np.column_stack([x] + sums)), axis=1)

    def counted_m5(self, monkeypatch, x):
        calls = []
        m2 = IMultiplier.m2

        def counted(self, xi):
            calls.append(np.size(xi))
            return m2(self, xi)

        monkeypatch.setattr(IMultiplier, "m2", counted)
        return self.KERN16.m5(*x.T), calls

    def test_dead_batch_evaluates_no_m2(self, monkeypatch):
        from kawalab.audits import _shell_tuples
        x, _ = _shell_tuples(112, 0, 7, 2500, 5)
        assert np.all(self.tops(x) <= 16.0)
        got, calls = self.counted_m5(monkeypatch, x)
        assert calls == [] and np.all(got == 0.0) and got.dtype == np.complex128

    def test_mixed_batch_evaluates_live_rows(self, monkeypatch):
        from kawalab.audits import _shell_tuples
        x, _ = _shell_tuples(112, 2, 7, 2500, 5)
        live = self.tops(x) > 16.0
        assert 0 < np.count_nonzero(live) < 0.5 * len(x)
        got, calls = self.counted_m5(monkeypatch, x)
        # frequencies and pair sums at every live row; each grouping's
        # triple sums at those of its live rows above threshold
        n_live = np.count_nonzero(live)
        assert len(calls) == 45 and calls[:15] == [n_live] * 15 and max(calls) == n_live
        assert np.all(got[~live] == 0.0) and np.all(got[live] != 0.0)
        assert np.array_equal(got, _ComplexChain(IMultiplier(16.0), D).m5(*x.T))

    def test_nan_tuple_stays_live(self):
        x = np.array([[1.0, 2.0, -1.0, -2.0, 0.0], [1.0, np.nan, -1.0, -2.0, 2.0]])
        got = self.KERN16.m5(*x.T)
        assert got[0] == 0.0 and np.isnan(got[1].imag)


class TestPiecewiseBranches:
    """``_piecewise`` evaluates a mostly live batch in place and gathers the
    points of a mostly skipped one; both give the same bits and the same
    ``limit`` call. The kernels are sigma4's, with ``m^2 x`` given at the
    four frequencies."""

    @staticmethod
    def in_place(regular, cols, skip, given):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(skip, 0.0, regular(*cols, None, given))

    @staticmethod
    def gathered(regular, cols, skip, given):
        out = np.zeros(cols[0].shape)
        ok = ~skip
        out[ok] = regular(*[c[ok] for c in cols], None, [g[ok] for g in given])
        return out

    @pytest.mark.parametrize("mostly", ["live", "skipped"])
    def test_branches_agree_bitwise(self, mostly):
        def bits(a):
            # every NaN as one NaN: numpy's loops may differ in its sign bit
            return np.where(np.isnan(a), np.nan, a).tobytes()

        rng = np.random.default_rng(32)
        x = np.vstack([
            zero_sum_tuples(rng, 24, 4, span=60.0),
            [[5.0, -5.0, 9.0, -9.0], [5.0, 5.0, -5.0, -5.0], [100.0, -100.0, 37.0, -37.0],
             [1.0, -1.0, 2.0, -2.0], [np.nan, 3.0, -9.0, np.nan]],
        ])
        cols = _columns(*x.T)
        given = tuple(KERN._m2x(c) for c in cols)
        below = _top(*cols, cols[0] + cols[1], cols[0] + cols[2],
                     cols[1] + cols[2]) <= M.threshold
        zero = ((cols[0] + cols[1] == 0.0) | (cols[0] + cols[2] == 0.0)
                | (cols[1] + cols[2] == 0.0))
        if mostly == "skipped":
            below = below | (np.arange(len(x)) % 4 != 0)
            below[-5:-1] = False  # the four rows with a vanishing pair sum
        skip = below | zero
        assert (2 * np.count_nonzero(skip) <= skip.size) == (mostly == "live")
        singular = zero & ~below
        assert 0 < np.count_nonzero(singular) and np.isnan(x[-1]).any() and not skip[-1]

        calls = []

        def limit(*c):
            calls.append(c)
            return KERN._sigma4_limit(*c)

        got = _piecewise(KERN._sigma4_regular, limit, cols, below, zero, None, given)
        assert len(calls) == 1
        assert all(a.tobytes() == c[singular].tobytes() for a, c in zip(calls[0], cols))
        for branch in (self.in_place, self.gathered):
            want = branch(KERN._sigma4_regular, cols, skip, given)
            want[singular] = KERN._sigma4_limit(*[c[singular] for c in cols])
            assert bits(got) == bits(want), branch.__name__
        assert np.isnan(got[-1]) and np.all(got[skip & ~zero] == 0.0)


@pytest.mark.parametrize("cutoff", [np.nan, -5.0, 0.0, np.inf],
                         ids=["nan", "negative", "zero", "inf"])
def test_invalid_band_cutoff_rejected(cutoff):
    # NaN and nonpositive cutoffs used to zero corr4 silently, and
    # lambda5_m5 failed on them with unrelated errors
    with pytest.raises(ValueError, match="band_cutoff"):
        EnergyMultipliers(M, D, band_cutoff=cutoff)
    u = SpectralField.random_real(Grid(2 * np.pi, 64), np.random.default_rng(1), support=8)
    with pytest.raises(ValueError, match="band_cutoff"):
        modified_energies(u, IMultiplier(8.0), D, band_cutoff=cutoff)
