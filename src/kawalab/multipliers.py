"""Tuple-level kernels of the modified-energy hierarchy.

All kernels act on zero-sum frequency tuples. The chain is

    M3 = -i [m(x1) m(x2+x3) (x2+x3)]_sym      (= (i/3) sum m^2(xi) xi)
    sigma3 = -M3 / (h3 - v3)
    M4 = -(3i/2) [sigma3(x1,x2,x3+x4) (x3+x4)]_sym
    sigma4 = -M4 / (h4 - v4)
    M5 = -2i [sigma4(x1,x2,x3,x4+x5) (x4+x5)]_sym

with the symmetrization carrying the 1/k! normalizer, so the lattice
derivative identities hold with no stray constants. ``h_k - v_k`` is
always evaluated in the factored (product) form, which cancels the
rounding blowup of raw power sums when a pair sum is small.

Exactly-zero denominators are removable; they are resolved by a
one-dimensional in-hyperplane limit with Richardson extrapolation, along
a direction that moves only the vanishing factor(s). The sigma4 limit is
taken at the sorted tuple, so it is symmetric by construction: every
ordering of a singular point gets the same value bit for bit, as the
sorted-triple sums of :mod:`kawalab.imethod` require. Each point carries
its own direction and step, and the four displaced copies of the whole
singular set go through one call of the regular kernel, so the quartic
lattice sums of :mod:`kawalab.imethod` resolve the singular tuples of each
block of triples in one ``sigma4`` call and one regular-kernel call, and
a point's value does not depend on which block holds it.

M3, M4, M5 and ``h_k - v_k`` are imaginary, so sigma3 and sigma4 are
real, and the chain runs on float64 arrays: ``sigma3``, the pair terms,
the six-pair sum ``T`` (M4 = i T/4), ``sigma4`` and the grouping sum
``Q`` of M5 (M5 = -i Q/5) are real values. The factor i is the only
complex value left: ``m3``, ``m4``, ``m5``, ``hv3`` and ``hv4`` apply it
once and return complex128. The values are those of complex arithmetic
bit for bit (a zero part may differ in sign): numpy divides complex
numbers by Smith's algorithm, which takes the quotient of two imaginary
numbers as ``a * (1 / b)`` and a complex number over 3 as ``x * (1/3)``,
so every quotient here is written as that product. Each batch takes its
below-threshold and singular masks once. A batch that is mostly live runs
the regular kernel on every point in place and zeroes the skipped ones; a
mostly skipped one gathers its regular points first. The kernels are
elementwise, so both give the same bits, up to the sign of a NaN.

sigma4 and M5 evaluate ``m^2 x`` once per distinct argument. sigma4 takes
it at its four frequencies and its six pair sums, 10 evaluations per call
of the regular kernel, so each Richardson limit pays 10 for its stack of
four displaced copies. M5 takes it at the five frequencies, the ten pair
sums and the thirty triple sums ``x_c + s_ab`` that its groupings form,
and its regular sigma4 -> M4 -> sigma3 path takes these values as
``m2x``; the limit paths evaluate their own displaced points. Since m is
even, a pair term's third slot ``-(xa + xb)`` takes ``-(m^2(s) s)``, the
same bits as ``m^2(-s) (-s)``. A 5-tuple whose five frequencies and ten
pair sums all lie at or below N is dead: every sigma4 grouping is below
threshold, so M5 = 0 exactly, and ``m5`` runs the chain on the live
tuples only; a dead one costs no ``m^2`` evaluation.

An optional band cutoff makes the kernels match a dealiased Galerkin
evolution exactly: pair sums beyond the cutoff then carry weight zero in
M4 and M5, mirroring the projection inside the discrete nonlinearity.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "h_v_eval",
    "power_sum_identity_check",
    "EnergyMultipliers",
]


def h_v_eval(freqs, disp):
    """``(h_k, v_k) = (i*mu*sum xi^3, i*sum xi^5)`` for a zero-sum tuple.

    ``freqs`` has the tuple on its last axis.
    """
    # explicit products, as in dispersion.omega: numpy's pow takes a slow
    # per-element path on negative bases, and products are exactly odd
    x = np.asarray(freqs, dtype=np.float64)
    x2 = x * x
    x3 = x2 * x
    h = 1j * disp.mu * np.sum(x3, axis=-1)
    v = 1j * np.sum(x3 * x2, axis=-1)
    return h, v


def power_sum_identity_check(freqs):
    """Max relative gap between power sums and their factored forms.

    For zero-sum triples: ``sum xi^3 = 3 x1 x2 x3`` and
    ``sum xi^5 = (5/2) x1 x2 x3 sum xi^2``; for zero-sum quadruples:
    ``sum xi^3 = -3 (x1+x2)(x1+x3)(x2+x3)`` and
    ``sum xi^5 = -(5/2)(x1+x2)(x1+x3)(x2+x3) sum xi^2``.
    """
    x = np.asarray(freqs, dtype=np.float64)
    k = x.shape[-1]
    # explicit products: exactly odd, and off numpy's slow negative-base pow
    x2 = x * x
    x3 = x2 * x
    x5 = x3 * x2
    cubes = np.sum(x3, axis=-1)
    quints = np.sum(x5, axis=-1)
    squares = np.sum(x2, axis=-1)
    if k == 3:
        prod = x[..., 0] * x[..., 1] * x[..., 2]
        fc = 3.0 * prod
        fq = 2.5 * prod * squares
    elif k == 4:
        prod = (x[..., 0] + x[..., 1]) * (x[..., 0] + x[..., 2]) * (x[..., 1] + x[..., 2])
        fc = -3.0 * prod
        fq = -2.5 * prod * squares
    else:
        raise ValueError("factored forms exist for k = 3 and k = 4 only")
    scale_c = np.maximum(np.abs(cubes), np.abs(fc)) + np.sum(np.abs(x3), axis=-1)
    scale_q = np.maximum(np.abs(quints), np.abs(fq)) + np.sum(np.abs(x5), axis=-1)
    rel_c = np.abs(cubes - fc) / scale_c
    rel_q = np.abs(quints - fq) / scale_q
    return float(np.max(np.maximum(rel_c, rel_q)))


# base displacement of the removable-singularity limit, in frequency units;
# each point's step is this times max(1, its largest magnitude)
_LIMIT_STEP = 1e-3
# the ten pairs (a, b) of a 5-tuple, in the order M5 sums its groupings
_GROUPINGS = tuple(itertools.combinations(range(5), 2))


def _columns(*xs):
    """The arguments as broadcast float64 arrays of at least one dimension."""
    return np.broadcast_arrays(*[np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in xs])


def _top(*cols):
    """Pointwise largest magnitude over ``cols``; NaN where any is NaN."""
    return functools.reduce(np.maximum, [np.abs(c) for c in cols])


def _richardson(f, cols, direction, step):
    """Even-in-eps average of ``f`` at +-step, +-step/2, extrapolated.

    The four displaced argument sets go through one call of the
    elementwise ``f``, so each point's value does not depend on the batch.
    The final division by 3 is a product with 1/3, as numpy's complex
    division computes it.
    """
    eps = (step, -step, 0.5 * step, -0.5 * step)
    args = [np.concatenate([c + e * d for e in eps]) for c, d in zip(cols, direction)]
    fp, fm, hp, hm = np.split(f(*args), 4)
    g1 = 0.5 * (fp + fm)
    g2 = 0.5 * (hp + hm)
    return (4.0 * g2 - g1) * (1.0 / 3.0)


def _piecewise(regular, limit, cols, below, zero, *given):
    """A real array: 0 where ``below`` (under threshold), ``limit`` at the
    other points where ``zero`` (a vanishing denominator factor) and
    ``regular`` at the rest. ``given`` are optional per-point inputs of
    ``regular`` (None or a sequence of arrays).

    Where at most half of a nonempty batch is skipped (below or zero),
    ``regular`` runs on the whole batch in place and the skipped points
    are set to 0; otherwise its points, and ``given`` with them, are
    gathered by index and the values scattered back. The regular kernels
    are elementwise, so a point's value is the same bits either way (only
    a NaN's sign bit may follow numpy's loop), and the choice reads only
    the batch's own masks. The singular points go
    to ``limit`` on their own subset; a batch with no regular point makes
    no ``regular`` call of its own."""
    skip = below | zero
    if skip.size and 2 * np.count_nonzero(skip) <= skip.size:
        # a skipped point may divide by zero; its value is discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(skip, 0.0, regular(*cols, *given))
    else:
        out = np.zeros(cols[0].shape)
        # indices, not the boolean mask: each of the many gathers is then cheaper
        ok = np.nonzero(~skip)
        if ok[0].size:
            out[ok] = regular(*[c[ok] for c in cols],
                              *[None if g is None else [v[ok] for v in g] for g in given])
    singular = zero & ~below
    if singular.any():
        out[singular] = limit(*[c[singular] for c in cols])
    return out


@dataclass(frozen=True)
class EnergyMultipliers:
    """Kernel family for a fixed smoothing multiplier and dispersion.

    ``band_cutoff`` (a positive finite frequency, or None) activates the
    Galerkin-exact variant described in the module docstring; any other
    value raises ValueError. The removable-singularity limit displaces by
    ``_LIMIT_STEP``, in frequency units. ``sigma3`` and ``sigma4`` return
    float64 arrays; the private kernels take broadcast float64 columns and
    return real arrays too (see the module docstring).
    """

    mult: object
    disp: object
    band_cutoff: float = None

    def __post_init__(self):
        # NaN and a nonpositive cutoff would silently mask every pair sum
        # out of M4 and M5, and lambda5_m5 cannot index an infinite one
        if not (self.band_cutoff is None or 0.0 < self.band_cutoff < np.inf):
            raise ValueError(f"band_cutoff must be None or positive and finite, "
                             f"got {self.band_cutoff!r}")

    # -- helpers -------------------------------------------------------

    def _band(self, s):
        if self.band_cutoff is None:
            return 1.0
        return (np.abs(s) <= self.band_cutoff).astype(np.float64)

    def _banded(self, t, s):
        """``t * _band(s)``, which is ``t`` itself without a cutoff."""
        return t if self.band_cutoff is None else t * self._band(s)

    def _m2x(self, x):
        return self.mult.m2(x) * x

    # -- cubic level ----------------------------------------------------

    def m3(self, x1, x2, x3, m2x=None):
        """Symmetrized cubic multiplier on the zero-sum hyperplane. ``m2x``
        optionally gives ``m^2 x`` at the three frequencies."""
        if m2x is None:
            m2x = (self._m2x(x1), self._m2x(x2), self._m2x(x3))
        return (1j / 3.0) * (m2x[0] + m2x[1] + m2x[2])

    def _den3(self, x1, x2, x3):
        """Real ``(5/2) x1 x2 x3 (sum xi^2 - 6 mu/5)``, so h3 - v3 = -i times it."""
        squares = x1 * x1 + x2 * x2 + x3 * x3
        return (2.5 * (x1 * x2 * x3)) * (squares - 1.2 * self.disp.mu)

    def hv3(self, x1, x2, x3):
        """Factored ``h3 - v3 = -(5i/2) x1 x2 x3 (sum xi^2 - 6 mu/5)``."""
        return -1j * self._den3(x1, x2, x3)

    def sigma3(self, x1, x2, x3, m2x=None):
        """Real cancellation multiplier ``-M3/(h3 - v3)``; zero below
        threshold, removable zero-frequency points resolved by the limit
        policy. ``m2x`` optionally gives ``m^2 x`` at every point of the
        three frequencies; the regular points use it, the limit does not."""
        x1, x2, x3 = _columns(x1, x2, x3)
        below = _top(x1, x2, x3) <= self.mult.threshold
        return _piecewise(self._sigma3_regular, self._sigma3_limit, (x1, x2, x3),
                          below, x1 * x2 * x3 == 0.0, m2x)

    def _sigma3_regular(self, x1, x2, x3, m2x=None):
        """``(S/3) / ((5/2) x1 x2 x3 (sum xi^2 - 6 mu/5))``, S = sum m^2(xi) xi."""
        if m2x is None:
            m2x = (self._m2x(x1), self._m2x(x2), self._m2x(x3))
        return ((m2x[0] + m2x[1] + m2x[2]) * (1.0 / 3.0)) * (1.0 / self._den3(x1, x2, x3))

    def _sigma3_limit(self, x1, x2, x3):
        cols = [x1, x2, x3]
        mags = np.stack([np.abs(c) for c in cols])
        zero_slot = np.argmin(mags, axis=0)
        big_slot = np.argmax(mags, axis=0)
        direction = [
            (zero_slot == i).astype(np.float64) - (big_slot == i).astype(np.float64)
            for i in range(3)
        ]
        step = _LIMIT_STEP * np.maximum(1.0, mags.max(axis=0))
        return _richardson(self._sigma3_regular, cols, direction, step)

    # -- quartic level ---------------------------------------------------

    def _t_pair(self, xa, xb, m2x=None):
        """Real ``sigma3(xa, xb, -(xa+xb)) * (xa+xb)``, band-masked. ``m2x``
        optionally gives ``m^2 x`` at ``xa``, ``xb`` and ``xa + xb`` (m is
        even, so the third slot takes its negative)."""
        s = xa + xb
        if m2x is not None:
            m2x = (m2x[0], m2x[1], -m2x[2])
        return self._banded(self.sigma3(xa, xb, -s, m2x) * s, s)

    def m4(self, x1, x2, x3, x4):
        """Symmetrized quartic multiplier ``i T/4``, T the six-pair sum."""
        return 1j * (0.25 * self._m4_sum(*_columns(x1, x2, x3, x4)))

    def _m4_sum(self, x1, x2, x3, x4, pairs=None, m2x=None):
        """The real six-pair sum ``T = t12 + t13 + t14 + t23 + t24 + t34``.
        ``pairs`` optionally gives the terms ``(t12, t13, t23)`` already
        computed, and ``m2x`` the values ``m^2 x`` at the four frequencies.
        ``m^2 x`` is evaluated once at each frequency ``m2x`` does not give
        and once at each pair sum a computed term needs, and every pair term
        takes its three values from these: 10 evaluations when neither is
        given."""
        xs = (x1, x2, x3, x4)
        if m2x is None:
            m2x = [self._m2x(x) for x in xs]

        def term(a, b):
            return self._t_pair(xs[a], xs[b], (m2x[a], m2x[b], self._m2x(xs[a] + xs[b])))

        if pairs is None:
            pairs = (term(0, 1), term(0, 2), term(1, 2))
        t14, t24, t34 = (term(a, 3) for a in range(3))
        t12, t13, t23 = pairs
        return t12 + t13 + t14 + t23 + t24 + t34

    def _den4(self, x1, x2, x3, x4):
        """Real ``(x1+x2)(x1+x3)(x2+x3) ((5/2) sum xi^2 - 3 mu)``, so h4 - v4 = i
        times it."""
        squares = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
        return ((x1 + x2) * (x1 + x3) * (x2 + x3)) * (2.5 * squares - 3.0 * self.disp.mu)

    def hv4(self, x1, x2, x3, x4):
        """Factored ``h4 - v4 = i (x1+x2)(x1+x3)(x2+x3) ((5/2) sum xi^2 - 3 mu)``."""
        return 1j * self._den4(x1, x2, x3, x4)

    def sigma4(self, x1, x2, x3, x4, pairs=None, m2x=None):
        """Real ``-M4/(h4 - v4)`` with the singular-set limit policy.
        ``pairs`` optionally gives the pair terms ``(t12, t13, t23)`` of
        ``_m4_sum`` at every point, and ``m2x`` the values ``m^2 x`` of the
        four frequencies; the regular points use them, the limit does
        not."""
        x1, x2, x3, x4 = _columns(x1, x2, x3, x4)
        p12 = x1 + x2
        p13 = x1 + x3
        p23 = x2 + x3
        below = _top(x1, x2, x3, x4, p12, p13, p23) <= self.mult.threshold
        zero = (p12 == 0.0) | (p13 == 0.0) | (p23 == 0.0)
        return _piecewise(self._sigma4_regular, self._sigma4_limit, (x1, x2, x3, x4),
                          below, zero, pairs, m2x)

    def _sigma4_regular(self, x1, x2, x3, x4, pairs=None, m2x=None):
        """``-(T/4) / ((x1+x2)(x1+x3)(x2+x3) ((5/2) sum xi^2 - 3 mu))``."""
        return (-(0.25 * self._m4_sum(x1, x2, x3, x4, pairs, m2x))
                * (1.0 / self._den4(x1, x2, x3, x4)))

    # Direction table: move every vanishing pair factor, fix the others.
    _DIRECTIONS = {
        (True, False, False): (1.0, 1.0, -1.0, -1.0),
        (False, True, False): (1.0, -1.0, 1.0, -1.0),
        (False, False, True): (-1.0, 1.0, 1.0, -1.0),
        (True, True, False): (1.0, 0.0, 0.0, -1.0),
        (True, False, True): (0.0, 1.0, 0.0, -1.0),
        (False, True, True): (1.0, -1.0, 0.0, 0.0),
        (True, True, True): (1.0, 0.0, 0.0, -1.0),
    }
    # row 4*z12 + 2*z13 + z23 holds that key's direction (map, not a
    # comprehension: a class-body comprehension cannot see _DIRECTIONS)
    _DIRECTION_ROWS = np.array(list(map(
        _DIRECTIONS.get, itertools.product((False, True), repeat=3),
        itertools.repeat((0.0,) * 4))))

    def _sigma4_limit(self, x1, x2, x3, x4):
        """Richardson limit at the sorted tuple, so every ordering of a
        singular point gets the same value bit for bit. A pairing vanishes
        when either of its pairs does (on the zero-sum hyperplane p12 = 0
        iff p34 = 0, likewise 13|24 and 14|23), so the sorted tuple keeps
        the given tuple's vanishing pairings, also where rounding leaves
        its sum a little off zero."""
        cols = np.sort(np.stack([x1, x2, x3, x4]), axis=0)
        z12 = (cols[0] + cols[1] == 0.0) | (cols[2] + cols[3] == 0.0)
        z13 = (cols[0] + cols[2] == 0.0) | (cols[1] + cols[3] == 0.0)
        z23 = (cols[1] + cols[2] == 0.0) | (cols[0] + cols[3] == 0.0)
        d = self._DIRECTION_ROWS[4 * z12 + 2 * z13 + z23]
        scale = np.maximum(1.0, np.max(np.abs(cols), axis=0))
        return _richardson(self._sigma4_regular, list(cols), list(d.T),
                           _LIMIT_STEP * scale)

    # -- quintic level ----------------------------------------------------

    def m5(self, x1, x2, x3, x4, x5):
        """Symmetrized quintic multiplier ``-i Q/5``: Q sums, over the ten
        pair groupings (a b | c d e), ``sigma4(xc, xd, xe, s) s`` with
        ``s = xa + xb``, band-masked. The pair terms among c, d, e are
        shared by the three groupings that keep each pair, so the ten are
        computed once, as is ``m^2 x`` at the five frequencies and the ten
        pair sums; with the thirty triple sums ``x_c + s`` that is 45
        evaluations of ``m^2``. A tuple whose five frequencies and ten pair
        sums all lie at or below N is dead: every grouping is below
        threshold, so M5 = 0 exactly. The chain runs on the live tuples
        only, so a dead one costs no evaluation (a NaN tuple stays live)."""
        cols = _columns(x1, x2, x3, x4, x5)
        sums = {(a, b): cols[a] + cols[b] for a, b in _GROUPINGS}
        live = ~(_top(*cols, *sums.values()) <= self.mult.threshold)
        out = np.zeros(cols[0].shape, dtype=np.complex128)
        if live.any():
            at = np.nonzero(live)
            out.imag[at] = -0.2 * self._m5_sum([c[at] for c in cols],
                                               {ab: s[at] for ab, s in sums.items()})
        return out

    def _m5_sum(self, cols, sums):
        """The real grouping sum Q of ``m5`` at columns ``cols``, given
        their pair sums ``sums[a, b]``."""
        m2x = [self._m2x(c) for c in cols]
        m2x_sum = {ab: self._m2x(s) for ab, s in sums.items()}
        pair = {(a, b): self._t_pair(cols[a], cols[b], (m2x[a], m2x[b], m2x_sum[a, b]))
                for a, b in _GROUPINGS}
        total = 0.0
        for a, b in _GROUPINGS:
            c, d, e = (i for i in range(5) if i not in (a, b))
            s = sums[a, b]
            s4 = self.sigma4(cols[c], cols[d], cols[e], s,
                             pairs=(pair[c, d], pair[c, e], pair[d, e]),
                             m2x=(m2x[c], m2x[d], m2x[e], m2x_sum[a, b]))
            total = total + self._banded(s4 * s, s)
        return total
