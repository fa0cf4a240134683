"""Frequency-band iterates of the smoothness-breaking datum.

The datum concentrates on two bands of width ``r = (N^1.5 log N)^-1``
around +-N. Iterates are computed gridless: the time dependence is
integrated in closed form (phase-difference quotients), and only the band
frequencies are quadratured, with Gauss-Legendre nodes per band. The
second iterate splits into a free-phase and a flow-phase piece, and the
third iterate's resonant part (the small-theta region, where the cubic
phase function collapses to size ``r^2 N^3 ~ (log N)^-2``) carries the
norm growth that defeats third-order smoothness of the data-to-solution
map below index -9/4.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dispersion import DispersionParams, omega, phasor, resonance

__all__ = [
    "IllposedConfig",
    "FrequencyBoxDatum",
    "theta_eval",
    "theta_direct",
    "build_datum",
    "iterate_A",
    "illposed_sweep",
    "growth_fit",
]


def theta_direct(x1, x2, x3, disp):
    """Three-frequency phase ``omega(x1)+omega(x2)+omega(x3)-omega(sum)``."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    x3 = np.asarray(x3, dtype=np.float64)
    return (
        omega(x1, disp) + omega(x2, disp) + omega(x3, disp)
        - omega(x1 + x2 + x3, disp)
    )


def theta_eval(x1, x2, x3, disp):
    """Factored form ``5 (x1+x2)(x1+x3)(x2+x3) (S/2 + T^2/2 - 3 mu/5)``
    with S the square sum of the triple and T its total."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    x3 = np.asarray(x3, dtype=np.float64)
    squares = x1 * x1 + x2 * x2 + x3 * x3
    total = x1 + x2 + x3
    return (
        5.0
        * (x1 + x2) * (x1 + x3) * (x2 + x3)
        * (0.5 * squares + 0.5 * total ** 2 - 0.6 * disp.mu)
    )


def theta_identity_gap(x, disp):
    """Max discrepancy between the direct and factored phase, relative to
    the magnitudes actually summed (the direct form cancels fifth powers,
    so a ratio against theta itself would measure its conditioning, not
    the identity)."""
    x = np.asarray(x, dtype=np.float64)
    td = theta_direct(x[..., 0], x[..., 1], x[..., 2], disp)
    tf = theta_eval(x[..., 0], x[..., 1], x[..., 2], disp)
    scale = np.maximum(np.abs(td), np.abs(tf)) + np.sum(
        np.abs(omega(x, disp)), axis=-1)
    return float(np.max(np.abs(td - tf) / scale))


@dataclass(frozen=True)
class IllposedConfig:
    sobolev_s: float = -2.5
    n_list: tuple = (2 ** 7, 2 ** 8, 2 ** 9, 2 ** 10, 2 ** 11)
    t_eval: float = 0.5
    mu: float = 1.0
    quad_points: int = 48
    out_points: int = 64

    def __post_init__(self):
        if not (0.0 < self.t_eval <= 1.0):
            raise ValueError("evaluation time must lie in (0, 1]")
        if any(N < 8 for N in self.n_list):
            raise ValueError("band frequencies must be at least 8")


# the resonant piece of the third iterate is its free-phase part on
# |theta| <= _THETA_CUT_FACTOR * r^2 N^3, a multiple of the collapsed phase scale
_THETA_CUT_FACTOR = 128.0


def band_halfwidth(N):
    return 1.0 / (N ** 1.5 * np.log(N))


@dataclass(frozen=True)
class FrequencyBoxDatum:
    """Two-band datum: ``amplitude`` on ``||xi| - N| < r``, normalized so
    the H^s norm is 1 (half the raw band height, whose squared band
    integral is 4)."""

    N: float
    r: float
    sobolev_s: float
    amplitude: float
    hs_norm: float


@lru_cache(maxsize=32)
def _legendre(n):
    """Gauss-Legendre nodes and weights of order ``n`` on [-1, 1]; cached,
    so they are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss(lo, hi, n):
    nodes, weights = _legendre(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def build_datum(config, N):
    """Datum with verified H^s norm (direct band integration)."""
    r = band_halfwidth(N)
    if r <= 0 or not np.isfinite(r):
        raise ValueError("band width below quadrature resolution")
    s = config.sobolev_s
    amplitude = 0.5 * r ** -0.5 * N ** -s
    nodes, weights = _gauss(N - r, N + r, config.quad_points)
    band = np.sum(weights * (1.0 + nodes ** 2) ** s) * amplitude ** 2
    norm = np.sqrt(2.0 * band)
    if not (0.9 <= norm <= 1.1):
        raise ValueError(f"datum norm {norm:.4f} outside [0.9, 1.1]")
    return FrequencyBoxDatum(N=N, r=r, sobolev_s=s, amplitude=amplitude,
                             hs_norm=float(norm))


def _phase_quotient(theta, t):
    """``E(theta, t) = (exp(i theta t) - 1)/(i theta)`` in cancellation-free
    sinc form ``t e sin(theta t/2)/(theta t/2)`` with ``e = exp(i theta t/2)``,
    whose imaginary part is the sine; entire in theta."""
    theta = np.asarray(theta, dtype=np.float64)
    half_raw = 0.5 * theta * t
    e = phasor(theta, 0.5 * t)
    small = np.abs(half_raw) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(small, 1.0 - half_raw * half_raw / 6.0,
                         e.imag / np.where(small, 1.0, half_raw))
    return t * e * ratio


def _a2_band_values(datum, disp, xi, t, quad_points):
    """Second-iterate coefficients at output frequencies ``xi``.

    ``A2_hat(xi) = i xi (2 pi)^-0.5 exp(i omega(xi) t) *
    int f(x1) f(xi - x1) E(Omega(x1, xi - x1), t) dx1``; the integral runs
    over the band overlaps.
    """
    xi = np.asarray(xi, dtype=np.float64)
    N, r, a = datum.N, datum.r, datum.amplitude
    total = np.zeros(xi.shape, dtype=np.complex128)
    for s1 in (1.0, -1.0):
        # x1 in band(s1), xi - x1 in band(s2) for s2 in {+1, -1}
        for s2 in (1.0, -1.0):
            lo = np.maximum(s1 * N - r, xi - (s2 * N + r))
            hi = np.minimum(s1 * N + r, xi - (s2 * N - r))
            width = hi - lo
            has = width > 0
            if not np.any(has):
                continue
            nodes, weights = _legendre(quad_points)
            x1 = 0.5 * (lo[has] + hi[has])[:, None] \
                + 0.5 * width[has][:, None] * nodes[None, :]
            w = 0.5 * width[has][:, None] * weights[None, :]
            x2 = xi[has][:, None] - x1
            vals = _phase_quotient(resonance(x1, x2, disp), t)
            total[has] += np.sum(w * vals, axis=1) * a * a
    pref = 1j * xi / np.sqrt(2.0 * np.pi)
    return pref * phasor(omega(xi, disp), t) * total


def _a3_band_values(datum, disp, xi, t, quad_points, theta_cut):
    """Third-iterate coefficients at output frequencies ``xi``, split into
    the resonant piece (free-phase part restricted to ``|theta| <= cut``),
    its oscillatory tail, and the flow-phase piece.

    The quadrature runs on live rows only: in each band block, the
    (xi, xa) rows whose xb interval is non-empty are gathered, evaluated on
    (rows, nodes) arrays, and each row's node sum is scattered into its
    output xi. The weight diagnostics sum the live rows' weights; a dead
    row has none.

    Returns ``(resonant, tail, flow, diagnostics)``. The full iterate is
    ``resonant + tail - flow``, all carrying ``exp(i omega(xi) t)``.
    """
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
                i_xi, i_a = np.nonzero(width > 0)
                if i_xi.size == 0:
                    continue
                lo, hi, width = lo[i_xi, i_a], hi[i_xi, i_a], width[i_xi, i_a]
                x_out, x_a, w_a = xi[i_xi][:, None], xa[i_a][:, None], wa[i_a][:, None]
                xb = 0.5 * (lo + hi)[:, None] + 0.5 * width[:, None] * nodes
                wb = 0.5 * width[:, None] * weights
                x1 = x_out - x_a - xb
                om_ab = resonance(x_a, xb, disp)
                # the resonant phase collapses to O((log N)^-2); the factored
                # form keeps it exact where the raw omega sums (~N^5) cancel
                theta = theta_eval(x1, x_a, xb, disp)
                om_1p = theta - om_ab
                pref = -x_out * (x_a + xb) / (2.0 * np.pi) * (a ** 3) * w_a * wb
                e_theta = _phase_quotient(theta, t) / (1j * om_ab)
                e_flow = _phase_quotient(om_1p, t) / (1j * om_ab)
                small = np.abs(theta) <= theta_cut
                # each live row's node sum into its output xi
                np.add.at(g1, i_xi, np.sum(pref * e_theta * small, axis=1))
                np.add.at(tail, i_xi, np.sum(pref * e_theta * ~small, axis=1))
                np.add.at(g2, i_xi, np.sum(pref * e_flow, axis=1))
                mixed = (sa != sb) or (sa != s1)
                if mixed:
                    theta_crit_max = max(theta_crit_max, float(np.max(np.abs(theta))))
                    mass = np.abs(w_a * wb)
                    crit_mass += float(np.sum(mass))
                    crit_small += float(np.sum(mass * small))
    diag = {
        "theta_crit_max": theta_crit_max,
        "small_theta_fraction": crit_small / crit_mass if crit_mass else 0.0,
    }
    return g1, tail, g2, diag


def _band_hs_norm(bands, s, values_fn, out_points):
    """H^s norm over a set of positive-frequency bands, doubled for the
    mirror bands of a real field."""
    total = 0.0
    for lo, hi in bands:
        nodes, weights = _gauss(lo, hi, out_points)
        vals = values_fn(nodes)
        total += np.sum(weights * (1.0 + nodes ** 2) ** s * np.abs(vals) ** 2)
    return float(np.sqrt(2.0 * total))


def iterate_A(config, N, order, quad_points=None):
    """Band representation and H^s norm of the requested iterate.

    Returns a dict with ``hs_norm`` plus per-order extras (the split
    pieces and the resonance diagnostics for order 3).
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    datum = build_datum(config, N)
    disp = DispersionParams(config.mu)
    s = config.sobolev_s
    t = config.t_eval
    qp = quad_points if quad_points is not None else config.quad_points
    if order == 1:
        # free flow: |A1_hat| = |f_hat|, so the norm is the datum's
        return {"datum": datum, "hs_norm": datum.hs_norm}
    if order == 2:
        r = datum.r
        bands = [(2 * N - 2 * r, 2 * N + 2 * r), (1e-9 * r, 2 * r)]

        def vals(xi):
            return _a2_band_values(datum, disp, xi, t, qp)

        norm2 = _band_hs_norm(bands, s, vals, config.out_points)
        # zero band: own mirror is the negative half, already doubled
        return {"datum": datum, "hs_norm": norm2}
    r = datum.r
    theta_cut = _THETA_CUT_FACTOR * r * r * N ** 3
    bands = [(N - 3 * r, N + 3 * r), (3 * N - 3 * r, 3 * N + 3 * r)]
    acc = {"g1": 0.0, "tail": 0.0, "g2": 0.0, "total": 0.0}
    diag_all = {"theta_crit_max": 0.0, "small_theta_fraction": 0.0}
    for lo, hi in bands:
        nodes, weights = _gauss(lo, hi, config.out_points)
        g1, tail, g2, diag = _a3_band_values(datum, disp, nodes, t, qp, theta_cut)
        wt = weights * (1.0 + nodes ** 2) ** s
        acc["g1"] += np.sum(wt * np.abs(g1) ** 2)
        acc["tail"] += np.sum(wt * np.abs(tail) ** 2)
        acc["g2"] += np.sum(wt * np.abs(g2) ** 2)
        acc["total"] += np.sum(wt * np.abs(g1 + tail - g2) ** 2)
        diag_all["theta_crit_max"] = max(diag_all["theta_crit_max"],
                                         diag["theta_crit_max"])
        diag_all["small_theta_fraction"] = max(diag_all["small_theta_fraction"],
                                               diag["small_theta_fraction"])
    out = {
        "datum": datum,
        "hs_norm": float(np.sqrt(2.0 * acc["total"])),
        "g1_norm": float(np.sqrt(2.0 * acc["g1"])),
        "tail_norm": float(np.sqrt(2.0 * acc["tail"])),
        "g2_norm": float(np.sqrt(2.0 * acc["g2"])),
        "theta_cut": float(theta_cut),
    }
    out.update(diag_all)
    return out


# The oscillatory tail of the third iterate sits at 1e-16..1e-21 against
# an a3 norm of order 0.1, where the other columns move by 4e-10 relative
# under rounding-level changes: below this share of a3_norm it is noise.
_TAIL_RESOLUTION = 1e-9


def illposed_sweep(config):
    """Per-N norms of the three iterates plus convergence diagnostics.

    ``tail_norm`` (the oscillatory tail of the third iterate) is reported
    as 0.0 when it is below ``1e-9 * a3_norm``, the resolution of the
    band quadrature; larger values are reported as computed.
    """
    rows = []
    for N in config.n_list:
        a1 = iterate_A(config, N, 1)
        a2 = iterate_A(config, N, 2)
        a3 = iterate_A(config, N, 3)
        a3_fine = iterate_A(config, N, 3, quad_points=2 * config.quad_points)
        g1_change = abs(a3_fine["g1_norm"] - a3["g1_norm"]) / a3_fine["g1_norm"]
        if g1_change > 0.02:
            raise RuntimeError(
                f"quadrature not converged at N={N}: resonant-piece change "
                f"{g1_change:.3%} on refinement"
            )
        tail = a3_fine["tail_norm"]
        rows.append({
            "N": N,
            "r": a1["datum"].r,
            "a1_norm": a1["hs_norm"],
            "a2_norm": a2["hs_norm"],
            "a3_norm": a3_fine["hs_norm"],
            "g1_norm": a3_fine["g1_norm"],
            "g2_norm": a3_fine["g2_norm"],
            "tail_norm": tail if tail >= _TAIL_RESOLUTION * a3_fine["hs_norm"] else 0.0,
            "g2_over_g1": a3_fine["g2_norm"] / a3_fine["g1_norm"],
            "theta_crit_max": a3_fine["theta_crit_max"],
            "small_theta_fraction": a3_fine["small_theta_fraction"],
            "quadrature_change": g1_change,
        })
    return rows


def growth_fit(config, rows=None):
    """Log-log slope of the (log-corrected) third-iterate norm in N.

    Divides out the ``1/log N`` factor, fits the remaining power, and
    compares with the expected exponent ``-2s - 9/2``.
    """
    if rows is None:
        rows = illposed_sweep(config)
    if len(rows) < 4:
        raise ValueError("need at least 4 band frequencies for the fit")
    N = np.array([row["N"] for row in rows], dtype=np.float64)
    y = np.array([row["a3_norm"] for row in rows], dtype=np.float64)
    corrected = np.log(y * np.log(N))
    slope = float(np.polyfit(np.log(N), corrected, 1)[0])
    expected = -2.0 * config.sobolev_s - 4.5
    return {
        "slope": slope,
        "expected": expected,
        "gap": abs(slope - expected),
        "rows": rows,
    }
