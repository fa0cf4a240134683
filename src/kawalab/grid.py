"""Periodic Fourier lattice and spectral fields.

Conventions used throughout the package:

* frequencies ``xi_m = 2*pi*m/L`` for integer modes ``m in [-n/2, n/2)``,
  stored in numpy FFT order;
* coefficients approximate the unitary continuum transform
  ``u_hat(xi) = (2*pi)**-0.5 * int u(x) exp(-i*x*xi) dx``;
* integral norms carry the quadrature weight ``2*pi/L`` on the frequency
  side and ``L/n`` in space, so the discrete Plancherel identity
  ``sum |u_hat|^2 * (2*pi/L) == sum |u|^2 * (L/n)`` holds exactly.

The Nyquist mode has no negative partner, so real-valued fields keep it
zero and every multiplier application re-zeroes it.
"""

from dataclasses import dataclass, field

import numpy as np

from .io import atomic_write_text

__all__ = [
    "Grid",
    "SpectralField",
    "require_hermitian",
    "sobolev_norm",
    "homogeneous_seminorm",
    "rescale_datum",
    "save_field",
    "load_field",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)
_ROW_BLOCK = 64  # rows per Hermitian check, so its temporaries stay small


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice: box length ``length``, ``size`` modes."""

    length: float
    size: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("box length must be positive")
        n = self.size
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("mode count n must be a power of two, n >= 8")

    @property
    def dx(self):
        return self.length / self.size

    @property
    def dxi(self):
        return 2.0 * np.pi / self.length

    @property
    def modes(self):
        """Integer mode numbers in FFT order."""
        return np.rint(np.fft.fftfreq(self.size) * self.size).astype(np.int64)

    @property
    def xi(self):
        """Lattice frequencies in FFT order."""
        return self.modes * self.dxi

    @property
    def xi_max(self):
        return (self.size // 2) * self.dxi

    @property
    def nyquist_index(self):
        return self.size // 2

    @property
    def x(self):
        return np.arange(self.size) * self.dx

    def index_of_mode(self, m):
        """FFT-order array index of integer mode ``m``."""
        m = np.asarray(m)
        return np.where(m >= 0, m, m + self.size)


@dataclass(frozen=True)
class SpectralField:
    """Complex frequency coefficients on a :class:`Grid`.

    ``real=True`` flags a field representing a real-valued function; such
    fields satisfy Hermitian symmetry and carry a zero Nyquist mode.
    """

    grid: Grid
    coeffs: np.ndarray = field(repr=False)
    real: bool = True

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.size,):
            raise ValueError("coefficient array does not match the grid")
        c = c.copy()
        if self.real:
            c[self.grid.nyquist_index] = 0.0
            require_hermitian(c)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, grid, real=True):
        return cls(grid, np.zeros(grid.size, dtype=np.complex128), real=real)

    @classmethod
    def from_physical(cls, grid, values):
        values = np.asarray(values, dtype=np.float64)
        c = np.fft.fft(values) * (grid.dx / _SQRT2PI)
        return cls(grid, c, real=True)

    @classmethod
    def from_mode_dict(cls, grid, amplitudes, real=True):
        """Field from ``{mode: coefficient}``; Hermitian partners are the
        caller's responsibility when ``real`` is set."""
        c = np.zeros(grid.size, dtype=np.complex128)
        for m, a in amplitudes.items():
            c[grid.index_of_mode(int(m))] = a
        return cls(grid, c, real=real)

    @classmethod
    def random_real(cls, grid, rng, envelope=None, support=None):
        """Random real field: unit-scale Gaussian coefficients shaped by
        ``envelope(|xi|)`` and optionally truncated to ``|m| <= support``."""
        n = grid.size
        c = np.zeros(n, dtype=np.complex128)
        half = n // 2
        re = rng.standard_normal(half - 1)
        im = rng.standard_normal(half - 1)
        c[1:half] = (re + 1j * im) / np.sqrt(2.0)
        c[half + 1:] = np.conj(c[1:half][::-1])
        c[0] = rng.standard_normal()
        if envelope is not None:
            c *= envelope(np.abs(grid.xi))
        if support is not None:
            c[np.abs(grid.modes) > support] = 0.0
        return cls(grid, c, real=True)

    # -- basic queries -----------------------------------------------

    def to_physical(self):
        u = np.fft.ifft(self.coeffs) * (_SQRT2PI / self.grid.dx)
        return u.real if self.real else u

    def l2_norm(self):
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2) * self.grid.dxi))

    def mean(self):
        """Spatial mean of the represented function."""
        return complex(self.coeffs[0] * _SQRT2PI / self.grid.length).real

    def hermitian_defect(self):
        """Relative departure from Hermitian symmetry."""
        c = self.coeffs
        flipped = np.conj(_mirror(c))
        scale = np.max(np.abs(c))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(c - flipped)) / scale)

    def support_indices(self, tol=1e-14):
        """FFT-order indices of modes carrying relative weight above ``tol``."""
        mags = np.abs(self.coeffs)
        top = mags.max()
        if top == 0.0:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(mags > tol * top)[0].astype(np.int64)

    # -- arithmetic (new fields; inputs never mutate) ------------------

    def with_coeffs(self, coeffs, real=None):
        return SpectralField(self.grid, coeffs, real=self.real if real is None else real)

    def __add__(self, other):
        self._check_mate(other)
        return self.with_coeffs(self.coeffs + other.coeffs, real=self.real and other.real)

    def __sub__(self, other):
        self._check_mate(other)
        return self.with_coeffs(self.coeffs - other.coeffs, real=self.real and other.real)

    def __mul__(self, scalar):
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_mate(self, other):
        if other.grid != self.grid:
            raise ValueError("grid mismatch")


def _mirror(c):
    """Coefficients at the negated modes, along the last axis: entry ``m``
    of the result is ``c[-m]``."""
    return np.concatenate((c[..., :1], c[..., :0:-1]), axis=-1)


def require_hermitian(c):
    """Raise unless every row of ``c`` (modes on the last axis) is finite and
    Hermitian-symmetric to 1e-10 of its own largest coefficient; the rows are
    checked ``_ROW_BLOCK`` at a time."""
    blocks = [c] if c.ndim == 1 else [c[lo:lo + _ROW_BLOCK]
                                      for lo in range(0, len(c), _ROW_BLOCK)]
    for block in blocks:
        scale = np.abs(block).max(axis=-1)
        defect = np.abs(block - np.conj(_mirror(block))).max(axis=-1)
        # fails on NaN, which compares False, and on Inf: an infinite
        # coefficient makes the defect Inf or NaN, and Inf - Inf is NaN
        ok = defect - 1e-10 * scale <= 0.0
        if np.count_nonzero(ok) < ok.size:
            raise ValueError("real-flagged field is not finite and Hermitian-symmetric")


def apply_multiplier(u, values, real=None):
    """Multiply coefficients by ``values`` (FFT order); Nyquist zeroed."""
    c = u.coeffs * values
    c[u.grid.nyquist_index] = 0.0
    return u.with_coeffs(c, real=real)


def sobolev_norm(u, s):
    """Discrete H^s norm: ``(sum <xi>^2s |u_hat|^2 * (2*pi/L))**0.5``."""
    w = (1.0 + u.grid.xi ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(u.coeffs) ** 2) * u.grid.dxi))


def homogeneous_seminorm(u, s):
    """Homogeneous counterpart ``|xi|^s``; the zero mode is excluded."""
    xi = u.grid.xi
    mask = xi != 0.0
    w = np.abs(xi[mask]) ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(u.coeffs[mask]) ** 2) * u.grid.dxi))


def rescale_datum(u, lam):
    """Datum rescaling ``u0(x) -> lam**4 * u0(lam*x)`` on the stretched box.

    The grid length becomes ``L/lam`` with the mode count unchanged, so the
    map is an exact index-preserving coefficient scaling by ``lam**3``. The
    L^2 norm scales by ``lam**3.5`` and the homogeneous H^{-7/4} seminorm
    by ``lam**1.75``, both exactly on the lattice.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("scaling parameter must lie in (0, 1]")
    stretched = Grid(u.grid.length / lam, u.grid.size)
    return SpectralField(stretched, u.coeffs * lam ** 3, real=u.real)


# -- serialization ----------------------------------------------------

_FORMAT_HEADER = "kawalab-field 1"


def save_field(u, path):
    """Text format: header (L, n, real flag) then CSV rows ``m,re,im``."""
    modes = u.grid.modes
    order = np.argsort(modes)
    lines = [
        _FORMAT_HEADER,
        f"L {u.grid.length!r}",
        f"n {u.grid.size}",
        f"real {1 if u.real else 0}",
        "m,re,im",
    ]
    for idx in order:
        c = u.coeffs[idx]
        lines.append(f"{modes[idx]},{float(c.real)!r},{float(c.imag)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_field(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValueError(f"not a kawalab field file: {path}")
    header = {}
    for ln in lines[1:4]:
        key, value = ln.split(" ", 1)
        header[key] = value
    if lines[4] != "m,re,im":
        raise ValueError("missing coefficient table header")
    grid = Grid(float(header["L"]), int(header["n"]))
    real = bool(int(header["real"]))
    c = np.zeros(grid.size, dtype=np.complex128)
    for ln in lines[5:]:
        if not ln:
            continue
        m_str, re_str, im_str = ln.split(",")
        c[grid.index_of_mode(int(m_str))] = float(re_str) + 1j * float(im_str)
    return SpectralField(grid, c, real=real)
