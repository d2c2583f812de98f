"""Truncated two-mode Fock-space algebra.

The a mode is the one the measurement back-action displaces; the b mode of
every state built here never holds more than one photon, so a two-level b
cutoff is exact as long as moments are assembled from normal-ordered
(lowering-only) operator applications.  All values are immutable.

Displaced-Fock amplitudes <k|D(beta)|n> come from one generator,
_laguerre_rows, which walks the normalized Laguerre recurrence up each
a-chain (a = |k - n| fixed, m = min(k, n) ascending), a group of chains at a
time over all points of a call, in tiles of _TILE elements written into
buffers it reuses; displacement_matrix reads one point, whose one group steps
every chain in lockstep, and the oracle's Wigner kernel reads blocks of
radii; the tests check it against the matrix exponential, so the library
needs numpy only.
Past |beta|^2 = 1400, where e^{-|beta|^2/2} underflows, the generator raises
ValueError unless the cutoff stays below |beta|^2/8; default_cutoff states the
same ceiling (Gamma ~ 74.8) before anything is allocated.

displacement_matrix builds only the leading columns it is asked for, and
the one displacement of states, measurement.evolve_joint, asks for the
columns up to the highest occupied a level, two for the initial pointer:
O(dim) work and memory per displaced state, not O(dim^2).  Lowering
operators act on raw coefficient grids (_lower_a, _lower_b), as the moments
read them.

The Hermite-Gauss functions carry e^{-x^2/2} in a per-point exponent, so
they stay right where that factor alone underflows.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormDriftWarning",
    "TruncationWarning",
    "FieldConsistencyError",
    "TwoModeState",
    "GridSpec",
    "ScalarField",
    "displacement_matrix",
    "inner",
    "hermite_functions",
    "coordinate_wavefunction",
    "default_cutoff",
]


class NormDriftWarning(UserWarning):
    """measurement.evolve_joint changed a branch norm beyond tolerance: the cutoff is too small."""


class TruncationWarning(UserWarning):
    """Top Fock level carries non-negligible amplitude."""


class FieldConsistencyError(ValueError):
    """An intensity had no positive integral over its grid: the grid misses the beam."""


def _integer(name: str, value) -> int:
    """value as operator.index takes it (an int or a numpy integer); a ValueError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TwoModeState:
    """Complex coefficient grid c[n, m] over |n>_a |m>_b with beam waist sigma."""

    coeffs: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2:
            raise ValueError("coeffs must be a 2-D (Na, Nb) array")
        if c.shape[0] < 1 or c.shape[1] < 2:
            raise ValueError(f"need Na >= 1 and Nb >= 2, got shape {c.shape}")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("coefficients must be finite")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def na(self) -> int:
        return self.coeffs.shape[0]

    @property
    def nb(self) -> int:
        return self.coeffs.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def top_level_occupation(self) -> float:
        """Max |c| on the highest a level; the truncation-health indicator."""
        return float(np.abs(self.coeffs[-1, :]).max())


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid; y doubles as momentum p for phase-space fields."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"grid bound {name} must be finite, got {getattr(self, name)}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid bounds must satisfy min < max")
        if _integer("nx", self.nx) < 2 or _integer("ny", self.ny) < 2:
            raise ValueError("need nx >= 2 and ny >= 2")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)


@dataclass(frozen=True)
class ScalarField:
    """Real or complex samples f(x_i, y_j) on a grid; values[i, j] is row-major in x."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(f"values shape {v.shape} does not match grid ({self.grid.nx}, {self.grid.ny})")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        """Trapezoid integral of the (real part of the) field over the grid."""
        return _grid_integral(self.grid, self.values)


_INTEGRAL_CELLS = 1 << 16  # cells per block of rows in _grid_integral: bounds its temporaries


def _grid_integral(grid: GridSpec, values: np.ndarray) -> float:
    """Trapezoid integral of the real part of (nx, ny) samples over the grid.

    Each row is integrated along y in blocks of rows, so no temporary is field-sized;
    a row's sum is the same in a block as over the whole field.
    """
    ys, step = grid.ys(), max(1, _INTEGRAL_CELLS // grid.ny)
    rows = [np.trapezoid(values[i:i + step].real, ys, axis=1) for i in range(0, grid.nx, step)]
    return float(np.trapezoid(np.concatenate(rows), grid.xs()))


def _unit_intensity(grid: GridSpec, values: np.ndarray) -> ScalarField:
    """The intensity scaled to unit grid integral; FieldConsistencyError where that integral is <= 0."""
    total = _grid_integral(grid, values)
    if total <= 0:
        raise FieldConsistencyError(f"intensity integrated to {total:.3e} over the grid; the grid misses the beam")
    return ScalarField(grid, values / total)


def _lower_a(c: np.ndarray) -> np.ndarray:
    """a on a raw (na, nb) coefficient grid; the result keeps its shape, with a zero top row."""
    out = np.zeros_like(c)
    out[:-1, :] = np.sqrt(np.arange(1, c.shape[0]))[:, None] * c[1:, :]
    return out


def _lower_b(c: np.ndarray) -> np.ndarray:
    """b on a raw (na, nb) coefficient grid; the result keeps its shape, with a zero top column."""
    out = np.zeros_like(c)
    out[:, :-1] = np.sqrt(np.arange(1, c.shape[1]))[None, :] * c[:, 1:]
    return out


_UNDERFLOW_X = 1400.0  # |beta|^2 beyond which e^{-|beta|^2/2} leaves the normal floats
# ln 2 = _LN2_HI + _LN2_LO, with e * _LN2_HI exact for |e| < 2^20 (fdlibm's split)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


_TILE = 1 << 14  # elements per tile of _laguerre_rows: chains per group times points per call


def _laguerre_rows(x: np.ndarray, K: int):
    """Walk the displaced-Fock magnitudes

        l_m^a(x) = sqrt(m!/(m+a)!) x^{a/2} e^{-x/2} L_m^(a)(x),  m + a < K,

    at the points x = |beta|^2 (a flat float array), so that
    <m+a|D(beta)|m> = e^{ia theta} l_m^a and <m|D(beta)|m+a> = (-e^{-i theta})^a l_m^a
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  Each a-chain is walked
    up in m, in groups of G = clamp(_TILE // len(x), 1, K) consecutive a, the
    groups top down: [K-G, K), [K-2G, K-G), ..., the lowest one shorter when G
    does not divide K.  So a tile is a few long rows, and one point takes one
    group of every chain, stepped in lockstep.  This yields (a0, a1, tiles)
    per group, and tiles yields, for m = 0..K-1-a0, the
    (min(a1, K - m) - a0, len(x)) tile of l_m^a, a = a0 upward.  A chain's
    m = 0 element is built in log space, the later ones by the Laguerre
    recurrence in its normalized form

        l_{m+1} = [(2m+1+a-x) l_m - sqrt(m(m+a)) l_{m-1}] / sqrt((m+1)(m+1+a)),

    which neither overflows nor builds factorials.  The coefficients of a step
    are made once, when a group first reaches it, so a consumer that stops
    after c tiles of the one group does O(K c) work, not O(K^2).  Every element
    takes the same operations in the same order however the chains are
    grouped, so the values do not depend on G.

    Buffer contract: a tile is a view of buffers the walk reuses, valid until
    the walk advances, so a consumer that keeps one copies it; a group's tiles
    are consumed before the next group is asked for.  The first group is the
    tallest, so a consumer sizes its own per-group buffers from it.

    Where e^{-x/2} underflows (x > 1400) the m = 0 elements are zero in
    floating point, so the tiles are only right while K <= x/8 keeps every
    element they reach negligible; beyond that this raises ValueError instead
    of returning wrong amplitudes.
    """
    bad = (x > _UNDERFLOW_X) & (K > x / 8)
    if bad.any():
        raise ValueError(
            f"displaced-Fock amplitudes at |beta|^2 = {x[bad].max():.6g} need a cutoff "
            f"K <= |beta|^2/8 (got K = {K}): e^(-|beta|^2/2) underflows beyond |beta|^2 = {_UNDERFLOW_X:g}"
        )
    G = min(max(_TILE // x.size, 1), K)
    a = np.arange(K, dtype=float)[:, None]
    pos = x > 0
    logx = np.log(np.where(pos, x, 1.0))
    half_x = x / 2
    half_lgam = np.cumsum(np.log(np.maximum(a, 1.0)), axis=0) / 2  # log(a!) / 2
    # roots[m] = (sqrt((m+1)(m+1+a)), its inverse) for a = 0..K-2-m: step m multiplies by the
    # inverse, step m + 1 multiplies l_m by the root; made when a group first reaches step m
    roots = []
    bufs = np.empty((4, G, x.size))

    def tiles(a0, a1):
        ag = a[a0:a1]
        amx, prev, row, nxt = bufs[:, : a1 - a0]
        np.subtract(ag, x, out=amx)
        np.multiply(ag, logx, out=row)
        row /= 2
        row -= half_x
        row -= half_lgam[a0:a1]
        np.exp(row, out=row)
        if not pos.all():
            row[:, ~pos] = ag == 0
        yield row
        for m in range(K - 1 - a0):
            if m == len(roots):
                r = np.sqrt((m + 1) * (m + 1 + a[: K - 1 - m]))
                roots.append((r, 1.0 / r))
            g = min(a1, K - 1 - m) - a0
            u, l, p = nxt[:g], row[:g], prev[:g]
            np.add(amx[:g], 2 * m + 1, out=u)
            u *= l
            if m:  # l_{-1} = 0
                p *= roots[m - 1][0][a0:a0 + g]
                u -= p
            u *= roots[m][1][a0:a0 + g]
            prev, row, nxt = row, nxt, prev
            yield u

    for a1 in range(K, 0, -G):
        a0 = max(a1 - G, 0)
        yield a0, a1, tiles(a0, a1)


def displacement_matrix(alpha: complex, dim: int, cols: int | None = None) -> np.ndarray:
    """The leading (dim, cols) columns of D(alpha) on a dim-level truncation.

    cols=None gives the whole dim x dim matrix.  Tile m (m < cols) of the one
    group _laguerre_rows walks for one point goes on the diagonals through
    (m, m): e^{ia theta} l_m^a at (m+a, m) and (-e^{-i theta})^a l_m^a at
    (m, m+a), with alpha = |alpha| e^{i theta}, so it makes O(dim * cols)
    elements; it raises ValueError for a non-finite alpha and past the
    underflow limit stated there.  A real alpha takes exact signs, not a
    rounded e^{i pi n}, so D(-s) = P D(s) P with P = diag((-1)^n) exactly.
    The matrix exponential that checks these elements lives in the tests.
    """
    z = complex(alpha)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if _integer("dim", dim) < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if cols is None:
        cols = dim
    if not 1 <= _integer("cols", cols) <= dim:
        raise ValueError(f"cols must lie in [1, dim = {dim}], got {cols}")
    lower = np.exp(1j * np.angle(z) * np.arange(dim)) if z.imag else (-1.0 if z.real < 0 else 1.0) ** np.arange(dim)
    upper = (-1.0) ** np.arange(cols) * lower[:cols].conj()
    d = np.empty((dim, cols), dtype=complex)
    (_, _, rows), = _laguerre_rows(np.array([abs(z) ** 2]), dim)  # one point: one group, a row per m
    for m, row in zip(range(cols), rows):
        d[m:, m] = lower[: dim - m] * row[:, 0]
        d[m, m:] = upper[: cols - m] * row[: cols - m, 0]
    return d


def _occupied_levels(state: TwoModeState) -> int:
    """One past the highest occupied a level (1 for the zero state): the columns of D a product reads."""
    return int(np.flatnonzero(state.coeffs.any(axis=1)).max(initial=0)) + 1


def inner(u: TwoModeState, v: TwoModeState) -> complex:
    """<u|v>; conjugate-symmetric."""
    if u.coeffs.shape != v.coeffs.shape or u.sigma != v.sigma:
        raise ValueError("states must share (Na, Nb) and sigma")
    return complex(np.vdot(u.coeffs, v.coeffs))


def hermite_functions(pts: np.ndarray, nmax: int, sigma: float = 1.0) -> np.ndarray:
    """Normalized Hermite-Gauss functions u_0..u_{nmax-1} sampled at pts.

    u_n(x) = (pi sigma^2)^{-1/4} (2^n n!)^{-1/2} H_n(x/sigma) e^{-x^2/(2 sigma^2)},
    evaluated by the normalized three-term recurrence on mantissas: u_n = m_n 2^e,
    where the per-point exponent e carries e^{-xi^2/2} and every rescaling of
    the mantissas, so nothing underflows where the Gaussian alone would
    (|xi| >= 38.6) and nothing overflows.  It raises ValueError for a sigma
    that is not positive and finite, a non-finite point or a negative nmax.
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if _integer("nmax", nmax) < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    x = np.asarray(pts, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"pts must be finite, got {x[~np.isfinite(x)][0]}")
    xi = x / sigma
    # the floor keeps e in int64; no recurrence of fewer than 1e15 steps climbs back from 2^-1.4e18
    h = np.maximum(-(xi**2) / 2, -1e18)
    e = np.floor(h / math.log(2))
    cur = np.pi ** -0.25 / math.sqrt(sigma) * np.exp((h - e * _LN2_HI) - e * _LN2_LO)
    prev = np.zeros_like(cur)
    e = e.astype(int)
    out = np.empty((nmax, xi.size))
    for n in range(nmax):
        out[n] = np.ldexp(cur, e)
        prev, cur = cur, math.sqrt(2.0 / (n + 1)) * xi * cur - math.sqrt(n / (n + 1)) * prev
        big = np.abs(cur) > 2.0**256
        if big.any():
            cur[big], k = np.frexp(cur[big])
            prev[big] = np.ldexp(prev[big], -k)
            e[big] += k
    return out


def coordinate_wavefunction(state: TwoModeState, grid: GridSpec) -> ScalarField:
    """Psi(x, y) = sum_nm c_nm u_n(x) u_m(y) sampled on the grid (complex field)."""
    ux = hermite_functions(grid.xs(), state.na, state.sigma)
    uy = hermite_functions(grid.ys(), state.nb, state.sigma)
    values = np.einsum("nm,nx,my->xy", state.coeffs, ux, uy)
    return ScalarField(grid, values)


def default_cutoff(gamma_max: float) -> int:
    """a-mode cutoff for displacements up to |alpha| = gamma_max / 2.

    A displaced one-photon state spreads over roughly (|alpha| + a few sigma)^2
    levels; 40 covers gamma_max <= 4 with headroom.  Past |alpha|^2 = 1400
    (gamma_max ~ 74.8) no cutoff can hold D(alpha) (see _laguerre_rows), so
    this raises ValueError there, and for a NaN, instead of sizing one.
    """
    if math.isnan(gamma_max):
        raise ValueError(f"gamma_max must be finite, got {gamma_max}")
    alpha_max = abs(gamma_max) / 2
    if alpha_max**2 > _UNDERFLOW_X:
        raise ValueError(
            f"Gamma = {gamma_max:g} needs D(alpha) at |alpha|^2 = {alpha_max**2:.6g}: e^(-|alpha|^2/2) "
            f"underflows beyond |alpha|^2 = {_UNDERFLOW_X:g}, that is Gamma > {2 * math.sqrt(_UNDERFLOW_X):.4g}"
        )
    return max(40, math.ceil((alpha_max + 6.0) ** 2))
