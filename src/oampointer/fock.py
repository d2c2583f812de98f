"""Truncated two-mode Fock-space algebra.

The a mode is the one the measurement back-action displaces; the b mode of
every state built here never holds more than one photon, so a two-level b
cutoff is exact as long as moments are assembled from normal-ordered
(lowering-only) operator applications.  All values are immutable; every
operation returns a new state.

Displaced-Fock amplitudes <k|D(beta)|n> come from one generator,
_laguerre_rows, which walks the normalized Laguerre recurrence row by row;
displacement_matrix and the oracle's Wigner kernel both read it, and the
matrix exponential (displacement_matrix(method="series")) is the independent
check.  Past |beta|^2 = 1400, where e^{-|beta|^2/2} underflows, it raises
ValueError unless the cutoff stays below |beta|^2/8; default_cutoff states
the same ceiling (Gamma ~ 74.8) before anything is allocated.  The
Hermite-Gauss functions carry e^{-x^2/2} in a per-point exponent, so they
stay right where that factor alone underflows.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "NormDriftWarning",
    "TruncationWarning",
    "TwoModeState",
    "GridSpec",
    "ScalarField",
    "vacuum",
    "apply_ladder",
    "displacement_matrix",
    "displace_a",
    "inner",
    "hermite_functions",
    "coordinate_wavefunction",
    "default_cutoff",
]


class NormDriftWarning(UserWarning):
    """Displacement changed the norm beyond tolerance: the cutoff is too small."""


class TruncationWarning(UserWarning):
    """Top Fock level carries non-negligible amplitude."""


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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
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

    def normalized(self) -> "TwoModeState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return TwoModeState(self.coeffs / n, self.sigma)

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
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid bounds must satisfy min < max")
        if self.nx < 2 or self.ny < 2:
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
    kind: str = "intensity"

    _KINDS = ("intensity", "wigner", "wavefunction")

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(f"values shape {v.shape} does not match grid ({self.grid.nx}, {self.grid.ny})")
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        """Trapezoid integral of the (real part of the) field over the grid."""
        return float(np.trapezoid(np.trapezoid(self.values.real, self.grid.ys(), axis=1), self.grid.xs()))


def vacuum(na: int, nb: int, sigma: float = 1.0) -> TwoModeState:
    """|0, 0> in an (na, nb)-truncated space."""
    if na < 1:
        raise ValueError(f"na must be >= 1, got {na}")
    if nb < 2:
        raise ValueError(f"nb must be >= 2, got {nb}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    c = np.zeros((na, nb), dtype=complex)
    c[0, 0] = 1.0
    return TwoModeState(c, sigma)


_LADDER_NAMES = ("a", "a_dag", "b", "b_dag")


def apply_ladder(state: TwoModeState, which: str) -> TwoModeState:
    """Apply one ladder operator; raising on the top level silently drops amplitude.

    a |n,m> = sqrt(n) |n-1,m>,  a_dag |n,m> = sqrt(n+1) |n+1,m>, likewise for b.
    """
    if which not in _LADDER_NAMES:
        raise ValueError(f"which must be one of {_LADDER_NAMES}, got {which!r}")
    c = state.coeffs
    na, nb = c.shape
    out = np.zeros_like(c)
    if which == "a":
        n = np.arange(1, na)
        out[:-1, :] = np.sqrt(n)[:, None] * c[1:, :]
        if na == 1:
            out[:] = 0.0
    elif which == "a_dag":
        n = np.arange(1, na)
        out[1:, :] = np.sqrt(n)[:, None] * c[:-1, :]
    elif which == "b":
        m = np.arange(1, nb)
        out[:, :-1] = np.sqrt(m)[None, :] * c[:, 1:]
    else:  # b_dag
        m = np.arange(1, nb)
        out[:, 1:] = np.sqrt(m)[None, :] * c[:, :-1]
    return TwoModeState(out, state.sigma)


_UNDERFLOW_X = 1400.0  # |beta|^2 beyond which e^{-|beta|^2/2} leaves the normal floats
# ln 2 = _LN2_HI + _LN2_LO, with e * _LN2_HI exact for |e| < 2^20 (fdlibm's split)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _laguerre_rows(x: np.ndarray, K: int):
    """Yield, for m = 0..K-1, the (K - m, len(x)) array of displaced-Fock magnitudes

        l_m^a(x) = sqrt(m!/(m+a)!) x^{a/2} e^{-x/2} L_m^(a)(x),  a = 0..K-1-m,

    at the points x = |beta|^2 (a flat float array), so that
    <m+a|D(beta)|m> = e^{ia theta} l_m^a and <m|D(beta)|m+a> = (-e^{-i theta})^a l_m^a
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  Row 0 is built in log
    space, the later rows by the Laguerre recurrence in its normalized form

        l_{m+1} = [(2m+1+a-x) l_m - sqrt(m(m+a)) l_{m-1}] / sqrt((m+1)(m+1+a)),

    which neither overflows nor builds factorials.  Where e^{-x/2} underflows
    (x > 1400) row 0 is zero in floating point, so the rows are only right
    while K <= x/8 keeps every element they reach negligible; beyond that
    this raises ValueError instead of returning wrong amplitudes.
    """
    bad = (x > _UNDERFLOW_X) & (K > x / 8)
    if bad.any():
        raise ValueError(
            f"displaced-Fock amplitudes at |beta|^2 = {x[bad].max():.6g} need a cutoff "
            f"K <= |beta|^2/8 (got K = {K}): e^(-|beta|^2/2) underflows beyond |beta|^2 = {_UNDERFLOW_X:g}"
        )
    k = np.arange(K, dtype=float)
    a = k[:, None]
    pos = x > 0
    logx = np.log(np.where(pos, x, 1.0))
    lgam = np.cumsum(np.log(np.maximum(a, 1.0)), axis=0)  # log a!
    row = np.where(pos, np.exp(a * logx / 2 - x / 2 - lgam / 2), a == 0)
    # the recurrence coefficients, indexed [m, a, point]
    norm = 1.0 / np.sqrt((a + 1) * (a + k + 1))[:, :, None]
    back = np.sqrt(a * (a + k))[:, :, None]
    a_minus_x = a - x
    prev = np.zeros_like(row)
    yield row
    for m in range(K - 1):
        n = K - 1 - m
        nxt = (a_minus_x[:n] + (2 * m + 1)) * row[:n]
        nxt -= back[m, :n] * prev[:n]
        nxt *= norm[m, :n]
        prev, row = row, nxt
        yield row


def displacement_matrix(alpha: complex, dim: int, method: str = "closed_form") -> np.ndarray:
    """D(alpha) on a dim-level truncation.

    closed_form places row m of _laguerre_rows on the diagonals through
    (m, m): e^{ia theta} l_m^a at (m+a, m) and (-e^{-i theta})^a l_m^a at
    (m, m+a), with alpha = |alpha| e^{i theta}; it raises ValueError past the
    underflow limit stated there.  series is the scaled-and-squared matrix
    exponential of alpha a_dag - conj(alpha) a, the independent reference.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if method == "series":
        a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
        return expm(alpha * a.conj().T - np.conj(alpha) * a)
    if method != "closed_form":
        raise ValueError(f"unknown method {method!r}")
    lower = np.exp(1j * np.angle(alpha) * np.arange(dim))
    upper = (-1.0) ** np.arange(dim) * lower.conj()
    d = np.empty((dim, dim), dtype=complex)
    for m, row in enumerate(_laguerre_rows(np.array([abs(alpha) ** 2]), dim)):
        d[m:, m] = lower[: dim - m] * row[:, 0]
        d[m, m:] = upper[: dim - m] * row[:, 0]
    return d


def displace_a(state: TwoModeState, alpha: complex, method: str = "closed_form") -> TwoModeState:
    """Apply D(alpha) to the a mode only.

    Emits NormDriftWarning when the norm moves by more than 1e-8, which means
    the a cutoff is too small for this displacement.
    """
    return _apply_displacement(displacement_matrix(alpha, state.na, method=method), state, alpha)


def _apply_displacement(d: np.ndarray, state: TwoModeState, alpha: complex) -> TwoModeState:
    """d @ state on the a mode, audited for norm drift (d is D(alpha) truncated).

    Only the columns of d at occupied a levels enter the product.  The
    warning is attributed to the caller of the public function that called
    this one.
    """
    rows = np.flatnonzero(state.coeffs.any(axis=1))
    out = TwoModeState(d[:, rows] @ state.coeffs[rows], state.sigma)
    drift = abs(out.norm() - state.norm())
    if drift > 1e-8:
        warnings.warn(
            f"displacement norm drift {drift:.3e} (cutoff Na={state.na} too small for |alpha|={abs(alpha):.3g})",
            NormDriftWarning,
            stacklevel=3,
        )
    return out


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
    (|xi| >= 38.6) and nothing overflows.
    """
    xi = np.asarray(pts, dtype=float) / sigma
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
    return ScalarField(grid, values, kind="wavefunction")


def default_cutoff(gamma_max: float) -> int:
    """a-mode cutoff for displacements up to |alpha| = gamma_max / 2.

    A displaced one-photon state spreads over roughly (|alpha| + a few sigma)^2
    levels; 40 covers gamma_max <= 4 with headroom.  Past |alpha|^2 = 1400
    (gamma_max ~ 74.8) no cutoff can hold D(alpha) (see _laguerre_rows), so
    this raises ValueError there instead of sizing one.
    """
    alpha_max = abs(gamma_max) / 2
    if alpha_max**2 > _UNDERFLOW_X:
        raise ValueError(
            f"Gamma = {gamma_max:g} needs D(alpha) at |alpha|^2 = {alpha_max**2:.6g}: e^(-|alpha|^2/2) "
            f"underflows beyond |alpha|^2 = {_UNDERFLOW_X:g}, that is Gamma > {2 * math.sqrt(_UNDERFLOW_X):.4g}"
        )
    return max(40, math.ceil((alpha_max + 6.0) ** 2))
