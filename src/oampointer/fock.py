"""Truncated two-mode Fock-space algebra.

The a mode is the one the measurement back-action displaces; the b mode of
every state built here never holds more than one photon, so a two-level b
cutoff is exact as long as moments are assembled from normal-ordered
(lowering-only) operator applications.  All values are immutable; every
operation returns a new state.
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
    "genlaguerre_rec",
    "displaced_fock_overlaps",
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


def genlaguerre_rec(n: int, k, x):
    """Generalized Laguerre L_n^(k)(x) by the stable upward recurrence in n.

    k and x may be scalars or broadcastable arrays.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(k.shape, x.shape)
    l0 = np.ones(shape)
    if n == 0:
        return l0
    l1 = np.broadcast_to(1.0 + k - x, shape).copy()
    if n == 1:
        return l1
    for m in range(1, n):
        l0, l1 = l1, ((2 * m + 1 + k - x) * l1 - (m + k) * l0) / (m + 1)
    return l1


def _laguerre_table(dim: int, x: float) -> np.ndarray:
    """Table T[m, a] = L_m^(a)(x) for m, a = 0..dim-1 (vectorized over a)."""
    a = np.arange(dim, dtype=float)
    table = np.empty((dim, dim))
    table[0] = 1.0
    if dim > 1:
        table[1] = 1.0 + a - x
    for m in range(1, dim - 1):
        table[m + 1] = ((2 * m + 1 + a - x) * table[m] - (m + a) * table[m - 1]) / (m + 1)
    return table


def displaced_fock_overlaps(alpha: complex, n: int, K: int) -> np.ndarray:
    """Overlaps <k|D(alpha)|n> for k = 0..K-1.

    For k >= n:  e^{-|a|^2/2} sqrt(n!/k!) a^{k-n} L_n^{(k-n)}(|a|^2);
    for k <  n the symmetric form with (-conj(a))^{n-k} is used.  Prefactors
    are built multiplicatively so large k never overflows.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if K <= n:
        raise ValueError(f"need K > n, got K={K}, n={n}")
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    out = np.empty(K, dtype=complex)
    envelope = math.exp(-x / 2)
    # upward from k = n
    pref = envelope  # sqrt(n!/k!) alpha^{k-n} at k = n
    for k in range(n, K):
        out[k] = pref * genlaguerre_rec(n, k - n, x)
        pref *= alpha / math.sqrt(k + 1)
    # downward from k = n - 1
    pref = envelope
    for k in range(n - 1, -1, -1):
        pref *= -np.conj(alpha) / math.sqrt(k + 1)
        out[k] = pref * genlaguerre_rec(k, n - k, x)
    return out


def displacement_matrix(alpha: complex, dim: int, method: str = "closed_form") -> np.ndarray:
    """D(alpha) on a dim-level truncation.

    closed_form assembles the same matrix elements displaced_fock_overlaps
    produces column-wise, from one vectorized Laguerre table (columns are
    pinned equal to displaced_fock_overlaps by the test suite); series is the
    scaled-and-squared matrix exponential of alpha a_dag - conj(alpha) a.
    """
    if method == "series":
        a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
        return expm(alpha * a.conj().T - np.conj(alpha) * a)
    if method != "closed_form":
        raise ValueError(f"unknown method {method!r}")
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    lag = _laguerre_table(dim, x)
    k = np.arange(dim)
    half_logfact = 0.5 * np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim, dtype=float)))))
    rows, cols = np.meshgrid(k, k, indexing="ij")  # rows = k (out), cols = n (in)
    diff = rows - cols
    lower = diff >= 0  # k >= n
    # magnitude sqrt(min!/max!) |alpha|^{|k-n|}, assembled in log space
    if x > 0:
        mag = np.exp(-x / 2 + np.abs(diff) * (math.log(x) / 2) - np.abs(half_logfact[rows] - half_logfact[cols]))
    else:
        mag = np.where(diff == 0, 1.0, 0.0)
    unit_up = alpha / abs(alpha) if x > 0 else 1.0
    phase = np.where(lower, unit_up ** diff, (-np.conj(unit_up)) ** (-diff))
    lag_vals = np.where(lower, lag[cols, np.abs(diff)], lag[rows, np.abs(diff)])
    return mag * phase * lag_vals


def displace_a(state: TwoModeState, alpha: complex, method: str = "closed_form") -> TwoModeState:
    """Apply D(alpha) to the a mode only.

    Emits NormDriftWarning when the norm moves by more than 1e-8, which means
    the a cutoff is too small for this displacement.
    """
    return _apply_displacement(displacement_matrix(alpha, state.na, method=method), state, alpha)


def _apply_displacement(d: np.ndarray, state: TwoModeState, alpha: complex) -> TwoModeState:
    """d @ state on the a mode, audited for norm drift (d is D(alpha) truncated).

    The warning is attributed to the caller of the public function that
    called this one.
    """
    out = TwoModeState(d @ state.coeffs, state.sigma)
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
    evaluated by the normalized three-term recurrence (stable for n <= 60 at least;
    factorial prefactors are folded in per step, so nothing overflows).
    """
    pts = np.asarray(pts, dtype=float)
    xi = pts / sigma
    out = np.zeros((nmax, pts.size))
    out[0] = np.pi ** -0.25 / math.sqrt(sigma) * np.exp(-(xi**2) / 2)
    if nmax > 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(1, nmax - 1):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * xi * out[n] - math.sqrt(n / (n + 1)) * out[n - 1]
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
    levels; 40 covers gamma_max <= 4 with headroom.
    """
    alpha_max = abs(gamma_max) / 2
    return max(40, math.ceil((alpha_max + 6.0) ** 2))
