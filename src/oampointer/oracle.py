"""The state-vector engine: the postselected pointer from truncated Fock-space states.

The oracle's primitives and fields come from truncated Fock-space state vectors,
ladder operators and inner products, its moments from measurement._moments; of
the package it reads only fock and measurement, so it shares no line with the
closed forms.  The quantity table that derives the scalars from either engine's
primitives, and the comparison of the two routes, are validation's.

The coupling displaces the branches D(±Gamma/2)|Psi_i> whatever the preselected
state is; alpha and delta enter only at postselection, as the weights of those
two branches (Aharonov, Albert & Vaidman, PRL 60, 1351 (1988)).  So the oracle
runs measurement's pipeline split there: a walk over points (_points: one
compare call, one sweep) evolves and audits each pointer (Gamma, gamma, phi,
sigma) once, and every point postselects from its joint state, audits the
postselected pointer for truncation and makes each primitive on first use.

The displaced-Fock elements of fock._laguerre_rows are exact on any
truncation, so they are only made where they are needed: the displaced-parity
Wigner function contracts the a-mode density matrix with them between the
stored levels, once per distinct |beta|^2 on the grid, in blocks of radii and
groups of a-chains, and takes each point's Horner steps in e^{i theta} as each
group is done; and I1 = <Psi_i|D(Gamma)|Psi_i> takes the block over the a
levels Psi_i occupies.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fock import (
    GridSpec,
    ScalarField,
    TruncationWarning,
    TwoModeState,
    _laguerre_rows,
    _occupied_levels,
    _unit_intensity,
    coordinate_wavefunction,
    default_cutoff,
    displacement_matrix,
    inner,
)
from .measurement import (
    ExpectationSet,
    MeasurementParams,
    _moments,
    evolve_joint,
    initial_pointer,
    nonpostselected_moments,
    postselect,
    weak_value,
)

__all__ = [
    "oracle_expectations",
    "oracle_states",
    "oracle_wigner",
    "oracle_intensity",
]

_TOP_OCC_TOL = 1e-8


def _audit_truncation(state: TwoModeState):
    occ = state.top_level_occupation()
    if occ > _TOP_OCC_TOL:
        warnings.warn(
            f"top Fock level holds amplitude {occ:.3e} at cutoff Na={state.na}; increase the cutoff",
            TruncationWarning,
            stacklevel=3,
        )


def oracle_expectations(state: TwoModeState) -> ExpectationSet:
    """All eleven moments of one state (measurement._moments); warns when the top Fock level is occupied."""
    _audit_truncation(state)
    return _moments(state.coeffs)


def oracle_states(params: MeasurementParams, na: int | None = None):
    """Build (initial pointer, joint state, postselected pointer, success prob) of one point, without a
    memo or I1; the functions that read its states (oracle_expectations, the fields) audit them for truncation."""
    psi_i = initial_pointer(params, default_cutoff(params.Gamma) if na is None else na)
    joint = evolve_joint(psi_i, params)
    return (psi_i, joint, *postselect(joint, params))


# ---------------------------------------------------------------------------
# phase-space and coordinate-space fields
# ---------------------------------------------------------------------------

_BLOCK = 1024  # distinct radii per block: with fock._TILE, fixes the kernel's working memory
_UFUNC_BUFFER = 16  # numpy's ufunc buffer (elements) while oracle_wigner walks a block


def oracle_wigner(state: TwoModeState, grid: GridSpec) -> ScalarField:
    """a-mode Wigner function by displaced parity, W = (2/pi) Tr[rho_a D(2 alpha) P].

    rho_a = v v† (the b mode traced out) and P = (-1)^{a† a}.  With
    2 alpha = |beta| e^{i theta} and the magnitudes l_m^a of fock._laguerre_rows,
    the trace folds onto the diagonals of rho_a:
    S_a = sum_m (-1)^m rho_a[m, m+a] l_m^a gives
    W = (2/pi) [S_0 + 2 Re sum_{a>=1} e^{ia theta} S_a].  S_a depends on the
    point only through x = |beta|^2, so it is made once per distinct x on the
    grid (exact float equality: equal x give bit-identical rows), walking the
    sorted radii in blocks of _BLOCK.  A block is walked by groups of a-chains
    in descending a: each tile is added to its group's S_a, real and imaginary
    parts apart, as it is made (so S_a sums in ascending m), and once a group is
    done every point of the block takes the Horner steps in e^{i theta} of its a
    (h += S_a; h *= e^{i theta}).  The elements are made between the stored
    levels only, which keeps the value exact for any grid extent inside the
    underflow limit of fock._laguerre_rows.  Memory is a few tiles of
    fock._TILE elements plus a few arrays per point of a block; no array holds
    a value per level for every radius or every point.

    numpy buffers a tile times a per-chain column of rho_a, three times slower,
    whenever a row is shorter than its ufunc buffer (8192 elements), so a block
    is walked with that buffer at _UFUNC_BUFFER elements; elementwise results
    do not depend on it.
    """
    _audit_truncation(state)
    xs, ys = grid.xs(), grid.ys()
    x = np.abs(2 * (xs[:, None] + 1j * ys[None, :])).ravel() ** 2
    order = np.argsort(x)  # points by radius
    x = x[order]
    radii = x[np.concatenate(([True], x[1:] != x[:-1]))]  # np.unique(x) without its numpy.ma import
    v = state.coeffs
    K = v.shape[0]
    rho = ((-1.0) ** np.arange(K))[:, None] * (v @ v.conj().T)
    rho_ri = rho.view(float).reshape(K, K, 2)  # (m, m + a) -> (Re, Im)
    w = np.empty(x.size)
    p0 = 0
    for lo in range(0, radii.size, _BLOCK):
        r = radii[lo:lo + _BLOCK]
        p1 = np.searchsorted(x, r[-1], side="right")
        pts = order[p0:p1]
        i, k = np.divmod(pts, grid.ny)
        w[pts] = _wigner_block(rho_ri, r, np.searchsorted(r, x[p0:p1]), np.arctan2(ys[k], xs[i]))
        p0 = p1
    return ScalarField(grid, w.reshape(grid.nx, grid.ny))


def _wigner_block(rho_ri, r, j, theta) -> np.ndarray:
    """oracle_wigner at the points of one block of radii r, point n at radius r[j[n]] and angle
    theta[n], from rho_ri[m, m + a] = (Re, Im) of (-1)^m rho_a[m, m+a]."""
    z = np.exp(1j * theta)  # e^{i theta}
    h, hz = np.zeros(z.size, dtype=complex), np.empty(z.size, dtype=complex)
    s = None
    with np.errstate():  # numpy restores its ufunc buffer size on leaving this
        np.setbufsize(_UFUNC_BUFFER)
        for a0, a1, tiles in _laguerre_rows(r, len(rho_ri)):
            if s is None:  # the walk's first group is its tallest
                s = np.empty((a1 - a0, 2, r.size))  # the group's S_a as (a - a0, Re/Im, radius)
                sc = np.empty((a1 - a0, r.size), dtype=complex)
                t = sc.view(float).reshape(s.shape)  # a tile's products, until sc takes the sums
            s.fill(0.0)  # from +0, so no sum depends on the sign of a zero product: +0 + -0 = +0
            for m, row in enumerate(tiles):
                g = len(row)
                np.multiply(row[:, None], rho_ri[m, m + a0:m + a0 + g, :, None], out=t[:g])
                s[:g] += t[:g]
            sc.real, sc.imag = s[:, 0], s[:, 1]
            for a in range(a1 - 1, max(a0, 1) - 1, -1):  # Horner in e^{i theta}, descending a
                h += np.take(sc[a - a0], j, out=hz, mode="clip")
                h *= z
    return (2 / math.pi) * (s[0, 0, j] + 2 * h.real)  # the last group holds Re S_0


def oracle_intensity(state: TwoModeState, grid: GridSpec) -> ScalarField:
    """|Psi(x, y)|^2 from the Fock coefficients, normalized to unit grid integral
    (FieldConsistencyError where the grid misses the beam); warns when the top
    Fock level is occupied."""
    _audit_truncation(state)
    return _unit_intensity(grid, np.abs(coordinate_wavefunction(state, grid).values) ** 2)


# ---------------------------------------------------------------------------
# the five primitives from state vectors
# ---------------------------------------------------------------------------

_POINTERS = 8  # distinct pointers one walk holds: the lattice alternates two, a Gamma sweep never repeats one


@dataclass
class _OraclePrimitives:
    """The oracle's primitives at one point, from its pointer (initial pointer, joint state, I1) and
    its postselected pointer psi, each made on first use, as validation._ClosedPrimitives makes the
    closed forms'; I1 is made with the pointer."""

    params: MeasurementParams
    pointer: tuple
    psi: TwoModeState

    @functools.cached_property
    def lam(self) -> float:
        # lambda of |Psi> = (lambda/2) [ (1+w) D(s) + (1-w) D(-s) ] |Psi_i>
        w = weak_value(self.params.alpha, self.params.delta).value
        joint = self.pointer[1]
        return 2.0 / float(np.linalg.norm((1 + w) * joint.branch_plus.coeffs + (1 - w) * joint.branch_minus.coeffs))

    i1 = functools.cached_property(lambda self: self.pointer[2])
    fidelity = functools.cached_property(lambda self: float(abs(inner(self.pointer[0], self.psi)) ** 2))
    moments = functools.cached_property(lambda self: _moments(self.psi.coeffs))
    phi = functools.cached_property(lambda self: nonpostselected_moments(self.pointer[1], self.params))


def _points(points, na: int | None = None):
    """The primitives of each of points in turn, from one walk: each distinct pointer (initial pointer,
    joint state, I1) is evolved once, and each point postselects its own preselection from it and audits
    its postselected pointer for truncation, once, whichever primitives are read.

    The memo is an lru_cache of _POINTERS pointers that lives as long as the walk.  Its key is the
    point's params with alpha = delta = 0, plus the signs of Gamma, gamma and phi, as a dataclass
    key takes -0.0 and 0.0 for one.
    """
    @functools.lru_cache(maxsize=_POINTERS)
    def evolved(p, signs):
        psi_i = initial_pointer(p, default_cutoff(p.Gamma) if na is None else na)
        c = psi_i.coeffs[: _occupied_levels(psi_i)]  # I1 on the a levels psi_i occupies, where D(Gamma) is exact
        return psi_i, evolve_joint(psi_i, p), complex(np.vdot(c, displacement_matrix(p.Gamma, len(c)) @ c))

    for p in points:
        signs = tuple(math.copysign(1.0, v) for v in (p.Gamma, p.gamma, p.phi))
        pointer = evolved(replace(p, alpha=0.0, delta=0.0), signs)
        psi = postselect(pointer[1], p)[0]
        _audit_truncation(psi)
        yield _OraclePrimitives(p, pointer, psi)
