"""Postselected von Neumann measurement pipeline.

A polarization qubit preselected in cos(alpha/2)|H> + e^{i delta} sin(alpha/2)|V>
couples to the a mode of the pointer through sigma_x, which displaces the two
sigma_x eigenbranches by ±Gamma/2, and is then postselected onto |H>.  The
pointer starts in a normalized superposition of the fundamental Gaussian and
the unit-charge vortex mode, expanded over two Hermite-Gauss modes.

The pipeline splits at postselection: the coupling (evolve_joint) makes the
branches D(±Gamma/2)|pointer> whatever the preselection is, and alpha and delta
weigh them only in postselect and nonpostselected_moments.  One lowering
kernel, _moments, makes the eleven pointer moments of a state: the oracle reads
them all (oracle.oracle_expectations), and nonpostselected_moments mixes three
of them from the two branches for the SNR ratio.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .fock import NormDriftWarning, TwoModeState, _lower_a, _lower_b, _occupied_levels, displacement_matrix

__all__ = [
    "PostselectionError",
    "MeasurementParams",
    "ParamSeries",
    "ExpectationSet",
    "WeakValue",
    "JointState",
    "weak_value",
    "initial_pointer",
    "evolve_joint",
    "postselect",
    "nonpostselected_moments",
]


class PostselectionError(ValueError):
    """The projected pointer state vanishes (or the closed-form bracket is not positive)."""


@dataclass(frozen=True)
class MeasurementParams:
    """All scalar knobs of one measurement configuration.

    Gamma: dimensionless coupling strength (g t / sigma); alpha, delta fix the
    preselected qubit; phi and gamma are the vortex-superposition phase and
    weight; sigma is the beam waist.
    """

    Gamma: float
    alpha: float
    delta: float = 0.0
    phi: float = 0.0
    gamma: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():  # the fields, in order
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.Gamma < 0:
            raise ValueError(f"Gamma must be >= 0, got {self.Gamma}")
        if not (0 <= self.alpha < math.pi):
            raise ValueError(f"alpha must lie in [0, pi), got {self.alpha}")
        if not (0 <= self.delta <= 2 * math.pi):
            raise ValueError(f"delta must lie in [0, 2*pi], got {self.delta}")
        if not (0 <= self.phi < 2 * math.pi):
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class ParamSeries:
    """The parameters of many points as columns, for one closed-form evaluation over all of them.

    A parameter that varies is a 1-D float array; one with the same bits at
    every point is that float, so what depends on it alone is worked out once.
    Iterating yields the points in order, as MeasurementParams.
    """

    Gamma: float | np.ndarray
    alpha: float | np.ndarray
    delta: float | np.ndarray
    phi: float | np.ndarray
    gamma: float | np.ndarray
    sigma: float | np.ndarray
    size: int

    def __len__(self):
        return self.size

    def __iter__(self):
        cols = [np.broadcast_to(getattr(self, f.name), self.size).tolist() for f in fields(MeasurementParams)]
        return (MeasurementParams(*p) for p in zip(*cols))

    @classmethod
    def of(cls, points) -> ParamSeries:
        """The series of a nonempty sequence of MeasurementParams, in its order."""
        points = list(points)
        if not points:
            raise ValueError("a parameter series needs at least one point")
        cols = {f.name: _column([getattr(p, f.name) for p in points]) for f in fields(MeasurementParams)}
        return cls(**cols, size=len(points))

    @classmethod
    def along(cls, base: MeasurementParams, axis: str, values) -> ParamSeries:
        """The series of replace(base, axis=v) for each v of a nonempty 1-D values, without making the points.

        Every parameter's legal values form an interval, so MeasurementParams checks the column at its least
        and greatest value (np.min and np.max keep a nan); where that fails, the points are made in order,
        so the error names the first offending value.
        """
        col = np.array(values, dtype=float)
        if not col.size:
            raise ValueError("a parameter series needs at least one point")
        try:
            replace(base, **{axis: float(col.min())})
            replace(base, **{axis: float(col.max())})
        except ValueError:
            for v in col.tolist():
                replace(base, **{axis: v})
            raise
        cols = {name: float(v) for name, v in vars(base).items()}
        cols[axis] = _column(col)
        return cls(**cols, size=col.size)


def _column(values):
    """One parameter over a series: the float, where every value has the same bits, else the array."""
    col = np.asarray(values, dtype=float)
    bits = col.view(np.uint64)
    return float(col[0]) if (bits == bits[0]).all() else col


@dataclass(frozen=True)
class ExpectationSet:
    """The eleven pointer moments <a>, <b>, <a^2>, <b^2>, <a†a>, <b†b>, <a†b>,
    <ab>, <a†a b†b>, <a†²a²>, <b†²b²> of one state, as complex values (complex
    arrays where closedform.expectations takes a ParamSeries)."""

    a: complex
    b: complex
    a2: complex
    b2: complex
    adag_a: complex
    bdag_b: complex
    adag_b: complex
    ab: complex
    adaga_bdagb: complex
    adag2a2: complex
    bdag2b2: complex

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in fields(cls))


def _moments(c: np.ndarray) -> ExpectationSet:
    """All eleven moments of a raw coefficient grid, unaudited.

    Only lowering operators are applied (raising is rewritten away), so the
    result is exact to the stored truncation and the two-level b cutoff stays
    exact.  Each moment is np.vdot over its named pair of lowered grids, raw
    arrays of the grid's shape.
    """
    av, bv = _lower_a(c), _lower_b(c)
    aav, bbv, abv = _lower_a(av), _lower_b(bv), _lower_a(bv)

    pairs = dict(a=(c, av), b=(c, bv), a2=(c, aav), b2=(c, bbv), adag_a=(av, av), bdag_b=(bv, bv), adag_b=(av, bv),
                 ab=(c, abv), adaga_bdagb=(abv, abv), adag2a2=(aav, aav), bdag2b2=(bbv, bbv))
    return ExpectationSet(**{name: complex(np.vdot(u, v)) for name, (u, v) in pairs.items()})


@dataclass(frozen=True)
class WeakValue:
    """Weak value of sigma_x plus the bare postselection probability."""

    value: complex
    ps: float


def weak_value(alpha: float, delta: float = 0.0) -> WeakValue:
    """<H|sigma_x|pre> / <H|pre> = e^{i delta} tan(alpha/2), with ps = cos^2(alpha/2)."""
    if not (0 <= alpha < math.pi):
        raise ValueError(f"alpha must lie in [0, pi), got {alpha}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    return WeakValue(
        value=np.exp(1j * delta) * math.tan(alpha / 2),
        ps=math.cos(alpha / 2) ** 2,
    )


def _require_two_levels(na: int):
    if na < 2:
        raise ValueError(f"need na >= 2 to hold the one-photon component, got {na}")


def initial_pointer(params: MeasurementParams, na: int) -> TwoModeState:
    """(1+gamma^2)^{-1/2} [(|0> + gamma e^{i phi}/sqrt2 |1>)|0>_b + i gamma e^{i phi}/sqrt2 |0>|1>_b]."""
    _require_two_levels(na)
    g = params.gamma * np.exp(1j * params.phi)
    c = np.zeros((na, 2), dtype=complex)
    c[0, 0] = 1.0
    c[1, 0] = g / math.sqrt(2)
    c[0, 1] = 1j * g / math.sqrt(2)
    c /= math.sqrt(1 + params.gamma**2)
    return TwoModeState(c, params.sigma)


@dataclass(frozen=True)
class JointState:
    """The pointer branches paired with the sigma_x eigenstates |D>, |A>.

    branch_plus = D(Gamma/2)|pointer>, branch_minus = D(-Gamma/2)|pointer>,
    whatever the preselection: postselect and nonpostselected_moments weigh
    them by <D|pre>, <A|pre> of their params.
    """

    branch_plus: TwoModeState
    branch_minus: TwoModeState

    @functools.cached_property
    def _branch_moments(self):
        """The moments (_moments) of branch_plus and of branch_minus, made on first use."""
        return _moments(self.branch_plus.coeffs), _moments(self.branch_minus.coeffs)


def _preselection_amplitudes(alpha: float, delta: float) -> tuple[complex, complex]:
    """<D|pre>, <A|pre>: the weights of the branches D(±Gamma/2)|pointer>, the only place alpha and delta enter."""
    ca, sa = math.cos(alpha / 2), math.sin(alpha / 2)
    ph = np.exp(1j * delta)
    return complex((ca + ph * sa) / math.sqrt(2)), complex((ca - ph * sa) / math.sqrt(2))


def _apply_displacement(d: np.ndarray, state: TwoModeState, k: int, alpha: float) -> TwoModeState:
    """d @ state on the a mode, audited for norm drift.

    d holds the leading k columns of D(alpha) truncated, with k =
    _occupied_levels(state): the columns the product reads.  Emits
    NormDriftWarning when the norm moves by more than 1e-8, which means the a
    cutoff is too small for this displacement; the warning names the line
    that called evolve_joint.
    """
    out = TwoModeState(d @ state.coeffs[:k], state.sigma)
    drift = abs(out.norm() - state.norm())
    if drift > 1e-8:
        warnings.warn(
            f"displacement norm drift {drift:.3e} (cutoff Na={state.na} too small for |alpha|={abs(alpha):.3g})",
            NormDriftWarning,
            stacklevel=3,
        )
    return out


def evolve_joint(pointer: TwoModeState, params: MeasurementParams) -> JointState:
    """Couple system and pointer: each sigma_x branch is displaced by ±Gamma/2.

    Of params only Gamma is read; the preselection weighs the branches later.
    Only the columns of D(Gamma/2) up to the highest occupied a level are
    built.  Gamma is real, so the minus branch takes D(-Gamma/2) = P D(Gamma/2) P
    with P = diag((-1)^n), exact sign flips of the same columns.  Each branch
    is audited for norm drift (_apply_displacement).
    """
    s = params.Gamma / 2
    k = _occupied_levels(pointer)
    d = displacement_matrix(s, pointer.na, cols=k)
    parity = (-1.0) ** np.arange(pointer.na)
    # direct calls, so the norm-drift warning names the caller (a comprehension adds a frame)
    plus = _apply_displacement(d, pointer, k, s)
    minus = _apply_displacement(parity[:, None] * d * parity[:k], pointer, k, -s)
    return JointState(plus, minus)


def postselect(joint: JointState, params: MeasurementParams) -> tuple[TwoModeState, float]:
    """Project the system onto |H> and renormalize the pointer.

    The branches are weighed by the preselection amplitudes of params.
    Returns (normalized pointer state, exact success probability).  The
    success probability is the squared norm of the raw projection, i.e.
    cos^2(alpha/2) times the squared half-bracket norm of the branch sum.
    """
    amp_plus, amp_minus = _preselection_amplitudes(params.alpha, params.delta)
    # <H|D> = <H|A> = 1/sqrt2
    raw = (amp_plus * joint.branch_plus.coeffs + amp_minus * joint.branch_minus.coeffs) / math.sqrt(2)
    nrm = float(np.linalg.norm(raw))
    if nrm**2 < 1e-14:
        raise PostselectionError(
            "projected pointer state vanished (destructive interference); "
            f"parameters {params} admit no |H> postselection"
        )
    state = TwoModeState(raw / nrm, joint.branch_plus.sigma)
    return state, nrm**2


def nonpostselected_moments(joint: JointState, params: MeasurementParams):
    """<a>, <a†a>, <a^2> of the un-postselected joint state (system traced out),
    the tuple closedform.phi_moments returns.

    Each is the mixture of the two branch values, made once per JointState,
    weighed by |<D|pre>|^2 and |<A|pre>|^2 of params.
    """
    wp, wm = (abs(amp) ** 2 for amp in _preselection_amplitudes(params.alpha, params.delta))
    plus, minus = joint._branch_moments
    return tuple(wp * getattr(plus, name) + wm * getattr(minus, name) for name in ("a", "adag_a", "a2"))
