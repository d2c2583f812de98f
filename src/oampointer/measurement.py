"""Postselected von Neumann measurement pipeline.

A polarization qubit preselected in cos(alpha/2)|H> + e^{i delta} sin(alpha/2)|V>
couples to the a mode of the pointer through sigma_x, which displaces the two
sigma_x eigenbranches by ±Gamma/2, and is then postselected onto |H>.  The
pointer starts in a normalized superposition of the fundamental Gaussian and
the unit-charge vortex mode, expanded over two Hermite-Gauss modes.  Of the
pointer moments this module makes only the three of the un-postselected
pointer that the SNR ratio reads; all eleven of one state are the oracle's
(oracle.oracle_expectations).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .fock import NormDriftWarning, TwoModeState, _lower_a, _occupied_levels, displacement_matrix

__all__ = [
    "PostselectionError",
    "MeasurementParams",
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
    """Pointer branches paired with the sigma_x eigenstates |D>, |A>.

    branch_plus = D(Gamma/2)|pointer>, branch_minus = D(-Gamma/2)|pointer>;
    amp_plus/minus are the preselection amplitudes <D|pre>, <A|pre>.
    """

    branch_plus: TwoModeState
    branch_minus: TwoModeState
    amp_plus: complex
    amp_minus: complex


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
    return JointState(plus, minus, *_preselection_amplitudes(params.alpha, params.delta))


def postselect(joint: JointState, params: MeasurementParams) -> tuple[TwoModeState, float]:
    """Project the system onto |H> and renormalize the pointer.

    Returns (normalized pointer state, exact success probability).  The
    success probability is the squared norm of the raw projection, i.e.
    cos^2(alpha/2) times the squared half-bracket norm of the branch sum.
    """
    # <H|D> = <H|A> = 1/sqrt2
    raw = (joint.amp_plus * joint.branch_plus.coeffs + joint.amp_minus * joint.branch_minus.coeffs) / math.sqrt(2)
    nrm = float(np.linalg.norm(raw))
    if nrm**2 < 1e-14:
        raise PostselectionError(
            "projected pointer state vanished (destructive interference); "
            f"parameters {params} admit no |H> postselection"
        )
    state = TwoModeState(raw / nrm, joint.branch_plus.sigma)
    return state, nrm**2


def _branch_moments(state: TwoModeState):
    """<a>, <a†a>, <a^2> of one branch, by lowering the a mode only, so exact to the stored truncation."""
    c = state.coeffs
    av = _lower_a(c)
    return complex(np.vdot(c, av)), complex(np.vdot(av, av)), complex(np.vdot(c, _lower_a(av)))


def nonpostselected_moments(joint: JointState, branches=None):
    """<a>, <a†a>, <a^2> of the un-postselected joint state (system traced out),
    the tuple closedform.phi_moments returns.

    Each is the preselection-weighted mixture of the two branch values; branches is
    the pair of _branch_moments of (branch_plus, branch_minus) where they are already
    made (the oracle makes them once per pointer), and they are made here otherwise.
    """
    plus, minus = branches or (_branch_moments(joint.branch_plus), _branch_moments(joint.branch_minus))
    wp = abs(joint.amp_plus) ** 2
    wm = abs(joint.amp_minus) ** 2
    return tuple(wp * p + wm * m for p, m in zip(plus, minus))
