"""Postselected von Neumann measurement pipeline.

A polarization qubit preselected in cos(alpha/2)|H> + e^{i delta} sin(alpha/2)|V>
couples to the a mode of the pointer through sigma_x, which displaces the two
sigma_x eigenbranches by ±Gamma/2, and is then postselected onto |H>.  The
pointer starts in a normalized superposition of the fundamental Gaussian and
the unit-charge vortex mode, expanded over two Hermite-Gauss modes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fock import TwoModeState, _apply_displacement, apply_ladder, displacement_matrix, inner

__all__ = [
    "PostselectionError",
    "MeasurementParams",
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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
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
class WeakValue:
    """Weak value of sigma_x plus the bare postselection probability."""

    value: complex
    ps: float


def weak_value(alpha: float, delta: float = 0.0) -> WeakValue:
    """<H|sigma_x|pre> / <H|pre> = e^{i delta} tan(alpha/2), with ps = cos^2(alpha/2)."""
    if not (0 <= alpha < math.pi):
        raise ValueError(f"alpha must lie in [0, pi), got {alpha}")
    return WeakValue(
        value=np.exp(1j * delta) * math.tan(alpha / 2),
        ps=math.cos(alpha / 2) ** 2,
    )


def initial_pointer(params: MeasurementParams, na: int) -> TwoModeState:
    """(1+gamma^2)^{-1/2} [(|0> + gamma e^{i phi}/sqrt2 |1>)|0>_b + i gamma e^{i phi}/sqrt2 |0>|1>_b]."""
    if na < 2:
        raise ValueError(f"need na >= 2 to hold the one-photon component, got {na}")
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

    def total_norm(self) -> float:
        """Norm of the full system (x) pointer state; 1 up to truncation loss."""
        return math.sqrt(
            abs(self.amp_plus) ** 2 * self.branch_plus.norm() ** 2
            + abs(self.amp_minus) ** 2 * self.branch_minus.norm() ** 2
        )


def evolve_joint(pointer: TwoModeState, params: MeasurementParams) -> JointState:
    """Couple system and pointer: each sigma_x branch is displaced by ±Gamma/2.

    Gamma is real, so the minus branch reuses the dagger of one displacement
    matrix; both branches get the same norm-drift audit displace_a performs.
    """
    s = params.Gamma / 2
    d = displacement_matrix(s, pointer.na)
    branches = [_apply_displacement(mat, pointer, amp) for mat, amp in ((d, +s), (d.conj().T, -s))]
    ca, sa = math.cos(params.alpha / 2), math.sin(params.alpha / 2)
    ph = np.exp(1j * params.delta)
    return JointState(
        branch_plus=branches[0],
        branch_minus=branches[1],
        amp_plus=complex((ca + ph * sa) / math.sqrt(2)),
        amp_minus=complex((ca - ph * sa) / math.sqrt(2)),
    )


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


def _lowering_moments(st: TwoModeState):
    """All eleven moments of one state by ladder-operator application and inner products.

    Only lowering operators are applied (raising is rewritten away), so the
    result is exact to the stored truncation and the two-level b cutoff stays
    exact.  Returns an ExpectationSet.
    """
    from .closedform import ExpectationSet

    av = apply_ladder(st, "a")
    bv = apply_ladder(st, "b")
    aav = apply_ladder(av, "a")
    bbv = apply_ladder(bv, "b")
    abv = apply_ladder(bv, "a")
    return ExpectationSet(
        a=inner(st, av),
        b=inner(st, bv),
        a2=inner(st, aav),
        b2=inner(st, bbv),
        adag_a=inner(av, av),
        bdag_b=inner(bv, bv),
        adag_b=inner(av, bv),
        ab=inner(st, abv),
        adaga_bdagb=inner(abv, abv),
        adag2a2=inner(aav, aav),
        bdag2b2=inner(bbv, bbv),
    )


def nonpostselected_moments(joint: JointState):
    """Pointer moments of the un-postselected joint state (system traced out).

    Every moment is the preselection-weighted mixture of the two branch
    expectations.  Returns an ExpectationSet.
    """
    from .closedform import ExpectationSet

    wp = abs(joint.amp_plus) ** 2
    wm = abs(joint.amp_minus) ** 2
    plus, minus = _lowering_moments(joint.branch_plus), _lowering_moments(joint.branch_minus)
    return ExpectationSet(
        **{name: wp * getattr(plus, name) + wm * getattr(minus, name) for name in ExpectationSet.field_names()}
    )
