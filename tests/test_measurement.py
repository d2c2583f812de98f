"""Measurement pipeline: weak values, initial pointer, evolution, postselection."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oampointer.closedform import lambda_norm
from oampointer.fock import (
    NormDriftWarning,
    TwoModeState,
    _lower_a,
    _lower_b,
    default_cutoff,
    displacement_matrix,
)
from oampointer.measurement import (
    JointState,
    MeasurementParams,
    PostselectionError,
    evolve_joint,
    initial_pointer,
    nonpostselected_moments,
    postselect,
    weak_value,
)

NAMED_POINT = MeasurementParams(Gamma=0.3, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)


# ---------------------------------------------------------------------------
# weak values
# ---------------------------------------------------------------------------

def test_weak_value_large_anomalous():
    w = weak_value(8 * math.pi / 9, 0.0)
    assert w.value.real == pytest.approx(5.671, abs=1e-3)
    assert abs(w.value.imag) == 0.0
    assert w.ps == pytest.approx(math.cos(4 * math.pi / 9) ** 2)


def test_weak_value_zero_angle():
    w = weak_value(0.0, 1.3)
    assert w.value == 0.0
    assert w.ps == 1.0


def test_weak_value_backsolved_angle():
    # tan(alpha/2) = 7.596 inverts to alpha = 11 pi / 12 up to the four-digit
    # rounding of the target value
    alpha = 2 * math.atan(7.596)
    assert weak_value(alpha, 0.0).value.real == pytest.approx(7.596, abs=1e-12)
    assert alpha == pytest.approx(11 * math.pi / 12, abs=1e-4)
    assert weak_value(11 * math.pi / 12, 0.0).value.real == pytest.approx(7.596, abs=1e-3)


def test_weak_value_rejects_alpha_out_of_range():
    with pytest.raises(ValueError):
        weak_value(math.pi, 0.0)
    with pytest.raises(ValueError):
        weak_value(-0.1, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call,name", [
    (lambda v: displacement_matrix(v, 5), "alpha"),
    (lambda v: displacement_matrix(complex(0.5, v), 5), "alpha"),
    (lambda v: weak_value(1.0, v), "delta"),
    (lambda v: default_cutoff(v), "gamma_max"),
], ids=["displacement_matrix", "displacement_matrix_complex", "weak_value", "default_cutoff"])
def test_non_finite_argument_is_named(call, name, bad):
    # an infinite Gamma is past default_cutoff's stated ceiling, which names it as Gamma
    pattern = "Gamma = -?inf .*underflows" if name == "gamma_max" and not math.isnan(bad) else f"^{name} must be finite"
    with pytest.raises(ValueError, match=pattern):
        call(bad)


def test_weak_value_complex_phase():
    w = weak_value(math.pi / 2, math.pi / 2)
    assert w.value == pytest.approx(1j * math.tan(math.pi / 4))


# ---------------------------------------------------------------------------
# initial pointer
# ---------------------------------------------------------------------------

def test_initial_pointer_gaussian_limit():
    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=0.0)
    st = initial_pointer(p, 4)
    assert st.coeffs[0, 0] == pytest.approx(1.0)
    assert np.count_nonzero(st.coeffs) == 1


def test_initial_pointer_balanced_superposition():
    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=1.0, phi=0.0)
    st = initial_pointer(p, 4)
    assert st.coeffs[0, 0] == pytest.approx(1 / math.sqrt(2))
    assert st.coeffs[1, 0] == pytest.approx(0.5)
    assert st.coeffs[0, 1] == pytest.approx(0.5j)
    assert st.norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("gamma,phi", [(0.4, 0.0), (1.0, 2.1), (2.5, math.pi / 2)])
def test_initial_pointer_b_occupation(gamma, phi):
    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=gamma, phi=phi)
    st = initial_pointer(p, 6)
    bv = _lower_b(st.coeffs)
    assert np.vdot(bv, bv).real == pytest.approx(gamma**2 / (2 * (1 + gamma**2)), abs=1e-14)


def test_initial_pointer_needs_two_levels():
    with pytest.raises(ValueError):
        initial_pointer(NAMED_POINT, 1)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(Gamma=-0.1, alpha=0.0),
        dict(Gamma=0.0, alpha=math.pi),
        dict(Gamma=0.0, alpha=0.0, delta=7.0),
        dict(Gamma=0.0, alpha=0.0, phi=-0.1),
        dict(Gamma=0.0, alpha=0.0, gamma=-1.0),
        dict(Gamma=0.0, alpha=0.0, sigma=0.0),
    ],
)
def test_params_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        MeasurementParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["Gamma", "alpha", "delta", "phi", "gamma", "sigma"])
def test_params_rejects_non_finite(name, value):
    kwargs = dict(Gamma=0.5, alpha=1.0, delta=0.0, phi=0.0, gamma=1.0, sigma=1.0)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        MeasurementParams(**kwargs)


# ---------------------------------------------------------------------------
# joint evolution
# ---------------------------------------------------------------------------

def test_evolve_identity_at_zero_coupling():
    p = MeasurementParams(Gamma=0.0, alpha=1.0, gamma=1.0, phi=0.3)
    st = initial_pointer(p, 8)
    joint = evolve_joint(st, p)
    assert np.allclose(joint.branch_plus.coeffs, st.coeffs)
    assert np.allclose(joint.branch_minus.coeffs, st.coeffs)


def test_evolve_gaussian_branches_are_coherent():
    p = MeasurementParams(Gamma=1.0, alpha=0.5, gamma=0.0)
    st = initial_pointer(p, 40)
    joint = evolve_joint(st, p)
    for branch, sign in ((joint.branch_plus, +1), (joint.branch_minus, -1)):
        av = _lower_a(branch.coeffs)
        assert np.vdot(branch.coeffs, av) == pytest.approx(sign * 0.5, abs=1e-12)
        assert np.abs(branch.coeffs[:, 1]).max() == 0.0


def test_evolve_total_norm():
    p = MeasurementParams(Gamma=2.0, alpha=2.2, delta=0.9, phi=1.1, gamma=1.4)
    st = initial_pointer(p, 60)
    joint = evolve_joint(st, p)
    # the norm of the full system (x) pointer state, 1 up to truncation loss
    total = abs(joint.amp_plus) ** 2 * joint.branch_plus.norm() ** 2 \
        + abs(joint.amp_minus) ** 2 * joint.branch_minus.norm() ** 2
    assert math.sqrt(total) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("Gamma", [0.0, 1.3, 30.0])
def test_evolve_branches_equal_full_matrix_products(Gamma):
    p = MeasurementParams(Gamma=Gamma, alpha=2.2, delta=0.9, phi=1.1, gamma=1.4)
    na = default_cutoff(Gamma)
    st = initial_pointer(p, na)
    c = st.coeffs
    joint = evolve_joint(st, p)
    d = displacement_matrix(Gamma / 2, na)
    assert np.abs(joint.branch_plus.coeffs - d @ c).max() <= 1e-15
    # D(-s) = D(s)^dagger element by element; displacement_matrix(-s) carries
    # the rounding of pi in its phases e^{i a pi}, about a * 1e-16
    assert np.abs(joint.branch_minus.coeffs - d.conj().T @ c).max() <= 1e-15
    assert np.abs(joint.branch_minus.coeffs - displacement_matrix(-Gamma / 2, na) @ c).max() <= na * 1e-16


def test_evolve_memory_is_bounded_by_occupied_columns():
    import tracemalloc

    p = MeasurementParams(Gamma=74.0, alpha=2.2, delta=0.9, phi=1.1, gamma=1.4)
    st = initial_pointer(p, default_cutoff(p.Gamma))
    assert st.na == 1849
    tracemalloc.start()
    try:
        evolve_joint(st, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a full D(Gamma/2) alone is 1849^2 * 16 B = 52 MiB


def test_norm_drift_warnings_name_the_caller():
    # five levels are too few for Gamma = 2: each displacement warns at the line that asked for it
    p = MeasurementParams(Gamma=2.0, alpha=1.0, delta=0.0, phi=0.0, gamma=1.0)
    st = initial_pointer(p, 5)
    with pytest.warns(NormDriftWarning) as caught:
        evolve_joint(st, p)  # one warning per branch
    assert len(caught) == 2
    assert [w.filename for w in caught] == [__file__] * 2


# ---------------------------------------------------------------------------
# postselection
# ---------------------------------------------------------------------------

def test_postselect_identity_at_zero_coupling():
    p = MeasurementParams(Gamma=0.0, alpha=2.0, delta=0.4, phi=1.0, gamma=0.8)
    st = initial_pointer(p, 8)
    psi, prob = postselect(evolve_joint(st, p), p)
    assert np.abs(psi.coeffs - st.coeffs).max() < 1e-14
    assert prob == pytest.approx(math.cos(1.0) ** 2, abs=1e-14)
    assert lambda_norm(p) == pytest.approx(1.0, abs=1e-14)


def test_postselect_zero_weak_value_is_symmetric_cat():
    # alpha = 0: |Psi> ~ [D(s) + D(-s)] |Psi_i>, even in the displacement
    p = MeasurementParams(Gamma=1.2, alpha=0.0, gamma=0.0)
    st = initial_pointer(p, 50)
    psi, _ = postselect(evolve_joint(st, p), p)
    av = _lower_a(psi.coeffs)
    assert np.vdot(psi.coeffs, av).real == pytest.approx(0.0, abs=1e-12)  # symmetric lobes
    # even-parity superposition of |±s>: odd Fock levels empty
    assert np.abs(psi.coeffs[1::2, 0]).max() < 1e-12


def test_postselect_normalization_and_probability_bilinearity():
    p = MeasurementParams(Gamma=0.9, alpha=2.4, delta=0.7, phi=2.0, gamma=1.3)
    st = initial_pointer(p, 50)
    joint = evolve_joint(st, p)
    psi, prob = postselect(joint, p)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    # unnormalized projection moments = prob * normalized moments
    raw = (joint.amp_plus * joint.branch_plus.coeffs + joint.amp_minus * joint.branch_minus.coeffs) / math.sqrt(2)
    av_psi = _lower_a(psi.coeffs)
    assert np.vdot(raw, _lower_a(raw)) == pytest.approx(prob * np.vdot(psi.coeffs, av_psi), abs=1e-12)


def test_postselect_destructive_interference_guard():
    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=0.0)
    st = initial_pointer(p, 4)
    dead = JointState(
        branch_plus=st,
        branch_minus=TwoModeState(-st.coeffs, st.sigma),
        amp_plus=complex(1 / math.sqrt(2)),
        amp_minus=complex(1 / math.sqrt(2)),
    )
    with pytest.raises(PostselectionError):
        postselect(dead, p)


def test_small_coupling_continuity():
    p = MeasurementParams(Gamma=1e-6, alpha=2.0, delta=0.0, phi=math.pi / 2, gamma=1.0)
    st = initial_pointer(p, 40)
    psi, _ = postselect(evolve_joint(st, p), p)
    assert np.linalg.norm(psi.coeffs - st.coeffs) < 1e-5


@pytest.mark.parametrize("delta", [0.0, math.pi])
def test_real_weak_value_path_reality(delta):
    # delta in {0, pi}: the pipeline (complex phase bookkeeping) must coincide
    # with an explicitly real weak-value construction of the final state
    p = MeasurementParams(Gamma=0.8, alpha=2.2, delta=delta, phi=0.7, gamma=1.2)
    st = initial_pointer(p, 50)
    joint = evolve_joint(st, p)
    psi, _ = postselect(joint, p)
    w_real = math.cos(delta) * math.tan(p.alpha / 2)  # exactly real
    raw = (1 + w_real) * joint.branch_plus.coeffs + (1 - w_real) * joint.branch_minus.coeffs
    ref = raw / np.linalg.norm(raw)
    # global phase of the pipeline state is fixed by the projection amplitudes
    phase = np.vdot(ref, psi.coeffs)
    phase /= abs(phase)
    assert np.abs(psi.coeffs - phase * ref).max() < 1e-12


def test_lambda_consistency_with_closed_form():
    # numeric normalization of the bracket equals the closed-form lambda
    for p in (
        NAMED_POINT,
        MeasurementParams(Gamma=2.0, alpha=2.5, delta=math.pi / 2, phi=math.pi / 2, gamma=2.0),
        MeasurementParams(Gamma=1.0, alpha=0.0, gamma=0.0),
    ):
        st = initial_pointer(p, 70)
        joint = evolve_joint(st, p)
        w = weak_value(p.alpha, p.delta).value
        un = (1 + w) * joint.branch_plus.coeffs + (1 - w) * joint.branch_minus.coeffs
        lam_numeric = 2 / np.linalg.norm(un)
        assert lambda_norm(p) == pytest.approx(lam_numeric, abs=1e-10)


# ---------------------------------------------------------------------------
# non-postselected moments
# ---------------------------------------------------------------------------

def test_phi_moment_printed_value_at_zero_coupling():
    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=1.0, phi=0.0)
    joint = evolve_joint(initial_pointer(p, 8), p)
    a, _, _ = nonpostselected_moments(joint)
    assert a == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-14)


def test_phi_moment_mean_photon_number():
    p = MeasurementParams(Gamma=0.4, alpha=math.pi / 2, delta=0.0, gamma=1.0, phi=math.pi / 2)
    joint = evolve_joint(initial_pointer(p, 40), p)
    _, ada, _ = nonpostselected_moments(joint)
    assert ada.real == pytest.approx(0.29, abs=1e-12)  # Gamma^2/4 + 1/4


def test_phi_moments_match_closed_forms_anywhere():
    from oampointer.closedform import phi_moments

    for p in (
        MeasurementParams(Gamma=0.7, alpha=2.2, delta=0.6, phi=0.9, gamma=1.3),
        MeasurementParams(Gamma=1.5, alpha=1.0, delta=0.0, phi=0.0, gamma=0.5),
        NAMED_POINT,
    ):
        joint = evolve_joint(initial_pointer(p, 60), p)
        m_a, m_ada, m_a2 = nonpostselected_moments(joint)
        a, ada, a2 = phi_moments(p)
        assert m_a == pytest.approx(a, abs=1e-12)
        assert m_ada == pytest.approx(ada, abs=1e-12)
        assert m_a2 == pytest.approx(a2, abs=1e-12)


def test_measurement_needs_no_closedform():
    # the package __init__ imports every module, so a bare package stands in for it here
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "oampointer")
    code = (
        "import sys, types\n"
        f"sys.modules['oampointer'] = types.ModuleType('oampointer'); sys.modules['oampointer'].__path__ = [{pkg!r}]\n"
        "from oampointer.measurement import MeasurementParams, evolve_joint, initial_pointer, nonpostselected_moments\n"
        "p = MeasurementParams(Gamma=0.3, alpha=2.0)\n"
        "nonpostselected_moments(evolve_joint(initial_pointer(p, 40), p))\n"
        "print(sorted(m for m in sys.modules if m.startswith('oampointer')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['oampointer', 'oampointer.fock', 'oampointer.measurement']\n"
