"""Oracle internals: moments, Wigner paths, convergence, comparison reports."""
import json
import math

import numpy as np
import pytest

from oampointer.fock import GridSpec, TwoModeState, displace_a, vacuum
from oampointer.measurement import MeasurementParams
from oampointer.oracle import (
    compare,
    oracle_expectations,
    oracle_quantities,
    oracle_states,
    oracle_wigner,
    validation_params,
    wigner_characteristic_quadrature,
)

NAMED_POINT = MeasurementParams(Gamma=0.3, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_vacuum_moments_vanish():
    m = oracle_expectations(vacuum(6, 2))
    for name, val in m.as_dict().items():
        assert val == 0.0, name


def test_coherent_state_moments():
    st = displace_a(vacuum(40, 2), 0.5)
    m = oracle_expectations(st)
    assert m.a == pytest.approx(0.5, abs=1e-12)
    assert m.adag_a == pytest.approx(0.25, abs=1e-12)
    assert m.a2 == pytest.approx(0.25, abs=1e-12)
    assert m.b == 0.0 and m.bdag_b == 0.0


def test_initial_superposition_cross_moment():
    # gamma = 1, phi = 0: c10 = 1/2, c01 = i/2, so <a†b> = i/4
    from oampointer.measurement import initial_pointer

    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=1.0, phi=0.0)
    m = oracle_expectations(initial_pointer(p, 6))
    assert m.adag_b == pytest.approx(0.25j, abs=1e-14)


def test_truncation_audit_warns():
    from oampointer.fock import TruncationWarning

    c = np.zeros((4, 2), dtype=complex)
    c[3, 0] = 1.0
    with pytest.warns(TruncationWarning):
        oracle_expectations(TwoModeState(c))


# ---------------------------------------------------------------------------
# Wigner paths
# ---------------------------------------------------------------------------

def test_wigner_vacuum_gaussian():
    grid = GridSpec(-3, 3, -3, 3, 41, 41)
    w = oracle_wigner(vacuum(20, 2), grid)
    xs, ps = grid.xs(), grid.ys()
    ref = (2 / math.pi) * np.exp(-2 * (xs[:, None] ** 2 + ps[None, :] ** 2))
    assert np.abs(w.values - ref).max() < 1e-12
    assert w.values.max() == pytest.approx(2 / math.pi, abs=1e-12)


def test_wigner_fock_one_negativity():
    c = np.zeros((20, 2), dtype=complex)
    c[1, 0] = 1.0
    w = oracle_wigner(TwoModeState(c), GridSpec(-3, 3, -3, 3, 61, 61))
    assert w.values[30, 30] == pytest.approx(-2 / math.pi, abs=1e-12)


def test_wigner_far_corner_is_clean_zero():
    # displaced-parity via D(2 alpha) matrix elements stays exact far out
    w = oracle_wigner(vacuum(30, 2), GridSpec(5.0, 6.0, 5.0, 6.0, 5, 5))
    assert np.abs(w.values).max() < 1e-40


def test_wigner_normalization_and_b_trace():
    _, _, psi, _ = oracle_states(NAMED_POINT)
    grid = GridSpec(-6, 6, -6, 6, 121, 121)
    w = oracle_wigner(psi, grid)
    assert w.integral() == pytest.approx(1.0, abs=1e-6)
    # marginal over p equals the a-mode position density; phase-space x maps
    # onto the beam coordinate X = sqrt2 sigma x, hence the sqrt2 Jacobian
    from oampointer.fock import coordinate_wavefunction

    marg = np.trapezoid(w.values, grid.ys(), axis=1)
    f2 = coordinate_wavefunction(psi, GridSpec(-6 * math.sqrt(2), 6 * math.sqrt(2), -8, 8, 121, 161))
    dens = np.trapezoid(np.abs(f2.values) ** 2, np.linspace(-8, 8, 161), axis=1) * math.sqrt(2)
    assert np.abs(marg - dens).max() < 1e-6


def test_wigner_quadrature_path_agrees_with_parity():
    _, _, psi, _ = oracle_states(MeasurementParams(Gamma=0.8, alpha=2.0, delta=0.0, phi=0.0, gamma=1.0))
    grid = GridSpec(-3, 3, -3, 3, 61, 61)
    w1 = oracle_wigner(psi, grid)
    w2 = wigner_characteristic_quadrature(psi, grid)
    assert np.abs(w1.values - w2.values).max() < 1e-6


# ---------------------------------------------------------------------------
# convergence and record
# ---------------------------------------------------------------------------

def test_cutoff_doubling_self_consistency():
    p = MeasurementParams(Gamma=2.0, alpha=2.5, delta=0.0, phi=math.pi / 2, gamma=1.5)
    r1 = oracle_quantities(p, na=49)
    r2 = oracle_quantities(p, na=98)
    assert abs(r1.lam - r2.lam) < 1e-10
    assert abs(r1.q1 - r2.q1) < 1e-10
    assert abs(r1.q2 - r2.q2) < 1e-10
    assert abs(r1.fidelity - r2.fidelity) < 1e-10
    assert abs(r1.g2 - r2.g2) < 1e-10
    assert abs(r1.chi - r2.chi) < 1e-10


def test_reduced_density_trace():
    _, _, psi, _ = oracle_states(NAMED_POINT)
    rho_a_trace = float(np.sum(np.abs(psi.coeffs) ** 2))
    assert rho_a_trace == pytest.approx(1.0, abs=1e-12)


def test_record_probabilities():
    rec = oracle_quantities(NAMED_POINT)
    assert rec.ps_ideal == pytest.approx(math.cos(4 * math.pi / 9) ** 2)
    assert 0 < rec.ps_exact <= 1.0


def test_gaussian_pointer_snr_limit():
    # gamma = 0 with a barely-open postselection angle: chi stays finite for
    # every Gamma > 0 and the two engines agree in the limit
    from oampointer.closedform import snr_ratio

    for G in (0.2, 1.0, 2.0):
        p = MeasurementParams(Gamma=G, alpha=1e-3, delta=0.0, phi=0.0, gamma=0.0)
        rec = oracle_quantities(p)
        assert rec.chi is not None and math.isfinite(rec.chi)
        assert snr_ratio(p, 5)[0] == pytest.approx(rec.chi, rel=1e-8)


# ---------------------------------------------------------------------------
# compare / ValidationReport
# ---------------------------------------------------------------------------

def test_compare_identity_regime_single_point():
    rep = compare([MeasurementParams(Gamma=0.0, alpha=1.0, delta=0.0, phi=0.5, gamma=1.0)],
                  abs_tol=1e-10, rel_tol=1e-8, include_published=False)
    assert all(e.status in ("pass", "undefined") for e in rep.entries)
    assert any(e.quantity == "chi" and e.status == "undefined" for e in rep.entries)


def test_compare_empty_set_rejected():
    with pytest.raises(ValueError):
        compare([])


def test_compare_impossible_tolerance_fails():
    rep = compare([NAMED_POINT], abs_tol=0.0, rel_tol=0.0, include_published=False)
    assert any(e.status == "fail" for e in rep.entries)


def test_compare_report_json_round_trip(tmp_path):
    rep = compare([NAMED_POINT], include_published=True)
    text = rep.to_json(indent=1)
    data = json.loads(text)
    assert data["tolerances"] == {"abs": 1e-10, "rel": 1e-8}
    assert len(data["entries"]) == len(rep.entries)
    summary = data["summary"]
    for q, counts in summary.items():
        n = sum(1 for e in rep.entries if e.quantity == q)
        assert counts["pass"] + counts["fail"] + counts["undefined"] == n


def test_compare_flags_published_residuals_but_not_exact():
    rep = compare([NAMED_POINT], include_published=True)
    exact_fail = [e for e in rep.entries if e.status == "fail" and not e.quantity.startswith("published:")]
    pub_fail = [e for e in rep.entries if e.status == "fail" and e.quantity.startswith("published:")]
    assert exact_fail == []
    assert pub_fail, "published transcription defects should be visible in the report"
    names = {e.quantity for e in pub_fail}
    assert "published:moment:adag2a2" in names  # the known cross-term defect


def test_validation_params_lattice():
    pts = validation_params()
    assert len(pts) == 300
    assert len({(p.Gamma, p.alpha, p.delta, p.phi, p.gamma) for p in pts}) == 300
    assert max(p.Gamma for p in pts) == 2.0
    assert max(p.alpha for p in pts) == pytest.approx(0.95 * math.pi)
    assert {p.gamma for p in pts} == {0.0, 1.0, 2.0}


def test_whitelist_prefix_matching():
    rep = compare([NAMED_POINT], abs_tol=0.0, rel_tol=0.0, include_published=False)
    all_fail = rep.failures()
    none_fail = rep.failures(whitelist=("*",))
    assert all_fail and not none_fail
    some = rep.failures(whitelist=("moment:*",))
    assert 0 < len(some) < len(all_fail)
