"""Oracle internals: moments, Wigner paths, convergence, comparison reports."""
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from _reference import operator_quantities, row_wigner, vacuum
from oampointer import closedform as cf
from oampointer import measurement, oracle, validation
from oampointer.fock import (
    GridSpec,
    NormDriftWarning,
    TruncationWarning,
    TwoModeState,
    default_cutoff,
    displacement_matrix,
)
from oampointer.measurement import (
    ExpectationSet,
    MeasurementParams,
    ParamSeries,
    _preselection_amplitudes,
    evolve_joint,
    initial_pointer,
    nonpostselected_moments,
    postselect,
    weak_value,
)
from oampointer.oracle import oracle_expectations, oracle_intensity, oracle_states, oracle_wigner
from oampointer.validation import (
    SCALAR_QUANTITIES,
    ReportEntry,
    ValidationReport,
    _entry,
    compare,
    field_check_points,
    oracle_quantities,
    validation_params,
    value,
    values,
)

NAMED_POINT = MeasurementParams(Gamma=0.3, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_vacuum_moments_vanish():
    m = oracle_expectations(vacuum(6))
    for name in ExpectationSet.field_names():
        assert getattr(m, name) == 0.0, name


def test_coherent_state_moments():
    st = TwoModeState(displacement_matrix(0.5, 40) @ vacuum(40).coeffs)
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


_SWEEP_GAMMA_AXIS = [MeasurementParams(Gamma=float(G), alpha=2.2, delta=0.6, phi=0.9, gamma=1.3)
                     for G in np.linspace(0.0, 30.0, 121)]


@pytest.mark.parametrize("points", [validation_params(), _SWEEP_GAMMA_AXIS], ids=["lattice", "sweep_Gamma_0_30"])
def test_nonpostselected_moments_are_the_branch_mixture_bit_for_bit(points):
    # the three moments chi reads, mixed from the eleven of each branch in the same operand order
    for p in points:
        joint = oracle_states(p)[1]
        plus, minus = oracle_expectations(joint.branch_plus), oracle_expectations(joint.branch_minus)
        wp, wm = (abs(amp) ** 2 for amp in _preselection_amplitudes(p.alpha, p.delta))
        expected = tuple(wp * getattr(plus, n) + wm * getattr(minus, n) for n in ("a", "adag_a", "a2"))
        assert nonpostselected_moments(joint, p) == expected, p


@pytest.mark.parametrize("oracle_fn", [
    oracle_expectations,
    lambda state: oracle_intensity(state, GridSpec(-6, 6, -6, 6, 41, 41)),
    lambda state: oracle_wigner(state, GridSpec(-6, 6, -6, 6, 41, 41)),
], ids=["oracle_expectations", "oracle_intensity", "oracle_wigner"])
def test_truncation_audit_warns(oracle_fn):
    from oampointer.fock import TruncationWarning

    c = np.zeros((4, 2), dtype=complex)
    c[3, 0] = 1.0
    with pytest.warns(TruncationWarning, match="at cutoff Na=4;"):
        oracle_fn(TwoModeState(c))


# ---------------------------------------------------------------------------
# Wigner paths
# ---------------------------------------------------------------------------

def test_wigner_vacuum_gaussian():
    grid = GridSpec(-3, 3, -3, 3, 41, 41)
    w = oracle_wigner(vacuum(20), grid)
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
    w = oracle_wigner(vacuum(30), GridSpec(5.0, 6.0, 5.0, 6.0, 5, 5))
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


def _wigner_full_accumulator(state, grid):
    """Reference: the (points, K, Nb) accumulator form of the displaced-parity
    sum, every column D(2 alpha)|k> kept for all points at once."""
    vecs = state.coeffs
    K = vecs.shape[0]
    ks = np.arange(K)
    al = 2 * (grid.xs()[:, None] + 1j * grid.ys()[None, :]).ravel()
    logfact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, K, dtype=float)))))
    absal = np.abs(al)
    tiny = absal == 0
    safe = np.where(tiny, 1.0, absal)
    mag = np.exp(-(absal[:, None] ** 2) / 2 + ks[None, :] * np.log(safe)[:, None] - logfact[None, :] / 2)
    col = mag * np.where(tiny, 1.0, al / safe)[:, None] ** ks[None, :]
    col[tiny] = 0.0
    col[tiny, 0] = 1.0
    acc = col[:, :, None] * vecs[0][None, None, :]
    for k in range(1, K):
        nxt = np.empty_like(col)
        nxt[:, 0] = -np.conj(al) * col[:, 0]
        nxt[:, 1:] = np.sqrt(ks[1:])[None, :] * col[:, :-1] - np.conj(al)[:, None] * col[:, 1:]
        col = nxt / math.sqrt(k)
        acc += col[:, :, None] * ((-1) ** k * vecs[k])[None, None, :]
    w = (2 / math.pi) * np.einsum("kr,gkr->g", np.conj(vecs), acc).real
    return w.reshape(grid.nx, grid.ny)


def _distinct_radii(grid):
    """The sorted distinct |beta|^2 = |2 alpha|^2 of the grid points."""
    return np.unique(np.abs(2 * (grid.xs()[:, None] + 1j * grid.ys()[None, :])) ** 2)


def _chain_groups(n_radii, K):
    """The groups of a-chains _laguerre_rows walks in each of oracle_wigner's blocks of radii."""
    from oampointer.fock import _TILE
    from oampointer.oracle import _BLOCK

    sizes = [min(_BLOCK, n_radii - lo) for lo in range(0, n_radii, _BLOCK)]
    return [-(-K // min(max(_TILE // n, 1), K)) for n in sizes]


def test_wigner_block_seams_match_closed_form_and_full_accumulator():
    from oampointer.oracle import _BLOCK

    for grid, n_radii, origin in (
        # more than two blocks of radii, the last partial, the origin (the
        # |beta| = 0 branch) in block 0, and radii shared by several points
        (GridSpec(-4, 4, -4, 4, 121, 97), 4673, True),
        # no two points share a radius: more than two blocks, one point per radius
        (GridSpec(-3.1, 5.3, -2.7, 4.9, 83, 61), 5063, False),
    ):
        radii = _distinct_radii(grid)
        assert radii.size == n_radii and n_radii > 2 * _BLOCK and n_radii % _BLOCK != 0
        assert (radii[0] == 0.0) == origin
        for p in (NAMED_POINT, MeasurementParams(Gamma=0.8, alpha=2.0, delta=0.0, phi=0.0, gamma=1.0)):
            _, _, psi, _ = oracle_states(p)
            groups = _chain_groups(n_radii, psi.na)  # a chain-group seam in every block, two in some
            assert min(groups) >= 2 and max(groups) >= 3
            w = oracle_wigner(psi, grid).values
            assert np.abs(w - cf.wigner_field(p, grid).values).max() <= 1e-10
            assert np.abs(w - _wigner_full_accumulator(psi, grid)).max() <= 1e-14


_FIELD_POINT = MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, gamma=1.0)
_ORACLE_FIELD_GRID = GridSpec(-6, 6, -6, 6, 241, 241)
_FIELD_CHECKS = [(p, GridSpec(-6, 6, -6, 6, 61, 61)) for p in validation.field_check_points()]


@pytest.mark.simd
@pytest.mark.parametrize("p,grid", [
    # the oracle-field grid: partial last block, and chain groups that do not divide K
    (_FIELD_POINT, _ORACLE_FIELD_GRID),
    *_FIELD_CHECKS,  # validate's ten fields
    (_FIELD_POINT, GridSpec(-4, 4, -4, 4, 121, 97)),  # the origin, shared radii
    (NAMED_POINT, GridSpec(-3.1, 5.3, -2.7, 4.9, 83, 61)),  # no shared radius
    (_FIELD_POINT, GridSpec(-25, 25, -25, 25, 41, 41)),  # radii past the underflow of e^{-|beta|^2/2}
    (MeasurementParams(Gamma=20.0, alpha=8 * math.pi / 9, phi=math.pi / 2, gamma=1.0),
     GridSpec(-16, 16, -6, 6, 61, 41)),  # K = 256
], ids=["oracle-field", *(f"validate{i}" for i in range(len(_FIELD_CHECKS))),
        "origin", "no-shared-radius", "past-underflow", "K256"])
def test_wigner_keeps_the_row_kernel_bits(p, grid):
    # the chain-tiled walk against the kernel that accumulated lockstep rows into a (K, block) sum
    _, _, psi, _ = oracle_states(p)
    if grid == _ORACLE_FIELD_GRID:
        from oampointer.fock import _TILE
        from oampointer.oracle import _BLOCK

        assert psi.na % min(_TILE // _BLOCK, psi.na) != 0 and _distinct_radii(grid).size % _BLOCK != 0
    if p.Gamma == 20.0:
        assert psi.na == 256
    got, want = oracle_wigner(psi, grid).values, row_wigner(psi, grid).values
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_wigner_makes_radial_sums_once_per_distinct_radius(monkeypatch):
    from oampointer import oracle

    rows, seen = oracle._laguerre_rows, []

    def counting(x, K):
        seen.append(x.size)
        return rows(x, K)

    monkeypatch.setattr(oracle, "_laguerre_rows", counting)
    grid = GridSpec(-6, 6, -6, 6, 241, 241)
    oracle_wigner(vacuum(20), grid)
    assert sum(seen) == _distinct_radii(grid).size == 11_993


@pytest.mark.parametrize("gamma_c,half_x,half_p", [(8.0, 10.0, 6.0), (20.0, 16.0, 6.0), (1.0, 25.0, 25.0)])
def test_wigner_matches_closed_form_far_from_origin(gamma_c, half_x, half_p):
    # Gamma = 8, 20: both lobes at +-Gamma/2 are on the grid, where a column
    # recurrence c_k = (a† - conj(beta)) c_{k-1} / sqrt(k) loses all digits.
    # Gamma = 1: |2 alpha|^2 reaches 5000, past the underflow of
    # e^{-|beta|^2/2}, but 43 levels reach no element that is not negligible
    # there, so the underflow limit must not fire.
    p = MeasurementParams(Gamma=gamma_c, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)
    grid = GridSpec(-half_x, half_x, -half_p, half_p, 41, 41)
    _, _, psi, _ = oracle_states(p)
    w = oracle_wigner(psi, grid).values
    assert np.abs(w - cf.wigner_field(p, grid).values).max() <= 1e-10


def test_intensity_matches_closed_form_past_gaussian_underflow():
    # the lobes sit at X = +-Gamma/sqrt2 = +-42.4, where e^{-X^2/2} is 0.0
    p = MeasurementParams(Gamma=60.0, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)
    half_x = 60.0 / math.sqrt(2) + 6.0
    grid = GridSpec(-half_x, half_x, -6.0, 6.0, 121, 41)
    _, _, psi, _ = oracle_states(p)
    i = oracle_intensity(psi, grid).values
    assert np.abs(i - cf.intensity_field(p, grid).values).max() <= 1e-10


def test_wigner_memory_is_bounded_by_block_not_grid():
    import tracemalloc

    _, _, psi, _ = oracle_states(MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, gamma=1.0))
    grid = GridSpec(-6, 6, -6, 6, 241, 241)
    tracemalloc.start()
    try:
        oracle_wigner(psi, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (points, K, Nb) accumulator alone would take 241^2 * 43 * 2 * 16 B = 76 MiB, and a
    # (K, radii) one over the 11,993 distinct radii 43 * 11,993 * 16 B = 7.9 MiB
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# convergence and record
# ---------------------------------------------------------------------------

def test_oracle_quantities_state_the_underflow_limit():
    # below (Gamma/2)^2 = 1400 the oracle agrees with the closed forms at
    # validate's tolerances; past it default_cutoff raises before any allocation
    for gamma_c in (40.0, 60.0, 74.0):
        p = MeasurementParams(Gamma=gamma_c, alpha=1.0, delta=0.0, phi=0.0, gamma=1.0)
        rec = oracle_quantities(p)
        for name in ("Q1", "Q2", "lambda", "I1", "fidelity"):
            entry = _entry(name, 0, values(name, ParamSeries.of([p]), "closedform")[0], rec[name], 1e-10, 1e-8)
            assert entry.status == "pass", (gamma_c, entry)
    for gamma_c in (80.0, 1e4):
        p = MeasurementParams(Gamma=gamma_c, alpha=1.0, delta=0.0, phi=0.0, gamma=1.0)
        with pytest.raises(ValueError, match="underflows"):
            oracle_quantities(p)


@pytest.mark.parametrize("gamma_c", [6.5, 10.0, 30.0])
def test_oracle_quantities_raise_no_norm_drift(gamma_c):
    # I1 takes D(Gamma) only on the occupied levels, never on a cutoff sized for Gamma/2
    p = MeasurementParams(Gamma=gamma_c, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NormDriftWarning)
        oracle_quantities(p)


@pytest.mark.parametrize("closed, oracle_value, reason", [
    ((None, "no b photons"), 0.25, "no b photons"),
    (0.25, (None, "no b photons"), "no b photons"),
    ((None, ""), 0.25, "one engine undefined"),
    (0.25, (None, ""), "one engine undefined"),
], ids=["closed-undefined", "oracle-undefined", "closed-no-reason", "oracle-no-reason"])
def test_definedness_disagreement_is_a_failure(closed, oracle_value, reason):
    # one engine undefined where the other gives a value fails, keeping the defined side and the
    # undefined side's reason, and is a failure the report (and so validate) stops on
    entry = _entry("g2", 3, closed, oracle_value, 1e-10, 1e-8)
    want_closed = None if isinstance(closed, tuple) else closed
    want_oracle = None if isinstance(oracle_value, tuple) else oracle_value
    assert entry == ReportEntry("g2", 3, want_closed, want_oracle, None, None, "fail", reason=reason)
    report = ValidationReport(1e-10, 1e-8, points=[NAMED_POINT] * 4, entries=[entry])
    assert report.failures() == [entry]
    assert report.summary()["g2"] == {"pass": 0, "fail": 1, "undefined": 0, "max_abs_delta": 0.0}


def test_cutoff_doubling_self_consistency():
    p = MeasurementParams(Gamma=2.0, alpha=2.5, delta=0.0, phi=math.pi / 2, gamma=1.5)
    r1 = oracle_quantities(p, na=49)
    r2 = oracle_quantities(p, na=98)
    assert abs(r1["lambda"] - r2["lambda"]) < 1e-10
    assert abs(r1["Q1"] - r2["Q1"]) < 1e-10
    assert abs(r1["Q2"] - r2["Q2"]) < 1e-10
    assert abs(r1["fidelity"] - r2["fidelity"]) < 1e-10
    assert abs(r1["g2"] - r2["g2"]) < 1e-10
    assert abs(r1["chi"] - r2["chi"]) < 1e-10


def test_oracle_quantities_keep_table_order():
    # compare reports each point's entries in this order
    assert list(oracle_quantities(NAMED_POINT)) == list(SCALAR_QUANTITIES)


def _refuse(*args, **kwargs):
    raise AssertionError("a closed-form primitive was made")


def test_oracle_takes_no_closed_form_primitive(monkeypatch):
    # the oracle makes its five primitives from state vectors: with each closed-form one
    # refusing, the table still comes out whole, with the values of an unpatched call
    want = oracle_quantities(NAMED_POINT)
    for name in ("lambda_norm", "_i1", "fidelity", "expectations", "phi_moments"):
        monkeypatch.setattr(cf, name, _refuse)
    got = oracle_quantities(NAMED_POINT)
    assert list(got) == list(SCALAR_QUANTITIES)
    assert not any(isinstance(v, tuple) for v in got.values())
    assert got == want


@pytest.mark.parametrize("engine,quantity,unread", [
    ("closedform", "Q1", ("lambda_norm", "fidelity", "phi_moments")),
    ("closedform", "chi", ("lambda_norm", "fidelity")),
    ("closedform", "lambda", ("fidelity", "expectations", "phi_moments")),
    ("oracle", "Q1", ("inner", "nonpostselected_moments")),
    ("oracle", "chi", ("inner",)),
    ("oracle", "lambda", ("inner", "nonpostselected_moments", "_moments")),
], ids=["Q1-unread0", "chi-unread1", "lambda-unread2", "oracle-Q1", "oracle-chi", "oracle-lambda"])
def test_closed_value_makes_only_the_primitives_it_reads(monkeypatch, engine, quantity, unread):
    # a sweep pays for its own quantity only, on either engine: each primitive is made on first use
    want = list(values(quantity, ParamSeries.of(_SWEEP_GAMMA_AXIS), engine))
    for name in unread:
        monkeypatch.setattr(cf if engine == "closedform" else oracle, name, _refuse)
    assert list(values(quantity, ParamSeries.of(_SWEEP_GAMMA_AXIS), engine)) == want


def test_table_derivations_match_operators_on_the_oracle_states():
    # Q1, Q2, g2 and both chi from ladder matrices on the oracle's state vectors
    # (tests/_reference.py), so a defect in the moment formulas both engines share shows
    for p in validation_params():
        rec = oracle_quantities(p)
        for name, want in operator_quantities(p).items():
            got = rec[name]
            assert isinstance(got, tuple) == isinstance(want, tuple), (name, p, got, want)
            assert isinstance(want, tuple) or abs(got - want) <= 1e-12, (name, p, got, want)


def test_reduced_density_trace():
    _, _, psi, _ = oracle_states(NAMED_POINT)
    rho_a_trace = float(np.sum(np.abs(psi.coeffs) ** 2))
    assert rho_a_trace == pytest.approx(1.0, abs=1e-12)


def test_record_probabilities():
    ps_ideal = weak_value(NAMED_POINT.alpha, NAMED_POINT.delta).ps
    ps_exact = oracle_states(NAMED_POINT)[3]
    assert ps_ideal == pytest.approx(math.cos(4 * math.pi / 9) ** 2)
    assert 0 < ps_exact <= 1.0


def test_gaussian_pointer_snr_limit():
    # gamma = 0 with a barely-open postselection angle: chi stays finite for
    # every Gamma > 0 and the two engines agree in the limit
    from oampointer.closedform import snr_ratio

    for G in (0.2, 1.0, 2.0):
        p = MeasurementParams(Gamma=G, alpha=1e-3, delta=0.0, phi=0.0, gamma=0.0)
        rec = oracle_quantities(p)
        assert not isinstance(rec["chi"], tuple) and math.isfinite(rec["chi"])
        assert snr_ratio(p, 5)[0] == pytest.approx(rec["chi"], rel=1e-8)


# ---------------------------------------------------------------------------
# one walk: each distinct pointer is evolved once
# ---------------------------------------------------------------------------

def _counting_evolve_joint(monkeypatch):
    calls = []
    evolve_joint = oracle.evolve_joint

    def counting(pointer, params):
        calls.append(params)
        return evolve_joint(pointer, params)

    monkeypatch.setattr(oracle, "evolve_joint", counting)
    return calls


def _state_bytes(psi_i, joint, psi):
    return [s.coeffs.tobytes() for s in (psi_i, joint.branch_plus, joint.branch_minus, psi)]


def _fresh_state_bytes(p):
    # the pipeline of one point, written out from the measurement layer
    psi_i = initial_pointer(p, default_cutoff(p.Gamma))
    joint = evolve_joint(psi_i, p)
    return _state_bytes(psi_i, joint, postselect(joint, p)[0])


def test_compare_keeps_the_bits_of_points_evaluated_afresh(monkeypatch):
    # with a memo of size 0 every point starts empty, as oracle_quantities does alone
    points = validation_params() + field_check_points()
    assert [_state_bytes(*e.pointer[:2], e.psi) for e in oracle._points(points)] \
        == list(map(_fresh_state_bytes, points))

    def entries():
        return [repr(e) for e in compare(validation_params(), field_params=field_check_points()).entries]

    memo = entries()
    monkeypatch.setattr(oracle, "_POINTERS", 0)
    calls = _counting_evolve_joint(monkeypatch)
    assert entries() == memo
    assert len(calls) == 310


def test_compare_evolves_each_lattice_pointer_once(monkeypatch):
    # 300 points, 30 pointers (Gamma, gamma, phi): alpha and delta enter only at postselection
    calls = _counting_evolve_joint(monkeypatch)
    compare(validation_params())
    assert len(calls) == 30
    assert len({(p.Gamma, p.gamma, p.phi) for p in calls}) == 30


@pytest.mark.parametrize("distinct, evolutions", [(9, 10), (8, 8)])
def test_a_walk_holds_at_most_eight_pointers(monkeypatch, distinct, evolutions):
    # a sweep of any length runs in bounded memory: the ninth distinct pointer evicts the first,
    # which is then evolved again, where an unbounded memo would evolve nine
    points = [MeasurementParams(Gamma=0.1 * k, alpha=2.0, gamma=1.0) for k in range(distinct)]
    calls = _counting_evolve_joint(monkeypatch)
    for _ in oracle._points(points + points[:1]):
        pass
    assert len(calls) == evolutions


@pytest.mark.parametrize("axis", ["Gamma", "phi", "gamma"])
def test_signed_zero_neighbours_keep_their_uncached_bits(monkeypatch, axis):
    # a tuple key takes -0.0 and 0.0 for one; the walk tells them apart
    base = MeasurementParams(Gamma=1.1, alpha=2.0, delta=0.6, phi=0.9, gamma=1.3)
    points = [replace(base, **{axis: z}) for z in (0.0, -0.0, 0.0, -0.0)]
    fresh = [repr(oracle_quantities(p)) for p in points]
    calls = _counting_evolve_joint(monkeypatch)
    walk = list(oracle._points(points))  # walked once: each sign's pointer is evolved once
    assert [repr({name: value(name, p, e) for name in SCALAR_QUANTITIES}) for p, e in zip(points, walk)] == fresh
    assert [_state_bytes(*e.pointer[:2], e.psi) for e in walk] == list(map(_fresh_state_bytes, points))
    assert [math.copysign(1.0, getattr(p, axis)) for p in calls] == [1.0, -1.0]


@pytest.mark.parametrize("checks", ["scalars", "fields"])
def test_compare_names_the_point_a_truncation_audit_trips_at(checks):
    p = MeasurementParams(Gamma=1.5, alpha=0.7, delta=0.0, phi=0.0, gamma=0.0)
    points = dict(params_set=[p]) if checks == "scalars" else dict(params_set=[NAMED_POINT], field_params=[p])
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(TruncationWarning, match=r"Na=14; .*; at MeasurementParams\(Gamma=1.5, alpha=0.7,"):
            compare(na=14, **points)


def test_one_point_states_make_no_i1(monkeypatch):
    # oracle_states, so an oracle field, displaces its pointer once and builds no I1 block
    calls = _counting_evolve_joint(monkeypatch)
    made = []
    for module in (oracle, measurement):
        monkeypatch.setattr(module, "displacement_matrix",
                            lambda *a, f=module.displacement_matrix, **k: made.append(a) or f(*a, **k))
    oracle_states(NAMED_POINT)
    assert len(calls) == 1 and len(made) == 1


def test_compare_audits_each_field_state_in_the_two_fields_alone(monkeypatch):
    # one audit per lattice point (its walk) and one per field function that reads a field state
    lattice, fields = validation_params()[::75], field_check_points()[:3]
    audits = []
    audit = oracle._audit_truncation
    monkeypatch.setattr(oracle, "_audit_truncation", lambda state: audits.append(state) or audit(state))
    compare(lattice, field_params=fields)
    assert len(audits) == len(lattice) + 2 * len(fields)


def test_field_checks_read_the_states_engine_field_reads(monkeypatch):
    # one path for an oracle field state: each field check reads the postselected pointer of
    # oracle_states, as field and figure do through engine_field, so its fields are engine_field's bits
    fields = field_check_points()[:3]
    made, read = [], []
    states = oracle.oracle_states
    monkeypatch.setattr(oracle, "oracle_states", lambda p, na=None: made.append(states(p, na)) or made[-1])
    for name in ("oracle_intensity", "oracle_wigner"):
        monkeypatch.setattr(oracle, name, lambda psi, grid, f=getattr(oracle, name): read.append((psi, f(psi, grid)))
                            or read[-1][1])
    compare([NAMED_POINT], field_params=fields)
    assert len(read) == 2 * len(made) == 2 * len(fields)
    assert [id(psi) for psi, _ in read] == [id(s[2]) for s in made for _ in range(2)]
    monkeypatch.undo()
    want = [validation.engine_field(kind, p, validation._FIELD_GRID, "oracle").values.tobytes()
            for p in fields for kind in ("intensity", "wigner")]
    assert [f.values.tobytes() for _, f in read] == want


# ---------------------------------------------------------------------------
# compare / ValidationReport
# ---------------------------------------------------------------------------

def test_compare_identity_regime_single_point():
    rep = compare([MeasurementParams(Gamma=0.0, alpha=1.0, delta=0.0, phi=0.5, gamma=1.0)],
                  abs_tol=1e-10, rel_tol=1e-8)
    # the published transcriptions of <a†b> and Q2 fail even at Gamma = 0
    entries = [e for e in rep.entries if not e.quantity.startswith("published:")]
    assert all(e.status in ("pass", "undefined") for e in entries)
    assert any(e.quantity == "chi" and e.status == "undefined" for e in entries)


def test_compare_empty_set_rejected():
    with pytest.raises(ValueError):
        compare([])


def test_compare_impossible_tolerance_fails():
    rep = compare([NAMED_POINT], abs_tol=0.0, rel_tol=0.0)
    # published:* entries fail at any tolerance; only an exact entry shows the tolerances bite
    assert any(e.status == "fail" and not e.quantity.startswith("published:") for e in rep.entries)


def test_compare_report_json_round_trip(tmp_path):
    rep = compare([NAMED_POINT])
    text = rep.to_json()
    data = json.loads(text)
    assert data["tolerances"] == {"abs": 1e-10, "rel": 1e-8}
    assert len(data["entries"]) == len(rep.entries)
    summary = data["summary"]
    for q, counts in summary.items():
        n = sum(1 for e in rep.entries if e.quantity == q)
        assert counts["pass"] + counts["fail"] + counts["undefined"] == n


def _reference_report_json(rep):
    """json.dumps of the report as plain data: the encoder the template writer must match."""
    def enc(v):
        if v is None:
            return None
        if isinstance(v, complex):
            return [v.real, v.imag]
        return float(v)

    entries = [
        {
            "quantity": e.quantity, "point_index": e.point_index,
            "closed": enc(e.closed_value), "oracle": enc(e.oracle_value),
            "abs_delta": enc(e.abs_delta), "rel_delta": enc(e.rel_delta),
            "status": e.status, "reason": e.reason,
        }
        for e in rep.entries
    ]
    return json.dumps(
        {"tolerances": {"abs": rep.abs_tol, "rel": rep.rel_tol}, "entries": entries, "summary": rep.summary(),
         "points": [vars(p) for p in rep.points]},
        indent=2,
        sort_keys=True,
    )


def test_report_json_bytes_match_json_dumps():
    p = MeasurementParams(Gamma=0.1, alpha=1 / 3, delta=math.pi / 2, phi=0.0, gamma=2.0)
    q = MeasurementParams(Gamma=2.0, alpha=0.0, delta=0.0, phi=1e-300, gamma=0.0, sigma=1.5)
    nan, inf = float("nan"), float("inf")
    # q is both a lattice point (1) and a field check point (2), as in compare([p, q], field_params=[q])
    rep = ValidationReport(abs_tol=1e-10, rel_tol=1e-8, points=[p, q, q], entries=[
        ReportEntry("g2", 0, None, None, None, None, "undefined",
                    reason='gamma = 0: the "b" mode is empty, so g2 is 0/0 \u2014 undefined'),
        ReportEntry("I1", 0, complex(1.0, -0.0), np.complex128(0.3 - 1e-17j), 2.5e-17, 0.1, "pass"),
        ReportEntry("moment:a", 0, np.float64(0.1), -0.0, np.float64(0.0), 5e-324, "pass"),
        ReportEntry("Q1", 1, nan, 1.0, nan, inf, "fail"),
        ReportEntry("chi", 1, None, -inf, None, None, "fail", reason="one engine undefined"),
        ReportEntry("I2", 1, np.complex128(nan + 1j * inf), complex(-inf, 0.0), inf, -inf, "fail"),
        ReportEntry("wigner:field_maxdev", 2, 3e-16, 0.0, 3e-16, None, "pass"),
        ReportEntry("published:intensity:field_maxdev", 2, 2.0, 0.0, 2.0, None, "fail"),
    ])
    assert rep.to_json() == _reference_report_json(rep)
    # with no entries, no points, or neither
    for part in ({"points": [q]}, {"entries": rep.entries[:1]}, {}):
        part = ValidationReport(abs_tol=0.0, rel_tol=1.0, **part)
        assert part.to_json() == _reference_report_json(part)


def test_compare_flags_published_residuals_but_not_exact():
    rep = compare([NAMED_POINT])
    exact_fail = [e for e in rep.entries if e.status == "fail" and not e.quantity.startswith("published:")]
    pub_fail = [e for e in rep.entries if e.status == "fail" and e.quantity.startswith("published:")]
    assert exact_fail == []
    assert pub_fail, "published transcription defects should be visible in the report"
    names = {e.quantity for e in pub_fail}
    assert "published:moment:adag2a2" in names  # the known cross-term defect


def test_compare_takes_published_entries_from_one_place():
    # every published:* entry is a published_scalars value, plus the field entry
    # from published_intensity, in the function's order after the exact entries
    p = MeasurementParams(Gamma=1.5, alpha=2.9, delta=math.pi / 2, phi=math.pi / 2, gamma=2.0)
    rep = compare([p], field_params=[p])
    pub = cf.published_scalars(p)
    scalar = [e for e in rep.entries if e.point_index == 0]
    n_exact = len(scalar) - len(pub)
    assert [e.quantity for e in scalar[n_exact:]] == ["published:" + name for name in pub]
    assert not any(e.quantity.startswith("published:") for e in scalar[:n_exact])
    for e in scalar[n_exact:]:
        assert e.closed_value == pub[e.quantity.removeprefix("published:")], e.quantity
    field = [e for e in rep.entries if e.point_index == 1]
    assert [e.quantity for e in field if e.quantity.startswith("published:")] == [
        "published:intensity:field_maxdev"]
    grid = GridSpec(-6.0, 6.0, -6.0, 6.0, 61, 61)
    i_orc = oracle_intensity(oracle_states(p)[2], grid)
    assert field[-1].closed_value == float(np.abs(cf.published_intensity(p, grid).values - i_orc.values).max())


def test_report_states_each_point_once():
    # the lattice takes point indices 0..n-1 and the field check points n..; every entry's
    # params are rebuilt from the parsed report's points at its point_index
    lattice, fields = validation_params()[::75], field_check_points()[:2]
    rep = compare(lattice, field_params=fields)
    data = json.loads(rep.to_json())
    points = [MeasurementParams(**d) for d in data["points"]]
    assert points == rep.points == lattice + fields
    indices = [e["point_index"] for e in data["entries"]]
    assert sorted(set(indices)) == list(range(len(lattice) + len(fields)))
    field_names = {"wigner:field_maxdev", "wigner:integral", "intensity:field_maxdev",
                   "published:intensity:field_maxdev"}
    for i, e in zip(indices, data["entries"]):
        assert (i >= len(lattice)) == (e["quantity"] in field_names), e
    assert [points[i] for i in indices] == [
        p for p in lattice for _ in range(len(SCALAR_QUANTITIES) + len(cf.published_scalars(p)))
    ] + [p for p in fields for _ in field_names]


def test_validation_params_lattice():
    pts = validation_params()
    assert len(pts) == 300
    assert len({(p.Gamma, p.alpha, p.delta, p.phi, p.gamma) for p in pts}) == 300
    assert max(p.Gamma for p in pts) == 2.0
    assert max(p.alpha for p in pts) == pytest.approx(0.95 * math.pi)
    assert {p.gamma for p in pts} == {0.0, 1.0, 2.0}


def test_whitelist_prefix_matching():
    rep = compare([NAMED_POINT], abs_tol=0.0, rel_tol=0.0)

    def exact(entries):  # published:* entries fail at any tolerance
        return [e for e in entries if not e.quantity.startswith("published:")]

    all_fail = exact(rep.failures())
    none_fail = rep.failures(whitelist=("*",))
    assert all_fail and not none_fail
    some = exact(rep.failures(whitelist=("moment:*",)))
    assert 0 < len(some) < len(all_fail)
