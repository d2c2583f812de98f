"""Closed forms vs the state-vector oracle, plus the published-variant residuals."""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from _reference import scalar_closed_values

from oampointer.cli import _FIGURE_AXES, _FIGURE_PRESETS, _point
from oampointer.closedform import (
    DegenerateShiftError,
    ParamSeries,
    UndefinedCorrelationError,
    VarianceCollapseError,
    expectations,
    fidelity,
    g2_cross,
    intensity_field,
    lambda_norm,
    projected_wavefunction,
    published_intensity,
    published_scalars,
    snr_ratio,
    squeezing,
    wigner_field,
)
from oampointer.closedform import _i1, _lambda_from_bracket, _weak
from oampointer.fock import GridSpec
from oampointer.measurement import ExpectationSet, MeasurementParams, PostselectionError, weak_value
from oampointer.oracle import oracle_expectations, oracle_intensity, oracle_states, oracle_wigner
from oampointer.validation import SCALAR_QUANTITIES, _ClosedPrimitives, oracle_quantities, validation_params, value

NAMED_POINT = MeasurementParams(Gamma=0.3, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)

GENERIC_POINTS = [
    NAMED_POINT,
    MeasurementParams(Gamma=0.7, alpha=2.2, delta=0.6, phi=0.9, gamma=1.3),
    MeasurementParams(Gamma=1.5, alpha=2.9, delta=math.pi / 2, phi=math.pi / 2, gamma=2.0),
    MeasurementParams(Gamma=2.0, alpha=1.0, delta=0.0, phi=0.0, gamma=0.5),
    MeasurementParams(Gamma=0.0, alpha=2.0, delta=0.3, phi=1.0, gamma=1.0),
    MeasurementParams(Gamma=1.0, alpha=0.0, delta=0.0, phi=0.0, gamma=0.0),
]


# ---------------------------------------------------------------------------
# helper terms
# ---------------------------------------------------------------------------

def test_helpers_at_zero_coupling():
    i1 = _i1(MeasurementParams(Gamma=0.0, alpha=0.0, gamma=1.0, phi=math.pi / 2))
    assert i1 == pytest.approx(1.0)
    assert np.conj(i1) == pytest.approx(1.0)


def test_helpers_gaussian_reduction():
    p = MeasurementParams(Gamma=0.8, alpha=0.0, gamma=0.0)
    assert _i1(p) == pytest.approx(math.exp(-0.32), abs=1e-15)


def test_helper_i1_matches_oracle_overlap():
    from oampointer.fock import displacement_matrix
    from oampointer.measurement import initial_pointer

    for p in GENERIC_POINTS:
        c = initial_pointer(p, 70).coeffs
        i1_oracle = np.vdot(c, displacement_matrix(p.Gamma, len(c)) @ c)
        assert _i1(p) == pytest.approx(i1_oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------

def test_lambda_trivial_at_zero_coupling():
    for alpha in (0.0, 1.0, 2.8):
        p = MeasurementParams(Gamma=0.0, alpha=alpha, gamma=1.2, phi=0.5)
        assert lambda_norm(p) == pytest.approx(1.0, abs=1e-15)


def test_lambda_gaussian_value():
    # gamma = 0, alpha = 0 reduces to [ (1 + e^{-Gamma^2/2}) / 2 ]^{-1/2}
    p = MeasurementParams(Gamma=1.0, alpha=0.0, gamma=0.0)
    expected = 1 / math.sqrt(0.5 * (1 + math.exp(-0.5)))
    assert lambda_norm(p) == pytest.approx(expected, abs=1e-15)
    assert lambda_norm(p) == pytest.approx(1.115759231377321, abs=1e-12)
    assert oracle_quantities(p)["lambda"] == pytest.approx(expected, abs=1e-12)


def test_lambda_matches_oracle_everywhere():
    for p in GENERIC_POINTS:
        assert lambda_norm(p) == pytest.approx(oracle_quantities(p)["lambda"], abs=1e-10)


def test_lambda_published_drops_imaginary_cross_term():
    # the published bracket deviates once Im(w) Im(I1) != 0
    p = MeasurementParams(Gamma=1.5, alpha=2.9, delta=math.pi / 2, phi=math.pi / 2, gamma=2.0)
    exact = lambda_norm(p)
    pub = published_scalars(p)["lambda"]
    assert abs(pub - exact) > 1e-3
    assert exact == pytest.approx(oracle_quantities(p)["lambda"], abs=1e-12)
    # for real weak values the two coincide
    q = MeasurementParams(Gamma=1.5, alpha=2.9, delta=0.0, phi=math.pi / 2, gamma=2.0)
    assert published_scalars(q)["lambda"] == pytest.approx(lambda_norm(q), abs=1e-15)


def test_lambda_bracket_guard():
    with pytest.raises(PostselectionError):
        _lambda_from_bracket(0.0)
    with pytest.raises(PostselectionError):
        _lambda_from_bracket(-0.2)
    # a series raises as its first offending point does alone
    with pytest.raises(PostselectionError, match=r"^normalization bracket -2\.000e-01 is not positive"):
        _lambda_from_bracket(np.array([1.0, -0.2, 0.0]))
    assert _lambda_from_bracket(np.array([1.0, 4.0])).tolist() == [1.0, 0.5]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_reductions_at_zero_coupling():
    p = MeasurementParams(Gamma=0.0, alpha=1.7, delta=0.9, gamma=1.0, phi=0.0)
    m = expectations(p)
    assert m.bdag_b.real == pytest.approx(0.25, abs=1e-14)
    assert m.adaga_bdagb == 0.0  # overall Gamma^2 factor
    assert m.b2 == 0.0 and m.bdag2b2 == 0.0


@pytest.mark.parametrize("p", GENERIC_POINTS)
def test_moments_match_oracle(p):
    closed = expectations(p)
    orc = oracle_expectations(oracle_states(p)[2])
    for name in ExpectationSet.field_names():
        c, o = getattr(closed, name), getattr(orc, name)
        assert abs(c - o) < max(1e-10, 1e-8 * abs(o)), name


def test_named_point_mean_field_against_oracle():
    closed = expectations(NAMED_POINT)
    orc = oracle_expectations(oracle_states(NAMED_POINT)[2])
    assert abs(closed.a - orc.a) < 1e-10


def test_hermiticity_residues():
    for p in GENERIC_POINTS:
        m = expectations(p)
        for name in ("adag_a", "bdag_b", "adaga_bdagb", "adag2a2"):
            assert abs(getattr(m, name).imag) < 1e-10
            assert getattr(m, name).real >= -1e-12


def _figure_columns():
    """The distinct sweep series of the figure presets as (base point, axis, axis column)."""
    keys = {(axis, G, al) for preset in _FIGURE_PRESETS.values() if len(preset) == 3
            for axis in preset[1:2] for G, al in preset[2]}
    return [(_point(G, al, math.pi / 2), axis, np.linspace(*_FIGURE_AXES[axis])) for axis, G, al in sorted(keys)]


def _figure_series():
    """The distinct sweep series of the figure presets, each as its points one at a time."""
    return [[replace(base, **{axis: v}) for v in values.tolist()] for base, axis, values in _figure_columns()]


def _bits(values):
    """A table column as the bit patterns of its numbers (a zero's sign too) and its (None, reason) entries."""
    numbers = np.array([0j if isinstance(v, tuple) else v for v in values], dtype=complex)
    return numbers.view(np.uint64).tolist(), {i: v for i, v in enumerate(values) if isinstance(v, tuple)}


@pytest.mark.simd
def test_closed_forms_over_a_series_keep_the_one_point_bits():
    # every table quantity, over a series and at one point, against the per-point closed forms
    # kept in tests/_reference.py.  The draw takes gamma = 0 at phi > pi, where g has a -0.0
    # imaginary part, Gamma = 0, alpha = 0, delta = pi/2 and Gamma up to 74.8; alpha <= 0.95 pi
    # keeps |w| <= 12.7.  The figure series keep their fixed parameters as scalars.
    rng = np.random.default_rng(2411)
    k = np.arange(600)
    drawn = [
        MeasurementParams(Gamma=G, alpha=al, delta=de, phi=ph, gamma=gam)
        for G, al, de, ph, gam in zip(
            np.concatenate([[0.0] * 50, rng.uniform(0, 2, 250), rng.uniform(0, 74.8, 300)]).tolist(),
            np.where(k % 7 == 0, 0.0, rng.uniform(0, 0.95 * math.pi, 600)).tolist(),
            np.where(k % 4 == 1, math.pi / 2, rng.uniform(0, 2 * math.pi, 600)).tolist(),
            np.where(k % 2, rng.uniform(math.pi, 2 * math.pi, 600), rng.uniform(0, 2 * math.pi, 600)).tolist(),
            np.where(k % 3 == 0, 0.0, rng.uniform(0, 10, 600)).tolist(),
        )
    ]
    assert any(p.gamma == 0 and p.phi > math.pi and p.Gamma > 0 for p in drawn)
    field_points = [p for preset in _FIGURE_PRESETS.values() if len(preset) == 2 for p in preset[1].values()]
    undefined = set()
    # each set of points, with the stride at which its points are also checked one at a time
    sets = [(validation_params(), 1), (drawn, 4), (field_points, 1), *((s, 0) for s in _figure_series())]
    for points, stride in sets:
        want = [scalar_closed_values(p) for p in points]  # Python floats and complexes
        series = ParamSeries.of(points)
        table = _ClosedPrimitives(series)  # closed_value's primitives, shared by the names
        for name in SCALAR_QUANTITIES:
            got = value(name, series, table)
            assert _bits(got) == _bits([w[name] for w in want]), name
            undefined.update(v[1].split(" ")[0] for v in got if isinstance(v, tuple))
        for p, w in list(zip(points, want))[::stride] if stride else ():
            table = _ClosedPrimitives(p)
            assert _bits([value(name, p, table) for name in w]) == _bits(list(w.values())), p
    assert undefined == {"cross-correlation", "non-postselected", "position"}  # all three reasons met


def _series_bits(series):
    """Every field of a ParamSeries: a column's type, dimensions and float64 bits, and the size."""
    return {name: (type(v), np.ndim(v), np.asarray(v, dtype=float).view(np.uint64).tolist()) if name != "size"
            else v for name, v in vars(series).items()}


@pytest.mark.simd
def test_weak_value_of_a_series_keeps_the_one_point_bits():
    # e^{i delta} tan(alpha/2) as measurement.weak_value makes it, per element of varying and constant columns
    alphas = [-0.0, 0.0, 1e-300, 0.3, 2.2, 8 * math.pi / 9, math.nextafter(math.pi, 0)]
    deltas = [-0.0, 0.0, 5e-324, 0.6, math.pi / 2, math.pi, 2 * math.pi]
    grid = [MeasurementParams(Gamma=0.0, alpha=a, delta=d) for a in alphas for d in deltas]
    rng = np.random.default_rng(5)  # a draw where numpy's array tan and complex products round apart
    drawn = [MeasurementParams(Gamma=0.0, alpha=a, delta=d)
             for a, d in zip(rng.uniform(0, math.pi, 2000).tolist(), rng.uniform(0, 2 * math.pi, 2000).tolist())]
    subsets = [grid, grid[::3], drawn, grid[:1],
               *([p for p in grid if p.alpha == a] for a in (-0.0, math.nextafter(math.pi, 0))),
               *([p for p in grid if p.delta == d] for d in (-0.0, 2 * math.pi))]
    for points in subsets:
        want = [weak_value(p.alpha, p.delta).value for p in points]
        series = ParamSeries.of(points)
        assert _bits(np.broadcast_to(_weak(series), series.size).tolist()) == _bits(want)
        assert _bits([_weak(p) for p in points]) == _bits(want)


@pytest.mark.simd
def test_series_along_an_axis_is_the_series_of_its_points():
    # the closed-form sweep's series, made from the axis column, against the series of its points:
    # a column whose elements all have the same bits is one Python float, so 0.0 and -0.0 stay apart
    cases = [*_figure_columns(),
             (MeasurementParams(Gamma=0.4, alpha=1.0), "Gamma", np.array([0.0, -0.0, 0.0])),
             (MeasurementParams(Gamma=0.4, alpha=1.0), "gamma", np.full(5, 0.7)),
             (MeasurementParams(Gamma=0.4, alpha=1.0, delta=-0.0), "phi", np.array([-0.0])),
             (MeasurementParams(Gamma=1, alpha=2, delta=3, phi=4, gamma=5, sigma=6), "alpha", np.linspace(0, 3, 7)),
             (MeasurementParams(Gamma=1, alpha=2, delta=3, phi=4, gamma=5, sigma=6), "delta", [0, 1, 2])]
    for base, axis, values in cases:
        points = [replace(base, **{axis: v}) for v in np.asarray(values).tolist()]
        got = ParamSeries.along(base, axis, values)
        assert _series_bits(got) == _series_bits(ParamSeries.of(points)), (base, axis)
        assert len(got) == got.size == len(points)
        bits = [np.array(list(vars(p).values()), dtype=float).view(np.uint64).tolist() for p in points]
        assert [np.array(list(vars(q).values())).view(np.uint64).tolist() for q in got] == bits  # its points, in order
    with pytest.raises(ValueError, match="at least one point"):
        ParamSeries.along(NAMED_POINT, "Gamma", [])


@pytest.mark.parametrize("axis, column", [
    ("alpha", [0.0, 2.0, 4.0, 3.0, 10.0, 1.0]),  # the first illegal value is no extreme
    ("alpha", [1.0, -5e-324, math.pi]),
    ("Gamma", [0.0, math.inf, math.nan, -1.0]),  # inf before nan, though np.min and np.max are nan
    ("gamma", [1.0, -math.inf, math.nan]),
    ("delta", [2 * math.pi, math.nextafter(2 * math.pi, 7.0)]),
    ("phi", [math.nan, 2 * math.pi]),
    ("sigma", [1.0, 0.0]),
])
def test_series_along_an_axis_names_the_first_refused_point(axis, column):
    with pytest.raises(ValueError) as first:
        for v in column:
            replace(NAMED_POINT, **{axis: v})
    with pytest.raises(ValueError) as got:
        ParamSeries.along(NAMED_POINT, axis, column)
    assert str(got.value) == str(first.value)


def test_scalar_quantities_do_not_depend_on_the_beam_waist():
    # sigma scales the coordinates only; chi's reasons quote variances in sigma, so definedness is compared
    rng = np.random.default_rng(7)
    k = np.arange(12)
    points = [
        MeasurementParams(Gamma=G, alpha=al, delta=de, phi=ph, gamma=gam)
        for G, al, de, ph, gam in zip(
            np.where(k % 5 == 0, 0.0, rng.uniform(0, 3, 12)).tolist(),
            rng.uniform(0, 0.95 * math.pi, 12).tolist(),
            rng.uniform(0, 2 * math.pi, 12).tolist(),
            rng.uniform(0, 2 * math.pi, 12).tolist(),
            np.where(k % 4 == 1, 0.0, rng.uniform(0, 3, 12)).tolist(),
        )
    ]
    engines = {
        "closedform": lambda p: {name: value(name, p, _ClosedPrimitives(p)) for name in SCALAR_QUANTITIES},
        "oracle": oracle_quantities,
    }
    undefined = set()
    for engine, quantities in engines.items():
        for p in points:
            want = quantities(p)
            undefined.update(name for name, v in want.items() if isinstance(v, tuple))
            for sigma in (0.3, 2.0, 5.0):
                got = quantities(replace(p, sigma=sigma))
                for name, w in want.items():
                    g = got[name]
                    assert isinstance(g, tuple) == isinstance(w, tuple), (engine, name, p, sigma)
                    if not isinstance(w, tuple):
                        assert abs(g - w) <= 1e-13 * abs(w), (engine, name, p, sigma, g, w)
    assert {"g2", "chi"} <= undefined


def test_published_moments_deviate_and_are_reported_upstream():
    # the published a-moment expressions carry transcription defects; the
    # exact default must match the oracle while the published variant drifts
    p = NAMED_POINT
    orc = oracle_expectations(oracle_states(p)[2])
    pub = published_scalars(p)
    exact = expectations(p)
    assert abs(exact.a - orc.a) < 1e-12
    assert abs(pub["moment:a"] - orc.a) > 1e-2
    assert abs(pub["moment:adag_a"].imag) > 1e-3  # published <a†a> is not even real here
    # the b-photon-number expression is sound, so that one agrees
    assert abs(pub["moment:bdag_b"] - orc.bdag_b) < 1e-12


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def test_squeezing_vacuum_zero():
    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=0.0)
    q1, q2 = squeezing(p)
    assert q1 == pytest.approx(0.0, abs=1e-14)
    assert q2 == pytest.approx(0.0, abs=1e-14)


def test_initial_state_not_squeezed_on_plotted_slices():
    # the no-initial-squeezing statement holds for phi in {0, pi/2}; at
    # generic phi the initial state shows mild Q2 squeezing, so the check
    # stays on the slices where the claim is made
    for gamma in (0.3, 1.0, 2.0):
        for phi in (0.0, math.pi / 2):
            p = MeasurementParams(Gamma=0.0, alpha=0.5, gamma=gamma, phi=phi)
            q1, q2 = squeezing(p)
            assert q1 >= -1e-12 and q2 >= -1e-12


def test_squeezing_golden_snapshot_and_oracle():
    q1, q2 = squeezing(NAMED_POINT)
    rec = oracle_quantities(NAMED_POINT)
    assert q1 == pytest.approx(rec["Q1"], abs=1e-10)
    assert q2 == pytest.approx(rec["Q2"], abs=1e-10)
    assert q1 == pytest.approx(0.0398004467064175, abs=1e-12)
    assert q2 == pytest.approx(0.1280888432830025, abs=1e-12)


def test_squeezing_bounds_and_uncertainty_product():
    for p in GENERIC_POINTS:
        q1, q2 = squeezing(p)
        assert q1 >= -0.25 - 1e-9 and q2 >= -0.25 - 1e-9
        assert (q1 + 0.25) * (q2 + 0.25) >= 1 / 16 - 1e-9


def test_published_q2_differs_from_variance_definition():
    p = NAMED_POINT
    q2_exact = squeezing(p)[1]
    q2_pub = published_scalars(p)["Q2"]
    assert abs(q2_pub - q2_exact) > 1e-3


# ---------------------------------------------------------------------------
# g2
# ---------------------------------------------------------------------------

def test_g2_zero_at_zero_coupling():
    p = MeasurementParams(Gamma=0.0, alpha=1.0, gamma=1.0)
    assert g2_cross(p) == 0.0


def test_g2_undefined_without_vortex_component():
    with pytest.raises(UndefinedCorrelationError):
        g2_cross(MeasurementParams(Gamma=1.0, alpha=1.0, gamma=0.0))


def test_g2_below_unity_and_approaching_one_with_weak_value():
    p = MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)
    val = g2_cross(p)
    assert 0 < val < 1
    assert val == pytest.approx(oracle_quantities(p)["g2"], abs=1e-10)
    small = g2_cross(MeasurementParams(Gamma=1.0, alpha=0.5, delta=0.0, phi=math.pi / 2, gamma=1.0))
    assert small < val  # larger weak value pushes g2 toward one


# ---------------------------------------------------------------------------
# SNR ratio
# ---------------------------------------------------------------------------

def test_chi_independent_of_shot_count():
    p = MeasurementParams(Gamma=0.2, alpha=2.0, delta=0.0, phi=math.pi / 2, gamma=1.0)
    chi_small = snr_ratio(p, 10)[0]
    chi_large = snr_ratio(p, 10**6)[0]
    assert chi_small == chi_large


def test_chi_exceeds_unity_for_large_weak_values():
    vals = []
    for alpha in np.linspace(0.1, 0.95 * math.pi, 25):
        p = MeasurementParams(Gamma=0.2, alpha=float(alpha), delta=0.0, phi=math.pi / 2, gamma=1.0)
        vals.append(snr_ratio(p, 100)[0])
    assert max(vals) > 1.0


def test_chi_degenerate_shift_errors():
    with pytest.raises(DegenerateShiftError):
        snr_ratio(MeasurementParams(Gamma=0.0, alpha=1.0, gamma=1.0), 10)
    with pytest.raises(DegenerateShiftError):
        snr_ratio(MeasurementParams(Gamma=0.5, alpha=0.0, gamma=1.0), 10)
    with pytest.raises(DegenerateShiftError):
        snr_ratio(MeasurementParams(Gamma=0.5, alpha=1.0, delta=math.pi / 2, gamma=1.0), 10)


def test_chi_variance_collapse_under_published_convention():
    # the published second-moment convention underestimates <X^2> and turns
    # the variance negative at large coupling with cos(phi) = 1
    p = MeasurementParams(Gamma=2.0, alpha=math.pi / 2, delta=0.0, phi=0.0, gamma=1.0)
    with pytest.raises(VarianceCollapseError):
        snr_ratio(p, 10)
    chi_op, _, _ = snr_ratio(p, 10, x2_convention="operator")
    assert math.isfinite(chi_op)


def test_chi_small_alpha_limit_matches_oracle():
    p = MeasurementParams(Gamma=0.2, alpha=1e-4, delta=0.0, phi=math.pi / 2, gamma=1.0)
    chi, rp, rn = snr_ratio(p, 10)
    rec = oracle_quantities(p)
    assert chi == pytest.approx(rec["chi"], abs=1e-9)
    assert math.isfinite(chi)


def test_chi_matches_oracle_where_defined():
    for p in GENERIC_POINTS:
        try:
            chi = snr_ratio(p, 7)[0]
        except (DegenerateShiftError, VarianceCollapseError):
            continue
        rec = oracle_quantities(p)
        assert chi == pytest.approx(rec["chi"], rel=1e-8)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_one_at_zero_coupling():
    p = MeasurementParams(Gamma=0.0, alpha=2.2, delta=0.2, phi=1.0, gamma=1.5)
    assert fidelity(p) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_decreases_with_coupling():
    base = dict(alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)
    f_weak = fidelity(MeasurementParams(Gamma=0.5, **base))
    f_strong = fidelity(MeasurementParams(Gamma=3.0, **base))
    assert f_strong < f_weak


def test_fidelity_matches_oracle_overlap():
    p = MeasurementParams(Gamma=0.5, alpha=math.pi / 2, delta=0.0, phi=math.pi / 2, gamma=1.0)
    assert fidelity(p) == pytest.approx(oracle_quantities(p)["fidelity"], abs=1e-10)
    for q in GENERIC_POINTS:
        assert fidelity(q) == pytest.approx(oracle_quantities(q)["fidelity"], abs=1e-10)
        assert -1e-9 <= fidelity(q) <= 1 + 1e-9


def test_published_fidelity_uses_full_coupling_integrals():
    p = MeasurementParams(Gamma=1.5, alpha=2.9, delta=math.pi / 2, phi=math.pi / 2, gamma=2.0)
    assert abs(published_scalars(p)["fidelity"] - fidelity(p)) > 1e-3


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

FIELD_GRID = GridSpec(-6.0, 6.0, -6.0, 6.0, 81, 81)


def test_intensity_matches_oracle_pointwise():
    for p in (
        MeasurementParams(Gamma=0.0, alpha=0.0, gamma=1.0, phi=0.0),
        MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, delta=0.0, phi=0.0, gamma=1.0),
        MeasurementParams(Gamma=0.7, alpha=2.2, delta=0.6, phi=0.9, gamma=1.3),
    ):
        closed = intensity_field(p, FIELD_GRID)
        orc = oracle_intensity(oracle_states(p)[2], FIELD_GRID)
        assert np.abs(closed.values - orc.values).max() < 1e-8


def test_published_intensity_shape_deviates():
    p = MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, delta=0.0, phi=0.0, gamma=1.0)
    pub = published_intensity(p, FIELD_GRID)
    orc = oracle_intensity(oracle_states(p)[2], FIELD_GRID)
    assert np.abs(pub.values - orc.values).max() > 1e-4


def test_gaussian_projected_intensity_is_double_gaussian():
    # gamma = 0, zero weak value: symmetric two-Gaussian profile along x
    p = MeasurementParams(Gamma=1.5, alpha=0.0, gamma=0.0)
    f = intensity_field(p, FIELD_GRID)
    vals = f.values
    assert np.abs(vals - vals[::-1, :]).max() < 1e-12  # even in x
    mid = FIELD_GRID.nx // 2
    cut = vals[:, FIELD_GRID.ny // 2]
    assert cut[mid] < cut.max()  # dip between the two displaced lobes


def test_projected_wavefunction_norm():
    p = MeasurementParams(Gamma=0.8, alpha=2.0, delta=0.0, phi=math.pi / 2, gamma=1.0)
    f = projected_wavefunction(p, GridSpec(-8, 8, -8, 8, 161, 161))
    from oampointer.fock import ScalarField

    dens = ScalarField(f.grid, np.abs(f.values) ** 2)
    assert dens.integral() == pytest.approx(1.0, abs=1e-8)


def test_wigner_matches_oracle_and_integrates_to_one():
    p = MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, delta=0.0, phi=0.0, gamma=1.0)
    closed = wigner_field(p, FIELD_GRID)
    orc = oracle_wigner(oracle_states(p)[2], FIELD_GRID)
    assert np.abs(closed.values - orc.values).max() < 1e-10
    fine = wigner_field(p, GridSpec(-6, 6, -6, 6, 241, 241))
    assert fine.integral() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("gamma_c", [38.0, 40.0, 60.0])
def test_wigner_matches_oracle_past_cross_term_underflow(gamma_c):
    # past Gamma ~ 37.7 exp(-Gamma^2/2) underflows while the split cross-term
    # exponent overflows; the grid holds the interference fringes, not the lobes
    p = MeasurementParams(Gamma=gamma_c, alpha=8 * math.pi / 9, delta=0.0, phi=math.pi / 2, gamma=1.0)
    grid = GridSpec(-13, 13, -5, 5, 27, 11)
    closed = wigner_field(p, grid).values
    assert np.abs(closed).max() > 0.1
    assert np.abs(closed - oracle_wigner(oracle_states(p)[2], grid).values).max() <= 1e-12


def test_wigner_negativity_golden_depth():
    p = MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, delta=0.0, phi=0.0, gamma=1.0)
    f = wigner_field(p, GridSpec(-6, 6, -6, 6, 121, 121))
    assert f.values.min() == pytest.approx(-0.4770614253, abs=1e-9)


def test_wigner_positive_for_initial_state():
    for gamma in (0.0, 1.0):
        p = MeasurementParams(Gamma=0.0, alpha=8 * math.pi / 9, gamma=gamma, phi=0.0)
        f = wigner_field(p, FIELD_GRID)
        assert f.values.min() >= -1e-9


def test_wigner_vacuum_peak():
    p = MeasurementParams(Gamma=0.0, alpha=0.0, gamma=0.0)
    f = wigner_field(p, GridSpec(-3, 3, -3, 3, 61, 61))
    assert f.values.max() == pytest.approx(2 / math.pi, abs=1e-12)


def _complex_wigner_assembly(params, grid):
    """The Wigner field assembled in complex arithmetic, cross + conj(cross), as it once was."""
    G, gam, phi = params.Gamma, params.gamma, params.phi
    u = 1 + gam**2
    w = weak_value(params.alpha, params.delta).value
    lam = lambda_norm(params)
    X = grid.xs()[:, None]
    P = grid.ys()[None, :]
    rt2 = math.sqrt(2.0)

    def w_branch(sign):
        return (1 / math.pi) * (
            2
            + 2 * gam * rt2 / u * ((2 * X + sign * G) * math.cos(phi) + 2 * P * math.sin(phi))
            + gam**2 / u * (4 * P**2 + (2 * X + sign * G) ** 2 - 2)
        ) * np.exp(-2 * P**2 - (2 * X + sign * G) ** 2 / 2)

    damp = math.exp(-(G**2) / 2)
    if damp >= sys.float_info.min:
        scale, phase = damp / math.pi, np.exp(-2 * X**2 - (2 * P - 1j * G) ** 2 / 2)
    else:
        scale, phase = 1 / math.pi, np.exp(-2 * X**2 - 2 * P**2 + 2j * P * G)
    w1 = scale * (
        2
        + 4 * gam * rt2 / u * (X * math.cos(phi) + P * math.sin(phi))
        + 2 * gam**2 / u * (2 * X**2 + 2 * P**2 - 1)
    ) * phase
    cross = (1 + np.conj(w)) * (1 - w) * w1
    return (lam**2 / 4) * (abs(1 - w) ** 2 * w_branch(+1) + abs(1 + w) ** 2 * w_branch(-1) + cross + np.conj(cross))


@pytest.mark.parametrize("Gamma", [0.0, 0.3, 1.0, 2.0, 40.0])
def test_wigner_real_assembly_is_the_complex_one_bit_for_bit(Gamma):
    # the fig5 point, and Gamma = 40 where the cross-term exponents are merged
    p = MeasurementParams(Gamma=Gamma, alpha=8 * math.pi / 9, delta=0.0, phi=0.0, gamma=1.0)
    grid = GridSpec(-24, 24, -6, 6, 241, 241) if Gamma > 2 else GridSpec(-6, 6, -6, 6, 241, 241)
    values = wigner_field(p, grid).values
    reference = _complex_wigner_assembly(p, grid)
    assert values.dtype == np.float64
    assert not reference.imag.any()
    assert values.tobytes() == reference.real.tobytes()
