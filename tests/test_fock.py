"""Fock-core: states, ladder algebra, displacement, coordinate projection."""
import math
import tracemalloc

import numpy as np
import pytest

from _reference import expm_displacement, lockstep_laguerre_rows, vacuum
from oampointer import fock
from oampointer.fock import (
    GridSpec,
    NormDriftWarning,
    ScalarField,
    TwoModeState,
    _laguerre_rows,
    _lower_a,
    _lower_b,
    coordinate_wavefunction,
    default_cutoff,
    displacement_matrix,
    hermite_functions,
    inner,
)
from oampointer.measurement import MeasurementParams, evolve_joint, initial_pointer


def random_state(na=40, nb=2, seed=0, decay=3.0):
    """Normalized random state with geometrically decaying a occupation."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(na, nb)) + 1j * rng.normal(size=(na, nb))
    c *= decay ** -np.arange(na)[:, None]
    return TwoModeState(c / np.linalg.norm(c), 1.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_vacuum_definition():
    v = vacuum(4)
    assert v.coeffs[0, 0] == 1.0
    assert v.norm() == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(v.coeffs) == 1


def test_vacuum_single_level_boundary():
    v = vacuum(1)
    assert v.na == 1 and v.nb == 2


@pytest.mark.parametrize("na,nb,sigma", [(0, 2, 1.0), (3, 1, 1.0), (3, 2, 0.0), (3, 2, -1.0), (3, 2, math.inf)])
def test_vacuum_rejects_bad_args(na, nb, sigma):
    # TwoModeState refuses every (na, nb, sigma) that no vacuum can take
    with pytest.raises(ValueError):
        TwoModeState(np.zeros((na, nb)), sigma)


def test_state_rejects_nonfinite():
    c = np.zeros((3, 2), dtype=complex)
    c[1, 1] = np.nan
    with pytest.raises(ValueError):
        TwoModeState(c)


def test_state_is_immutable():
    v = vacuum(3)
    with pytest.raises(ValueError):
        v.coeffs[0, 0] = 2.0


def test_normalize_invariant():
    st = random_state(seed=3)
    assert abs(np.sum(np.abs(st.coeffs) ** 2) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_ladder_a_on_one_photon():
    c = np.zeros((4, 2), dtype=complex)
    c[1, 0] = 1.0  # |1,0>
    back = _lower_a(c)
    assert back[0, 0] == pytest.approx(1.0)
    assert np.count_nonzero(back) == 1


def test_ladder_a_annihilates_vacuum():
    c = vacuum(4).coeffs
    assert not _lower_a(c).any()
    assert not _lower_b(c).any()


def test_number_operator_eigenvalue():
    c = np.zeros((5, 2), dtype=complex)
    c[3, 1] = 1.0  # |3,1>
    av, bv = _lower_a(c), _lower_b(c)
    assert av[2, 1] == pytest.approx(math.sqrt(3)) and np.count_nonzero(av) == 1
    assert bv[3, 0] == pytest.approx(1.0) and np.count_nonzero(bv) == 1
    assert np.vdot(av, av).real == pytest.approx(3.0)  # <a†a>
    assert np.vdot(bv, bv).real == pytest.approx(1.0)  # <b†b>


# ---------------------------------------------------------------------------
# Laguerre rows and displaced-Fock overlaps (the columns of D(alpha))
# ---------------------------------------------------------------------------

def _laguerre_table_assembly(alpha, dim):
    """Reference: D(alpha) from one table L_m^(a)(|alpha|^2) and log-space
    magnitudes on a meshgrid, the assembly displacement_matrix used before
    the row kernel (fine up to about dim 450 at |alpha| = 15)."""
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    a = np.arange(dim, dtype=float)
    lag = np.empty((dim, dim))
    lag[0] = 1.0
    if dim > 1:
        lag[1] = 1.0 + a - x
    for m in range(1, dim - 1):
        lag[m + 1] = ((2 * m + 1 + a - x) * lag[m] - (m + a) * lag[m - 1]) / (m + 1)
    k = np.arange(dim)
    half_logfact = 0.5 * np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim, dtype=float)))))
    rows, cols = np.meshgrid(k, k, indexing="ij")
    diff = rows - cols
    lower = diff >= 0
    if x > 0:
        mag = np.exp(-x / 2 + np.abs(diff) * (math.log(x) / 2) - np.abs(half_logfact[rows] - half_logfact[cols]))
    else:
        mag = np.where(diff == 0, 1.0, 0.0)
    unit_up = alpha / abs(alpha) if x > 0 else 1.0
    phase = np.where(lower, unit_up ** diff, (-np.conj(unit_up)) ** (-diff))
    lag_vals = np.where(lower, lag[cols, np.abs(diff)], lag[rows, np.abs(diff)])
    return mag * phase * lag_vals


def _laguerre_table(x, K):
    """l[m][a] (an array over x) of one _laguerre_rows walk, each tile copied as it is yielded,
    since the walk reuses its buffers; checks that the groups tile the chains top down."""
    table, top = [[None] * (K - m) for m in range(K)], K
    for a0, a1, tiles in _laguerre_rows(x, K):
        assert a1 == top and 0 <= a0 < a1
        top = a0
        for m, tile in enumerate(tiles):
            assert tile.shape == (min(a1, K - m) - a0, x.size)
            for a, row in enumerate(tile.copy(), a0):
                table[m][a] = row
        assert m == K - 1 - a0
    assert top == 0
    return [np.array(rows) for rows in table]


def test_laguerre_rows_against_scipy(monkeypatch):
    from scipy.special import eval_genlaguerre, gammaln

    xs = np.linspace(0.0, 9.0, 13)
    # one group of every chain (G = K), then groups of 5 chains, which do not divide K = 12
    for tile in (fock._TILE, 5 * xs.size):
        monkeypatch.setattr(fock, "_TILE", tile)
        rows = _laguerre_table(xs, 12)
        for m in (0, 1, 2, 5, 11):
            assert rows[m].shape == (12 - m, xs.size)
            for a in range(12 - m):
                pref = np.exp(0.5 * (gammaln(m + 1) - gammaln(m + a + 1)) - xs / 2) * xs ** (a / 2)
                ref = pref * eval_genlaguerre(m, a, xs)
                assert np.allclose(rows[m][a], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.simd
@pytest.mark.parametrize("chains", [None, 1, 3, 5, 40])
def test_laguerre_rows_keep_the_lockstep_bits_whatever_the_grouping(monkeypatch, chains):
    # the origin, both sides of the underflow limit (K <= x/8 there) and radii past it
    x = np.concatenate(([0.0, 1e-300, 0.25], np.linspace(0.5, 60.0, 37), [1399.0, 1401.0, 5000.0]))
    K = 43
    if chains is not None:  # G = _TILE // len(x) chains per group
        monkeypatch.setattr(fock, "_TILE", chains * x.size)
    ref = list(lockstep_laguerre_rows(x, K))
    for m, rows in enumerate(_laguerre_table(x, K)):
        assert np.array_equal(rows.view(np.uint64), ref[m].view(np.uint64))


def test_overlaps_identity_displacement():
    col = displacement_matrix(0.0, 5)[:, 2]
    assert np.allclose(col, [0, 0, 1, 0, 0])


def test_overlaps_coherent_column():
    # n = 0 reduces to coherent-state amplitudes e^{-|a|^2/2} a^k / sqrt(k!)
    alpha = 0.5
    col = displacement_matrix(alpha, 8)[:, 0]
    ks = np.arange(8)
    ref = np.exp(-0.125) * alpha**ks / np.sqrt([math.factorial(k) for k in ks])
    assert np.allclose(col, ref, atol=1e-15)


def test_overlaps_match_matrix_exponential_column():
    # independent oracle: truncated matrix exponential of 0.5 (a_dag - a)
    col = displacement_matrix(0.5, 16)[:, 1]
    ref = expm_displacement(0.5, 16)[:, 1]
    assert np.abs(col - ref).max() < 1e-10


def test_overlaps_preconditions():
    with pytest.raises(ValueError):
        displacement_matrix(0.5, 0)
    for cols in (0, 4):
        with pytest.raises(ValueError, match="cols"):
            displacement_matrix(0.5, 3, cols=cols)


def test_displacement_matrix_column_block_is_leading_columns():
    dim = 30
    full = displacement_matrix(1.7 - 2.2j, dim)
    for cols in (1, 2, 7, dim):
        block = displacement_matrix(1.7 - 2.2j, dim, cols=cols)
        assert block.shape == (dim, cols)
        assert np.array_equal(block, full[:, :cols])


@pytest.mark.parametrize("s,dim,cols", [(0.65, 30, 2), (15.0, 441, 2), (37.0, 1849, 7)])
def test_displacement_matrix_real_alpha_takes_exact_signs(s, dim, cols):
    # D(-s) = P D(s) P with P = diag((-1)^n), the identity evolve_joint's minus branch relies on
    minus = displacement_matrix(-s, dim, cols=cols)
    assert not minus.imag.any()
    parity = (-1.0) ** np.arange(dim)
    assert np.array_equal(minus, parity[:, None] * displacement_matrix(s, dim, cols=cols) * parity[:cols])


def test_displacement_matrix_columns_equal_overlaps():
    for alpha, dim in ((0.5, 30), (-0.3 + 0.8j, 30), (1.7 - 2.2j, 30), (1.7 - 2.2j, 60), (15.0, 441)):
        d = displacement_matrix(alpha, dim)
        assert np.abs(d - _laguerre_table_assembly(alpha, dim)).max() < 1e-13


def test_displacement_matrix_high_order_is_finite_and_unitary():
    # the Laguerre table overflows at these orders; the normalized rows do not
    d = displacement_matrix(0.5, 1200)
    assert np.isfinite(d).all()
    block = d[:, :600]
    assert np.abs(block.conj().T @ block - np.eye(600)).max() < 1e-12


def test_displacement_matrix_states_its_underflow_limit():
    # e^{-|alpha|^2/2} underflows at |alpha|^2 = 1600 while the 676-level
    # truncation still reaches elements that are not negligible
    with pytest.raises(ValueError, match="underflows"):
        displacement_matrix(40.0, 676)


def test_displacement_matrix_unitary_in_contained_block():
    d = displacement_matrix(0.7 + 0.2j, 60)
    block = (d.conj().T @ d)[:20, :20]
    assert np.abs(block - np.eye(20)).max() < 1e-12


# ---------------------------------------------------------------------------
# displacement of states
# ---------------------------------------------------------------------------

def test_displace_identity():
    v = vacuum(10)
    out = displacement_matrix(0.0, v.na) @ v.coeffs
    assert np.allclose(out, v.coeffs)


def test_displace_vacuum_gives_coherent_moments():
    v = vacuum(40)
    c = displacement_matrix(1.0, v.na) @ v.coeffs
    av = _lower_a(c)
    assert np.vdot(c, av) == pytest.approx(1.0, abs=1e-12)        # <a> = 1
    assert np.vdot(av, av).real == pytest.approx(1.0, abs=1e-12)  # <a_dag a> = 1
    assert c[:, 1] == pytest.approx(0.0)                           # b stays empty


@pytest.mark.parametrize("alpha,na", [(0.5, 40), (-1.2, 40), (0.3 + 0.4j, 40), (2.0, 64)])
def test_displace_methods_agree(alpha, na):
    # na follows the cutoff policy for the displacement size, so the tail
    # never reaches the truncation edge where the two methods must differ
    for seed in range(3):
        st = random_state(na=na, seed=seed)
        d1 = displacement_matrix(alpha, na) @ st.coeffs
        d2 = expm_displacement(alpha, na) @ st.coeffs
        assert np.abs(d1 - d2).max() < 1e-10


@pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0, 1.0 + 1.0j])
def test_displace_unitarity(alpha):
    st = random_state(na=48, seed=9)
    out = displacement_matrix(alpha, st.na) @ st.coeffs
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-8


def test_displace_composition_roundtrip():
    st = random_state(na=45, seed=5)
    back = displacement_matrix(-0.8, st.na) @ (displacement_matrix(0.8, st.na) @ st.coeffs)
    assert np.abs(back - st.coeffs).max() < 1e-9


def test_displace_warns_on_cutoff_too_small():
    # gamma = 0: the pointer is the vacuum, displaced by +-2.5 on four levels
    p = MeasurementParams(Gamma=5.0, alpha=0.0, gamma=0.0)
    with pytest.warns(NormDriftWarning):
        evolve_joint(initial_pointer(p, 4), p)


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------

def test_inner_examples():
    v = vacuum(4)
    c = np.zeros((4, 2), dtype=complex)
    c[1, 0] = 1.0
    one = TwoModeState(c)
    assert inner(v, v) == pytest.approx(1.0)
    assert inner(v, one) == 0.0
    st = random_state(seed=2)
    self_ip = inner(st, st)
    assert self_ip.real >= 0 and abs(self_ip.imag) < 1e-15


def test_inner_conjugate_symmetry():
    u, v = random_state(seed=1), random_state(seed=2)
    assert inner(u, v) == pytest.approx(np.conj(inner(v, u)), abs=1e-15)


def test_inner_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        inner(vacuum(4), vacuum(5))
    with pytest.raises(ValueError):
        inner(vacuum(4), TwoModeState(vacuum(4).coeffs, sigma=2.0))


# ---------------------------------------------------------------------------
# coordinate projection
# ---------------------------------------------------------------------------

def test_vacuum_wavefunction_value():
    grid = GridSpec(-4, 4, -4, 4, 81, 81)
    f = coordinate_wavefunction(vacuum(3), grid)
    i0 = 40  # x = 0
    assert f.values[i0, i0].real == pytest.approx(math.pi**-0.5, abs=1e-12)
    xs = grid.xs()
    expect = math.pi**-0.5 * np.exp(-(xs**2) / 2) * math.exp(0.0)
    assert np.allclose(f.values[:, i0].real, expect, atol=1e-12)


def test_one_photon_wavefunction_parity_node():
    c = np.zeros((3, 2), dtype=complex)
    c[1, 0] = 1.0  # |1,0>
    st = TwoModeState(c)
    grid = GridSpec(-4, 4, -4, 4, 81, 81)
    f = coordinate_wavefunction(st, grid)
    assert np.abs(f.values[40, :]).max() < 1e-14  # x = 0 line vanishes


def test_coordinate_parseval():
    grid = GridSpec(-8, 8, -8, 8, 321, 321)
    for seed in range(3):
        st = random_state(na=12, seed=seed, decay=1.5)
        f = coordinate_wavefunction(st, grid)
        dens = ScalarField(grid, np.abs(f.values) ** 2)
        assert dens.integral() == pytest.approx(1.0, abs=1e-6)


def test_hermite_functions_orthonormal():
    xs = np.linspace(-10, 10, 2001)
    u = hermite_functions(xs, 8, sigma=1.3)
    gram = np.trapezoid(u[:, None, :] * u[None, :, :], xs, axis=-1)
    assert np.abs(gram - np.eye(8)).max() < 1e-10


@pytest.mark.parametrize("n,xi,ref", [
    # mpmath (60 digits): hermite(n, xi) e^{-xi^2/2} / sqrt(2^n n! sqrt(pi))
    (1295, 40.0, 0.085150360225982102267),
    (1295, 45.0, 0.15697651045809074358),
    (1000, 42.0, -0.13547314541220205098),
    (600, 39.0, 5.4978129573112693733e-24),
    (40, 1e10, 0.0),
    (40, 1e150, 0.0),
])
def test_hermite_functions_past_gaussian_underflow(n, xi, ref):
    # e^{-xi^2/2} alone is 0.0 in floating point at every one of these points
    u = hermite_functions(np.array([xi]), n + 1)[n, 0]
    assert abs(u - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("args, message", [
    (([0.0], 3, 0.0), "sigma must be positive and finite, got 0.0"),
    (([0.0], 3, -1.0), "sigma must be positive and finite, got -1.0"),
    (([0.0], 3, math.inf), "sigma must be positive and finite, got inf"),
    (([0.0, math.inf], 3), "pts must be finite, got inf"),
    (([0.0, math.nan], 3), "pts must be finite, got nan"),
    (([0.0], -1), "nmax must be >= 0, got -1"),
], ids=["sigma-zero", "sigma-negative", "sigma-inf", "point-inf", "point-nan", "nmax-negative"])
def test_hermite_functions_refuse_by_name(args, message):
    # not a ZeroDivisionError, a math domain error, all zeros, an inf or a nan row, or numpy's own message
    with pytest.raises(ValueError, match=f"^{message}$"):
        hermite_functions(np.array(args[0]), *args[1:])


@pytest.mark.parametrize("name", ["nx", "ny", "dim", "cols"])
def test_sizes_must_be_integers(name):
    # a float size is refused by name, not by numpy's TypeError; a numpy integer passes, as operator.index takes it
    sizes = dict(nx=3, ny=4, dim=6, cols=2)

    def build(**given):
        k = {**sizes, **given}
        return GridSpec(-1, 1, -1, 1, k["nx"], k["ny"]).xs(), displacement_matrix(0.5, k["dim"], k["cols"])

    want = build()
    got = build(**{name: np.int64(sizes[name])})
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {sizes[name] + 0.5}$"):
        build(**{name: sizes[name] + 0.5})


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, -1, 0, 1, 5, 5)
    with pytest.raises(ValueError):
        GridSpec(-1, 1, 0, 1, 1, 5)


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 1001), (1001, 1001), (241, 241), (23_000, 3), (3, 70_001)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_field_integral_is_the_whole_field_trapezoid_bit_for_bit(nx, ny, dtype):
    # integrated in blocks of rows: each row's sum is the one of np.trapezoid over the whole field
    rng = np.random.default_rng(nx * ny)
    values = rng.standard_normal((nx, ny)) + (1j * rng.standard_normal((nx, ny)) if dtype is complex else 0)
    grid = GridSpec(-3.0, 4.0, -2.0, 5.0, nx, ny)
    want = float(np.trapezoid(np.trapezoid(values.real, grid.ys(), axis=1), grid.xs()))
    assert ScalarField(grid, values).integral() == want


def test_field_integral_memory_is_bounded_by_a_block():
    # two temporaries of the whole field would take 15.3 MiB here
    field = ScalarField(GridSpec(-6.0, 6.0, -6.0, 6.0, 1001, 1001), np.ones((1001, 1001)))
    tracemalloc.start()
    try:
        field.integral()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x_min", "x_max", "y_min", "y_max"])
def test_grid_rejects_non_finite_bound(name, bad):
    bounds = dict(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0)
    bounds[name] = bad
    with pytest.raises(ValueError, match=f"grid bound {name} must be finite"):
        GridSpec(**bounds, nx=5, ny=5)


def test_default_cutoff_policy():
    assert default_cutoff(0.0) == 40
    assert default_cutoff(4.0) == max(40, math.ceil(8.0**2))
    assert default_cutoff(2.0) == 49
    # (Gamma/2)^2 = 1400 at Gamma = 74.83: no cutoff holds D(Gamma/2) past it
    assert default_cutoff(74.8) == math.ceil((37.4 + 6.0) ** 2)
    for gamma_max in (74.9, -80.0, 1e4, math.inf):
        with pytest.raises(ValueError, match="underflows"):
            default_cutoff(gamma_max)
