"""Fock-core: states, ladder algebra, displacement, coordinate projection."""
import math

import numpy as np
import pytest

from oampointer.fock import (
    GridSpec,
    NormDriftWarning,
    ScalarField,
    TwoModeState,
    _laguerre_rows,
    apply_ladder,
    coordinate_wavefunction,
    default_cutoff,
    displace_a,
    displacement_matrix,
    hermite_functions,
    inner,
    vacuum,
)


def random_state(na=40, nb=2, seed=0, decay=3.0):
    """Normalized random state with geometrically decaying a occupation."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(na, nb)) + 1j * rng.normal(size=(na, nb))
    c *= decay ** -np.arange(na)[:, None]
    return TwoModeState(c, 1.0).normalized()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_vacuum_definition():
    v = vacuum(4, 2, 1.0)
    assert v.coeffs[0, 0] == 1.0
    assert v.norm() == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(v.coeffs) == 1


def test_vacuum_single_level_boundary():
    v = vacuum(1, 2, 1.0)
    assert v.na == 1 and v.nb == 2


@pytest.mark.parametrize("na,nb,sigma", [(0, 2, 1.0), (3, 1, 1.0), (3, 2, 0.0), (3, 2, -1.0)])
def test_vacuum_rejects_bad_args(na, nb, sigma):
    with pytest.raises(ValueError):
        vacuum(na, nb, sigma)


def test_state_rejects_nonfinite():
    c = np.zeros((3, 2), dtype=complex)
    c[1, 1] = np.nan
    with pytest.raises(ValueError):
        TwoModeState(c)


def test_state_is_immutable():
    v = vacuum(3, 2)
    with pytest.raises(ValueError):
        v.coeffs[0, 0] = 2.0


def test_normalize_invariant():
    st = random_state(seed=3)
    assert abs(np.sum(np.abs(st.coeffs) ** 2) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_ladder_a_on_one_photon():
    st = vacuum(4, 2)
    one = apply_ladder(st, "a_dag")  # |1,0>
    back = apply_ladder(one, "a")
    assert back.coeffs[0, 0] == pytest.approx(1.0)


def test_ladder_a_annihilates_vacuum():
    st = vacuum(4, 2)
    assert apply_ladder(st, "a").norm() == 0.0
    assert apply_ladder(st, "b").norm() == 0.0


def test_number_operator_eigenvalue():
    c = np.zeros((5, 2), dtype=complex)
    c[3, 1] = 1.0  # |3,1>
    st = TwoModeState(c)
    na = apply_ladder(apply_ladder(st, "a"), "a_dag")
    assert np.allclose(na.coeffs, 3 * st.coeffs)
    nb = apply_ladder(apply_ladder(st, "b"), "b_dag")
    assert np.allclose(nb.coeffs, 1 * st.coeffs)


def test_ladder_commutator_on_contained_states():
    # <[a, a_dag]> = 1 when the top level is empty
    for seed in range(4):
        st = random_state(seed=seed, decay=4.0)
        assert st.top_level_occupation() < 1e-8
        up = apply_ladder(st, "a_dag")
        dn = apply_ladder(st, "a")
        comm = inner(up, up) - inner(dn, dn)  # <a a_dag> - <a_dag a>
        assert comm.real == pytest.approx(1.0, abs=1e-10)
        assert abs(comm.imag) < 1e-12


def test_ladder_rejects_unknown_name():
    with pytest.raises(ValueError):
        apply_ladder(vacuum(3, 2), "c")


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


def test_laguerre_rows_against_scipy():
    from scipy.special import eval_genlaguerre, gammaln

    xs = np.linspace(0.0, 9.0, 13)
    rows = list(_laguerre_rows(xs, 12))
    for m in (0, 1, 2, 5, 11):
        assert rows[m].shape == (12 - m, xs.size)
        for a in range(12 - m):
            pref = np.exp(0.5 * (gammaln(m + 1) - gammaln(m + a + 1)) - xs / 2) * xs ** (a / 2)
            ref = pref * eval_genlaguerre(m, a, xs)
            assert np.allclose(rows[m][a], ref, rtol=1e-12, atol=1e-12)


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
    ref = displacement_matrix(0.5, 16, method="series")[:, 1]
    assert np.abs(col - ref).max() < 1e-10


def test_overlaps_preconditions():
    with pytest.raises(ValueError):
        displacement_matrix(0.5, 0)
    with pytest.raises(ValueError):
        displacement_matrix(0.5, 3, method="taylor")


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
    v = vacuum(10, 2)
    out = displace_a(v, 0.0)
    assert np.allclose(out.coeffs, v.coeffs)


def test_displace_vacuum_gives_coherent_moments():
    v = vacuum(40, 2)
    st = displace_a(v, 1.0)
    av = apply_ladder(st, "a")
    assert inner(st, av) == pytest.approx(1.0, abs=1e-12)        # <a> = 1
    assert inner(av, av).real == pytest.approx(1.0, abs=1e-12)   # <a_dag a> = 1
    assert st.coeffs[:, 1] == pytest.approx(0.0)                 # b stays empty


@pytest.mark.parametrize("alpha,na", [(0.5, 40), (-1.2, 40), (0.3 + 0.4j, 40), (2.0, 64)])
def test_displace_methods_agree(alpha, na):
    # na follows the cutoff policy for the displacement size, so the tail
    # never reaches the truncation edge where the two methods must differ
    for seed in range(3):
        st = random_state(na=na, seed=seed)
        d1 = displace_a(st, alpha, "closed_form")
        d2 = displace_a(st, alpha, "series")
        assert np.abs(d1.coeffs - d2.coeffs).max() < 1e-10


@pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0, 1.0 + 1.0j])
def test_displace_unitarity(alpha):
    st = random_state(na=48, seed=9)
    out = displace_a(st, alpha)
    assert abs(out.norm() - 1.0) <= 1e-8


def test_displace_composition_roundtrip():
    st = random_state(na=45, seed=5)
    back = displace_a(displace_a(st, 0.8), -0.8)
    assert np.abs(back.coeffs - st.coeffs).max() < 1e-9


def test_displace_warns_on_cutoff_too_small():
    v = vacuum(4, 2)
    with pytest.warns(NormDriftWarning):
        displace_a(v, 2.5)


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------

def test_inner_examples():
    v = vacuum(4, 2)
    one = apply_ladder(v, "a_dag")
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
        inner(vacuum(4, 2), vacuum(5, 2))
    with pytest.raises(ValueError):
        inner(vacuum(4, 2), vacuum(4, 2, sigma=2.0))


# ---------------------------------------------------------------------------
# coordinate projection
# ---------------------------------------------------------------------------

def test_vacuum_wavefunction_value():
    grid = GridSpec(-4, 4, -4, 4, 81, 81)
    f = coordinate_wavefunction(vacuum(3, 2, 1.0), grid)
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
        dens = ScalarField(grid, np.abs(f.values) ** 2, kind="intensity")
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


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, -1, 0, 1, 5, 5)
    with pytest.raises(ValueError):
        GridSpec(-1, 1, 0, 1, 1, 5)


def test_default_cutoff_policy():
    assert default_cutoff(0.0) == 40
    assert default_cutoff(4.0) == max(40, math.ceil(8.0**2))
    assert default_cutoff(2.0) == 49
    # (Gamma/2)^2 = 1400 at Gamma = 74.83: no cutoff holds D(Gamma/2) past it
    assert default_cutoff(74.8) == math.ceil((37.4 + 6.0) ** 2)
    for gamma_max in (74.9, -80.0, 1e4, math.inf):
        with pytest.raises(ValueError, match="underflows"):
            default_cutoff(gamma_max)
