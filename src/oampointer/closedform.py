"""Analytic expressions for every quantity of the postselected pointer state.

Each moment of |Psi> = (lam/2)[(1+w)D(s) + (1-w)D(-s)]|Psi_i>, s = Gamma/2,
is assembled exactly from one pair per branch v = ±1,

    <O> = [ |1+w|^2 E(+1)  +  |1-w|^2 E(-1)  +  (1+w*)(1-w) C(-1)  +  (1-w*)(1+w) C(+1) ] / S1

where E(v) is the displaced-branch expectation <O(a -> a + v s)> in the
initial state, C(v) the D(v Gamma)-weighted cross term, and S1 the same
combination for O = 1 (so normalization cancels identically).  Each moment's
E(v) and C(v) is written once, in H = v Gamma: the odd powers of H carry the
branch sign.  They were derived with computer algebra and verified against
brute-force matrix-exponential state vectors to machine precision.

Every scalar closed form takes one point (MeasurementParams) or a whole
series of points (ParamSeries, whose varying parameters are 1-D arrays)
through the same expressions, and each element of a series has the bits of
its one-point call.  That is a rounding recipe:

- +, -, a complex times or over a real, sqrt and conj round alike on arrays
  and scalars, so they run as array operations;
- numpy's array loops round exp, sin, cos, tan, ``**`` and abs of a complex
  differently from the scalar calls (their SIMD kernels), so ``_each`` and
  ``_pow`` take those per element through Python, and only where the
  operand varies;
- the array loop for a product of two complex numbers may fuse its
  multiply-adds, so ``_cmul`` writes it out, (ar br - ai bi, ar bi + ai br);
- numpy divides a complex by a real through the reciprocal,
  ((zr + zi 0) (1/d), ...), CPython's complex type by the real itself,
  ((zr + zi 0) / d, ...): the moments keep numpy's rounding, ``_i1`` spells
  out CPython's, as each was made one point at a time.

Over a series, an element at which the one-point call raises
UndefinedCorrelationError, DegenerateShiftError or VarianceCollapseError is
(None, reason), and that result a list; the undefined elements are kept out
of the arithmetic.  PostselectionError raises for the whole series, with the
message of its first offending point.

Every public function here gives the exact form.  Commonly quoted closed forms
carry transcription defects (some give complex values for Hermitian
observables); the last section keeps them verbatim for the validation report
alone, through ``published_scalars`` and ``published_intensity``.
``published_scalars`` keys its values by quantity-table name: the one table,
``oracle.SCALAR_QUANTITIES``, derives each quantity from an engine's five
primitives, and here the closed forms' are ``lambda_norm``, ``_i1``,
``fidelity``, ``expectations`` and ``phi_moments``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .fock import GridSpec, ScalarField, _grid_integral
from .measurement import ExpectationSet, MeasurementParams, PostselectionError, weak_value

__all__ = [
    "UndefinedCorrelationError",
    "DegenerateShiftError",
    "VarianceCollapseError",
    "FieldConsistencyError",
    "ParamSeries",
    "lambda_norm",
    "expectations",
    "squeezing",
    "g2_cross",
    "phi_moments",
    "snr_ratio",
    "fidelity",
    "projected_wavefunction",
    "intensity_field",
    "wigner_field",
    "published_scalars",
    "published_intensity",
]

_RT2 = math.sqrt(2.0)


class UndefinedCorrelationError(ValueError):
    """Cross-correlation requested while one mode has (numerically) no photons."""


class DegenerateShiftError(ValueError):
    """The non-postselected pointer shift vanishes, so the SNR ratio is undefined."""


class VarianceCollapseError(ValueError):
    """A position variance came out non-positive under the selected convention."""


class FieldConsistencyError(ValueError):
    """An intensity had no positive integral over its grid: the grid misses the beam."""


# quantity-table name of each moment, as compare and published_scalars report it
MOMENT_NAMES = {f"moment:{name}": name for name in ExpectationSet.field_names()}


# ---------------------------------------------------------------------------
# one point or a series of points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSeries:
    """The parameters of many points as columns, for one closed-form evaluation over all of them.

    A parameter that varies is a 1-D float array; one with the same bits at
    every point is that float, so what depends on it alone is worked out once.
    """

    Gamma: float | np.ndarray
    alpha: float | np.ndarray
    delta: float | np.ndarray
    phi: float | np.ndarray
    gamma: float | np.ndarray
    sigma: float | np.ndarray
    size: int

    @classmethod
    def of(cls, points) -> ParamSeries:
        """The series of a nonempty sequence of MeasurementParams, in its order."""
        points = list(points)
        if not points:
            raise ValueError("a parameter series needs at least one point")
        cols = {}
        for f in fields(MeasurementParams):
            col = np.array([getattr(p, f.name) for p in points], dtype=float)
            bits = col.view(np.uint64)
            cols[f.name] = float(col[0]) if (bits == bits[0]).all() else col
        return cls(**cols, size=len(points))


_ARRAY = np.ndarray  # a series' varying parameters and everything made from them


def _each(fn, x):
    """fn(x) at one point; over a series, fn per element of x, through Python."""
    if type(x) is not _ARRAY:
        return fn(x)
    return np.array([fn(t) for t in x.tolist()])


def _pow(x, k):
    """x ** k at one point; over a series, per element of x, through Python."""
    if type(x) is not _ARRAY:
        return x ** k
    return np.array([t ** k for t in x.tolist()])


def _complex(re, im):
    """re + i im with every bit of both parts, a complex or a complex array."""
    if not (type(re) is _ARRAY or type(im) is _ARRAY):
        return complex(re, im)
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cmul(x, y):
    """x * y, rounded as the scalar product (ar br - ai bi, ar bi + ai br) also over arrays."""
    if not (type(x) is _ARRAY or type(y) is _ARRAY):
        return x * y
    return _complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)


def _scalar(kind, x):
    """kind(x) at one point; a series' array as it is."""
    return x if type(x) is _ARRAY else kind(x)


def _undefined(bad, error, *values):
    """Where bad holds: at one point, raise error(*values); over a series, {element: reason}."""
    if type(bad) is not _ARRAY:
        if bad:
            raise error(*values)
        return {}
    return {i: str(error(*(v[i] if type(v) is _ARRAY else v for v in values)))
            for i in np.flatnonzero(bad).tolist()}


def _kept(x, bad):
    """x with 1 at the bad elements of a series, so that no arithmetic runs on them."""
    return np.where(bad, 1.0, x) if type(bad) is _ARRAY else x


def _listed(values, undefined):
    """A series' values as a list with (None, reason) at its undefined elements; one point's as a float."""
    if type(values) is not _ARRAY:
        return float(values)
    out = values.tolist()
    for i, reason in undefined.items():
        out[i] = (None, reason)
    return out


def _gauss(x):
    return math.exp(-(x**2) / 2)


def _cis(x):
    return np.exp(1j * x)


def _abs2(z):
    return abs(z) ** 2


def _weak(params):
    """The weak value e^{i delta} tan(alpha/2) of each point."""
    alpha, delta = params.alpha, params.delta
    if type(delta) is _ARRAY:
        alphas = np.broadcast_to(alpha, delta.shape).tolist()
        return np.array([weak_value(a, d).value for a, d in zip(alphas, delta.tolist())])
    return _each(lambda a: weak_value(a, delta).value, alpha)


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def _i1(params: MeasurementParams | ParamSeries, coupling=None):
    """<Psi_i|D(coupling)|Psi_i> for real coupling (defaults to Gamma).

    e^{-x^2/2} [1 - (i rt2 x gamma sin(phi) + gamma^2 x^2 / 2) / (1 + gamma^2)],
    each complex step in the real operations of CPython's complex type, which
    made the one-point value: z r = (zr r - zi 0, zr 0 + zi r),
    z + r = (zr + r, zi + 0), z / r = ((zr + zi 0) / r, (zi - zr 0) / r).
    """
    x = params.Gamma if coupling is None else coupling
    gam2 = _pow(params.gamma, 2)
    re, im = 0.0, 1.0  # 1j, times rt2 x gamma sin(phi) one factor at a time
    for r in (_RT2, x, params.gamma, _each(math.sin, params.phi)):
        re, im = re * r - im * 0.0, re * 0.0 + im * r
    re, im = re + gam2 * _pow(x, 2) / 2, im + 0.0
    u = 1 + gam2
    re, im = (re + im * 0.0) / u, (im - re * 0.0) / u
    re, im = 1 - re, 0.0 - im
    e = _each(_gauss, x)
    return _complex(e * re - 0.0 * im, e * im + 0.0 * re)


def _lambda_from_bracket(bracket):
    if type(bracket) is _ARRAY:
        for first in bracket[~(bracket > 0)][:1]:  # a series raises as its first offending point would
            _lambda_from_bracket(first)
    elif not bracket > 0:
        raise PostselectionError(f"normalization bracket {bracket:.3e} is not positive; postselection impossible")
    return 1.0 / _each(math.sqrt, bracket)


def lambda_norm(params: MeasurementParams | ParamSeries):
    """Normalization constant of the postselected pointer state.

    The bracket is (1/2)[1 + |w|^2 + (1-|w|^2)Re(I1) - 2 Im(w) Im(I1)].
    """
    w = _weak(params)
    i1 = _i1(params)
    aw2 = _each(_abs2, w)
    return _lambda_from_bracket(0.5 * (1 + aw2 + (1 - aw2) * i1.real) - w.imag * i1.imag)


# ---------------------------------------------------------------------------
# the eleven moments
# ---------------------------------------------------------------------------

def expectations(params: MeasurementParams | ParamSeries) -> ExpectationSet:
    """All eleven pointer moments of the postselected state (b2 and bdag2b2 are 0j)."""
    G = params.Gamma
    gam2 = _pow(params.gamma, 2)
    G2, G4, G6 = (_pow(G, k) for k in (2, 4, 6))
    u = 1 + gam2
    g = params.gamma * _each(_cis, params.phi)
    dg = np.conj(g) - g  # = -2i gamma sin(phi)
    E = _each(_gauss, G)
    q = g / (_RT2 * u)            # <a> of the initial pointer
    n = gam2 / (2 * u)            # <a†a> = <b†b> of the initial pointer
    w = _weak(params)
    wc = np.conj(w)
    tp2, tm2 = _each(_abs2, 1 + w), _each(_abs2, 1 - w)
    cm, cp = _cmul(1 + wc, 1 - w), _cmul(1 - wc, 1 + w)
    i1 = _i1(params)
    s1 = tp2 + tm2 + (_cmul(cm, np.conj(i1)) + _cmul(cp, i1)).real
    # the even-in-Gamma parts of the cross terms, once for both branches: each is a leading
    # (left-associated) partial sum or a whole factor there, so taking it out keeps the bits
    a_even = 2 + 4 * gam2 - G2 * gam2
    a2_even = -G4 * gam2 + 6 * G2 * gam2 + 2 * G2
    adag_a_even = G4 * gam2 - 6 * G2 * gam2 - 2 * G2 + 4 * gam2
    adag_b_even = 2 * gam2 - G2 * gam2
    adag2a2_even = -G6 * gam2 + 10 * G4 * gam2 + 2 * G4 - 16 * G2 * gam2

    def branch(v):
        """(E, C) of each moment but b2 and bdag2b2, on the D(v Gamma/2) branch.

        H = v Gamma stands where +-Gamma stood in hand-mirrored pairs; as (-G) X = -(G X) and
        x - y = x + (-y) exactly, both branches keep those pairs' bits.
        """
        H = v * G
        s = H / 2
        H3, H5 = _pow(H, 3), _pow(H, 5)
        s2, s3, s4 = (_pow(s, k) for k in (2, 3, 4))
        return (
            (q + s, E * (H * a_even + _RT2 * G2 * dg + 2 * _RT2 * g) / (4 * u)),
            (_cmul(1j, q), _cmul(1j * E, _RT2 * g + H * gam2) / (2 * u)),
            (s2 + 2 * s * q, E * (a2_even + _RT2 * H3 * dg + 4 * _RT2 * H * g) / (8 * u)),
            (s2 + n + 2 * s * q.real, E * (adag_a_even - (_RT2 * H3 - 2 * _RT2 * H) * dg) / (8 * u)),
            (n, E * n),
            (1j * n + _cmul(1j * s, q), _cmul(1j * E, adag_b_even - _RT2 * H * g) / (4 * u)),
            (_cmul(1j * s, q), _cmul(1j * E, G2 * gam2 + _RT2 * H * g) / (4 * u)),
            (s2 * n, -E * s2 * n),
            (s4 + 4 * s2 * n + 2 * s3 * (q + np.conj(q)),
             E * (adag2a2_even + (_RT2 * H5 - 4 * _RT2 * H3) * dg) / (32 * u)),
        )

    a, b, a2, adag_a, bdag_b, adag_b, ab, adaga_bdagb, adag2a2 = (
        _scalar(complex, (tp2 * ep + tm2 * em + _cmul(cm, cmv) + _cmul(cp, cpv)) / s1)
        for (ep, cpv), (em, cmv) in zip(branch(1.0), branch(-1.0))
    )
    return ExpectationSet(
        a=a, b=b, a2=a2, b2=0j, adag_a=adag_a, bdag_b=bdag_b,
        adag_b=adag_b, ab=ab, adaga_bdagb=adaga_bdagb,
        adag2a2=adag2a2, bdag2b2=0j,
    )


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def squeezing_from_moments(m: ExpectationSet):
    """Q1, Q2 from a moment record.

    Q_i = Var(F_i) - 1/4 with F1 = (A + A†)/2^{3/2}, F2 = (A - A†)/(2^{3/2} i),
    A = a + b.
    """
    mean_a = m.a + m.b
    mean_a2 = m.a2 + 2 * m.ab + m.b2
    mean_ada = m.adag_a.real + m.bdag_b.real + 2 * m.adag_b.real
    q1 = 0.25 * (mean_ada + mean_a2.real) - 0.5 * _pow(mean_a.real, 2)
    q2 = 0.25 * (mean_ada - mean_a2.real) - 0.5 * _pow(mean_a.imag, 2)
    return _scalar(float, q1), _scalar(float, q2)


def squeezing(params: MeasurementParams | ParamSeries):
    """Quadrature squeezing parameters (Q1, Q2) of the postselected state."""
    return squeezing_from_moments(expectations(params))


_G2_EPS = 1e-12


def _no_correlation(na, nb):
    return UndefinedCorrelationError(f"cross-correlation undefined: mean photon numbers ({na:.3e}, {nb:.3e})")


def g2_from_moments(m: ExpectationSet):
    na, nb = m.adag_a.real, m.bdag_b.real
    empty = (na <= _G2_EPS) | (nb <= _G2_EPS)
    undefined = _undefined(empty, _no_correlation, na, nb)
    return _listed(m.adaga_bdagb.real / _kept(na * nb, empty), undefined)


def g2_cross(params: MeasurementParams | ParamSeries):
    """Second-order cross-correlation <a†a b†b> / (<a†a><b†b>) of |Psi>."""
    return g2_from_moments(expectations(params))


def phi_moments(params: MeasurementParams | ParamSeries):
    """<a>, <a†a>, <a^2> of the pointer without postselection (system traced out).

    With q = <a>_i and c = sin(alpha) cos(delta),
        <a>   = q + (Gamma/2) c
        <a†a> = gamma^2/(2(1+gamma^2)) + Gamma^2/4 + Gamma c Re(q)
        <a^2> = Gamma^2/4 + Gamma c q
    """
    G, gam = params.Gamma, params.gamma
    gam2, G2 = _pow(gam, 2), _pow(G, 2)
    u = 1 + gam2
    q = gam * _each(_cis, params.phi) / (_RT2 * u)
    c = _each(math.sin, params.alpha) * _each(math.cos, params.delta)
    a = q + (G / 2) * c
    ada = gam2 / (2 * u) + G2 / 4 + G * c * q.real
    a2 = G2 / 4 + G * c * q
    return _scalar(complex, a), _scalar(complex, ada), _scalar(complex, a2)


def _x_moments(a, ada, a2, sigma, x2_convention: str):
    """<X> and <X^2> for X = sigma (a + a†): "operator" takes <X^2> of that operator; "published",
    sigma^2/2 (<a†a> + Re<a^2> + 2), is the quoted convention on moments, not an operator's square."""
    mean_x = 2 * sigma * a.real
    if x2_convention == "published":
        x2 = _pow(sigma, 2) / 2 * (ada.real + a2.real + 2)
    elif x2_convention == "operator":
        x2 = _pow(sigma, 2) * (2 * ada.real + 2 * a2.real + 1)
    else:
        raise ValueError(f"x2_convention must be 'published' or 'operator', got {x2_convention!r}")
    return mean_x, x2


def _no_shift():
    return DegenerateShiftError("non-postselected shift vanished (needs Gamma > 0, alpha > 0, cos(delta) != 0)")


def _collapse(x2_convention, var_psi, var_phi):
    return VarianceCollapseError(
        f"position variance non-positive under the {x2_convention!r} convention "
        f"(postselected {var_psi:.3e}, non-postselected {var_phi:.3e})"
    )


def _ps(alpha):
    return weak_value(alpha).ps


def snr_from_moments(
    m_psi: ExpectationSet,
    phi_m,
    params: MeasurementParams | ParamSeries,
    n_total: int,
    x2_convention: str = "published",
):
    """(chi, Rp, Rn) assembled from postselected and non-postselected moments."""
    if n_total < 1:
        raise ValueError("n_total must be a positive integer")
    sigma = params.sigma
    q = params.gamma * _each(_cis, params.phi) / (_RT2 * (1 + _pow(params.gamma, 2)))
    x_initial = 2 * sigma * q.real
    x_psi, x2_psi = _x_moments(m_psi.a, m_psi.adag_a, m_psi.a2, sigma, x2_convention)
    x_phi, x2_phi = _x_moments(*phi_m, sigma, x2_convention)
    dx = x_psi - x_initial
    dxp = x_phi - x_initial
    degenerate = abs(dxp) < 1e-14
    no_shift = _undefined(degenerate, _no_shift)
    var_psi = x2_psi - _pow(x_psi, 2)
    var_phi = x2_phi - _pow(x_phi, 2)
    collapsed = (var_psi <= 0) | (var_phi <= 0)
    # the shift is checked first: where both fail, its reason stands
    undefined = {**_undefined(collapsed, _collapse, x2_convention, var_psi, var_phi), **no_shift}
    bad = degenerate | collapsed
    ps = _each(_ps, params.alpha)
    rp = _each(math.sqrt, n_total * ps) * abs(dx) / _each(math.sqrt, _kept(var_psi, bad))
    rn = math.sqrt(n_total) * abs(dxp) / _each(math.sqrt, _kept(var_phi, bad))
    return _listed(rp / _kept(rn, bad), undefined), _listed(rp, undefined), _listed(rn, undefined)


def snr_ratio(
    params: MeasurementParams | ParamSeries,
    n_total: int,
    x2_convention: str = "published",
):
    """SNR ratio chi = Rp / Rn between postselected and plain measurements.

    Rp = sqrt(N Ps) |dx| / Dx on the postselected state, Rn the analogue on
    the traced-out state; N cancels in chi.  Ps is the bare overlap
    probability cos^2(alpha/2).
    """
    return snr_from_moments(expectations(params), phi_moments(params), params, n_total, x2_convention)


def _overlap_probability(params: MeasurementParams | ParamSeries, lam, i1):
    """|(lam/2)[(1+w) I + (1-w) I*]|^2 for the coupling integral I."""
    w = _weak(params)
    return _scalar(float, _each(_abs2, lam / 2 * (_cmul(1 + w, i1) + _cmul(1 - w, np.conj(i1)))))


def fidelity(params: MeasurementParams | ParamSeries):
    """|<Psi_i|Psi>|^2, from the half-coupling integrals <Psi_i|D(±Gamma/2)|Psi_i>."""
    return _overlap_probability(params, lambda_norm(params), _i1(params, coupling=params.Gamma / 2))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def projected_wavefunction(params: MeasurementParams, grid: GridSpec) -> ScalarField:
    """Exact closed-form Psi(x, y) of the postselected pointer.

    Each branch is the initial wavefunction rigidly shifted by
    ±c = ±Gamma sigma / sqrt2 in x:
        Psi = (lam/2) N sum_v t_v { [u0(x - v c) + (g/rt2) u1(x - v c)] u0(y)
                                    + i (g/rt2) u0(x - v c) u1(y) }.
    """
    sig = params.sigma
    g = params.gamma * np.exp(1j * params.phi)
    w = weak_value(params.alpha, params.delta).value
    lam = lambda_norm(params)
    c = params.Gamma * sig / _RT2
    nrm = 1 / math.sqrt(1 + params.gamma**2)
    xs, ys = grid.xs(), grid.ys()

    def u0(z):
        return (math.pi * sig**2) ** -0.25 * np.exp(-(z**2) / (2 * sig**2))

    def u1(z):
        return _RT2 * (z / sig) * u0(z)

    u0y = u0(ys)[None, :]
    u1y = u1(ys)[None, :]
    values = np.zeros((grid.nx, grid.ny), dtype=complex)
    for v, t in ((+1, 1 + w), (-1, 1 - w)):
        xv = (xs - v * c)[:, None]
        values += t * ((u0(xv) + g / _RT2 * u1(xv)) * u0y + 1j * g / _RT2 * u0(xv) * u1y)
    values *= lam / 2 * nrm
    return ScalarField(grid, values)


def _unit_intensity(grid: GridSpec, values: np.ndarray) -> ScalarField:
    """The intensity scaled to unit grid integral; FieldConsistencyError where that integral is <= 0."""
    total = _grid_integral(grid, values)
    if total <= 0:
        raise FieldConsistencyError(f"intensity integrated to {total:.3e} over the grid; the grid misses the beam")
    return ScalarField(grid, values / total)


def intensity_field(params: MeasurementParams, grid: GridSpec) -> ScalarField:
    """|Psi(x, y)|^2 on the grid, renormalized to unit grid integral."""
    return _unit_intensity(grid, np.abs(projected_wavefunction(params, grid).values) ** 2)


def wigner_field(params: MeasurementParams, grid: GridSpec) -> ScalarField:
    """Phase-space distribution of the a mode of |Psi> (b mode traced out).

    W = (lam^2/4) { |1-w|^2 W+ + |1+w|^2 W- + 2 Re[(1+w*)(1-w) W1] } with
    Gaussian branch terms W± centered at x = ∓Gamma/2 and the interference
    term W1 carrying the complex momentum shift.  The cross term enters as
    its real part added twice, so the field is real by construction.
    """
    G, gam, phi = params.Gamma, params.gamma, params.phi
    u = 1 + gam**2
    w = weak_value(params.alpha, params.delta).value
    lam = lambda_norm(params)
    X = grid.xs()[:, None]
    P = grid.ys()[None, :]

    def w_branch(sign):
        return (1 / math.pi) * (
            2
            + 2 * gam * _RT2 / u * ((2 * X + sign * G) * math.cos(phi) + 2 * P * math.sin(phi))
            + gam**2 / u * (4 * P**2 + (2 * X + sign * G) ** 2 - 2)
        ) * np.exp(-2 * P**2 - (2 * X + sign * G) ** 2 / 2)

    # the branches first, the cross term then added in place in the formula's order: a lower peak
    total = abs(1 - w) ** 2 * w_branch(+1) + abs(1 + w) ** 2 * w_branch(-1)
    damp = math.exp(-(G**2) / 2)
    if damp >= sys.float_info.min:  # the split form, as the figure bytes were made
        scale, phase = damp / math.pi, np.exp(-2 * X**2 - (2 * P - 1j * G) ** 2 / 2)
    else:  # damp underflows where the split exponent overflows: merged, the Gamma^2/2 cancel
        scale, phase = 1 / math.pi, np.exp(-2 * X**2 - 2 * P**2 + 2j * P * G)
    w1 = scale * (
        2
        + 4 * gam * _RT2 / u * (X * math.cos(phi) + P * math.sin(phi))
        + 2 * gam**2 / u * (2 * X**2 + 2 * P**2 - 1)
    ) * phase
    cross = ((1 + np.conj(w)) * (1 - w) * w1).real
    total += cross
    total += cross
    total *= lam**2 / 4
    return ScalarField(grid, total)


# ---------------------------------------------------------------------------
# published transcriptions: the closed forms as commonly quoted, defects and
# all, kept only for the residuals that compare reports as "published:*"
# ---------------------------------------------------------------------------

def _expectations_published(params: MeasurementParams, lam: float) -> ExpectationSet:
    """The published moment expressions, verbatim, with the published lambda lam.

    The helper terms I1 ... V_minus come first, each exactly as displayed;
    M1/M2 in particular do not reproduce the exact <a†²a²> cross terms.
    """
    G, gam, phi = params.Gamma, params.gamma, params.phi
    u = 1 + gam**2
    g = gam * np.exp(1j * phi)
    eG = math.exp(-(G**2) / 2)
    I1 = _i1(params)
    I2 = np.conj(I1)
    II = g * eG / (_RT2 * u)
    III_plus = eG / u * (gam**2 / 2 * (1 - G**2) + g / _RT2 * G)
    III_minus = eG / u * (gam**2 / 2 * (1 - G**2) - g / _RT2 * G)
    B_plus = (1j * gam * eG / u) * (gam / 2 * (1 - G**2) - np.exp(1j * phi) / _RT2 * G)
    B_minus = (-1j * gam * eG / u) * (gam / 2 * (1 - G**2) - np.exp(-1j * phi) / _RT2 * G)
    M_plus = G**2 * gam**2 / (2 * u) + G**3 * gam * math.cos(phi) / (2 * _RT2 * u) + G**4 / 16
    M_minus = G**2 * gam**2 / (2 * u) - G**3 * gam * math.cos(phi) / (2 * _RT2 * u) + G**4 / 16
    T_plus = g * G / u * (G / _RT2 - gam * np.exp(-1j * phi) * (1 - G**2 / 2)) * eG
    T_minus = g * G / u * (G / _RT2 + gam * np.exp(-1j * phi) * (1 - G**2 / 2)) * eG
    T = G**2 / u * (1 + gam**2 * (2 - G**2 / 2)) * eG
    IV1 = III_minus
    IV2 = III_plus
    V_plus = eG / (2 * u) * (
        G**2 * g + _RT2 * gam * np.exp(-1j * phi) * (1 - G**2) - 2 * G - G * gam**2 * (1 + (2 - G**2) / _RT2)
    )
    V_minus = eG / (2 * u) * (
        G**2 * g + _RT2 * gam * np.exp(-1j * phi) * (1 - G**2) + 2 * G + G * gam**2 * (1 + (2 - G**2) / _RT2)
    )
    M1 = G * T_plus + G**2 / 4 * (T + 4 * IV1) + G**3 / 4 * (V_plus + II) + G**4 * I1 / 16
    M2 = -G * T_minus + G**2 / 4 * (T + 4 * IV2) - G**3 / 4 * (V_minus + II) + G**4 * I2 / 16

    w = weak_value(params.alpha, params.delta).value
    wc = np.conj(w)
    aw2 = abs(w) ** 2
    lam2 = lam**2
    a = lam2 / 2 * ((1 + aw2) * g / (_RT2 * u) + (1 - aw2) * II + G * (1 - I2) * w.real)
    b = (lam2 * 1j * _RT2 * g / (4 * u)) * (1 + aw2 + (1 - aw2) * eG) \
        - 1j * lam2 * gam**2 * G / (2 * u) * w.imag * eG
    a2 = lam2 * G / 2 * ((_RT2 * g / u + 2 * II) * w.real + (1 + aw2) * G / 4) \
        + lam2 * G**2 / 16 * ((1 + wc) * (1 - w) * I2 + (1 - wc) * (1 + w) * I1)
    adag_a = lam2 / 2 * (1 + aw2) * (gam**2 / (2 * u) + G**2 / 4) \
        + 1j * lam2 * G * gam * math.cos(phi) / (2 * _RT2 * u) * w.imag \
        + lam2 / 4 * (1 + wc) * (1 - w) * III_plus + lam2 / 4 * (1 - aw2) * III_minus \
        + lam2 * G**2 / 16 * ((1 + wc) * (1 - w) * I2 + (1 - wc) * (1 + w) * I1) \
        + lam2 * G / 8 * ((1 - wc) * (1 + w) * (IV1 + II) - (1 + wc) * (1 - w) * (IV2 + II))
    bdag_b = lam2 / 4 * ((1 + aw2) * gam**2 / u + (1 - aw2) * gam**2 / u * eG)
    adag_b = lam2 / 4 * ((1 + aw2) * 1j * gam**2 / u
                         + w.imag * 1j * G * g / (_RT2 * u) * (1 + eG)
                         + (1 - aw2) * gam**2 * G**2 * eG / (2 * u)) \
        + lam2 / 4 * ((1 + wc) * (1 - w) * B_plus + (1 - wc) * (1 + w) * B_minus)
    ab = lam2 * gam * G / (8 * u) * (2 * _RT2 * 1j * np.exp(1j * phi) * (w.real + 1j * w.imag * eG)
                                     + (1 - aw2) * gam * G * eG)
    adaga_bdagb = lam2 * G**2 * gam**2 / (16 * u) * (1 + aw2 - (1 - aw2) * eG)
    adag2a2 = lam2 / 4 * ((1 - wc) * (1 - w) * M_minus + (1 + wc) * (1 + w) * M_plus
                          + (1 - wc) * (1 + w) * M1 + (1 + wc) * (1 - w) * M2)
    return ExpectationSet(
        a=complex(a), b=complex(b), a2=complex(a2), b2=0j,
        adag_a=complex(adag_a), bdag_b=complex(bdag_b), adag_b=complex(adag_b),
        ab=complex(ab), adaga_bdagb=complex(adaga_bdagb),
        adag2a2=complex(adag2a2), bdag2b2=0j,
    )


def published_scalars(params: MeasurementParams) -> dict:
    """lambda, the eleven moments, Q2 and the fidelity as published, keyed by quantity-table name.

    lambda drops the Im(w) Im(I1) term of the bracket, Q2 flips the sign of
    <ab + a†b†> and squares the wrong mean, the fidelity takes I1 at Gamma, not Gamma/2.
    """
    w = weak_value(params.alpha, params.delta).value
    aw2 = abs(w) ** 2
    lam = _lambda_from_bracket(0.5 * (1 + aw2 + (1 - aw2) * _i1(params).real))
    m = _expectations_published(params, lam)
    ada = m.adag_a.real + m.bdag_b.real + 2 * m.adag_b.real
    q2 = 0.25 * (ada + 2 * m.ab.real) - 0.25 * (m.a2.real + m.b2.real) + 0.5 * (m.a + m.b).real ** 2
    return {
        "lambda": lam,
        **{key: getattr(m, name) for key, name in MOMENT_NAMES.items()},
        "Q2": float(q2),
        "fidelity": _overlap_probability(params, lam, _i1(params)),
    }


def _published_wavefunction(params: MeasurementParams, grid: GridSpec) -> np.ndarray:
    """The published two-lobe expansion with its defective T/K factors (unnormalized)."""
    sig = params.sigma
    s = params.Gamma / 2
    g = params.gamma * np.exp(1j * params.phi)
    w = weak_value(params.alpha, params.delta).value
    X = grid.xs()[:, None]
    Y = grid.ys()[None, :]
    psi_y = (math.pi * sig**2) ** -0.25 * np.exp(-(Y**2) / (2 * sig**2))
    out = np.zeros((grid.nx, grid.ny), dtype=complex)
    for v, t in ((+1, 1 + w), (-1, 1 - w)):
        sv = v * s
        phi_s = (math.pi * sig**2) ** -0.25 * np.exp(-(sv**2) / 2) * np.exp(X**2 / (2 * sig**2)) \
            * np.exp(-((X / sig - sv / _RT2) ** 2))
        m_term = phi_s * psi_y
        t_term = g / _RT2 * (v * (1 - _RT2) * s + 2 * X / sig) * phi_s * psi_y
        k_term = 1j * _RT2 * Y / sig * g * phi_s * psi_y
        out += t * (m_term + t_term + k_term)
    return out / math.sqrt(1 + params.gamma**2)


def published_intensity(params: MeasurementParams, grid: GridSpec) -> ScalarField:
    """The published intensity at unit grid integral, which fixes the prefactor the expansion leaves open."""
    return _unit_intensity(grid, np.abs(_published_wavefunction(params, grid)) ** 2)
