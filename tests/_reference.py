"""Independent references the tests check the library against."""
import math

import numpy as np
from scipy.linalg import expm

from oampointer.closedform import (
    MOMENT_NAMES,
    DegenerateShiftError,
    UndefinedCorrelationError,
    VarianceCollapseError,
)
from oampointer.fock import TwoModeState
from oampointer.measurement import ExpectationSet, MeasurementParams, PostselectionError, weak_value
from oampointer.oracle import oracle_states

RT2 = math.sqrt(2.0)


def vacuum(na: int, nb: int = 2) -> TwoModeState:
    """|0, 0> in an (na, nb)-truncated space."""
    c = np.zeros((na, nb), dtype=complex)
    c[0, 0] = 1.0
    return TwoModeState(c)


def expm_displacement(alpha: complex, dim: int, cols: int | None = None) -> np.ndarray:
    """The leading cols columns of expm(alpha a_dag - conj(alpha) a) on a dim-level truncation.

    The scaled-and-squared matrix exponential of the truncated generator, the
    route QuTiP takes (Johansson, Nation & Nori, Comput. Phys. Commun. 184,
    1234 (2013)); it shares no code with the Laguerre rows of
    fock.displacement_matrix.  cols=None gives the whole matrix.
    """
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)[:, :cols]


def mirrored_expectations(params: MeasurementParams) -> ExpectationSet:
    """The eleven closed-form moments with each branch's (E, C) pair written out by hand.

    closedform.expectations as it was before one branch function served both
    ±Gamma/2 branches, each pair kept as it was so the rewrite is pinned bit for bit.
    """
    rt2 = math.sqrt(2.0)
    G, gam, phi = params.Gamma, params.gamma, params.phi
    u = 1 + gam**2
    g = gam * np.exp(1j * phi)
    dg = np.conj(g) - g
    E = math.exp(-(G**2) / 2)
    s = G / 2
    q = g / (rt2 * u)
    n = gam**2 / (2 * u)
    w = weak_value(params.alpha, params.delta).value
    wc = np.conj(w)
    tp2, tm2, cm, cp = abs(1 + w) ** 2, abs(1 - w) ** 2, (1 + wc) * (1 - w), (1 - wc) * (1 + w)
    i1 = scalar_i1(params)
    s1 = tp2 + tm2 + (cm * np.conj(i1) + cp * i1).real

    def asm(ep, em, cpv, cmv):
        return complex((tp2 * ep + tm2 * em + cm * cmv + cp * cpv) / s1)

    a = asm(
        q + s, q - s,
        E * (+G * (2 + 4 * gam**2 - G**2 * gam**2) + rt2 * G**2 * dg + 2 * rt2 * g) / (4 * u),
        E * (-G * (2 + 4 * gam**2 - G**2 * gam**2) + rt2 * G**2 * dg + 2 * rt2 * g) / (4 * u),
    )
    b = asm(
        1j * q, 1j * q,
        1j * E * (rt2 * g + G * gam**2) / (2 * u),
        1j * E * (rt2 * g - G * gam**2) / (2 * u),
    )
    a2 = asm(
        s**2 + 2 * s * q, s**2 - 2 * s * q,
        E * (-(G**4) * gam**2 + 6 * G**2 * gam**2 + 2 * G**2 + rt2 * G**3 * dg + 4 * rt2 * G * g) / (8 * u),
        E * (-(G**4) * gam**2 + 6 * G**2 * gam**2 + 2 * G**2 - rt2 * G**3 * dg - 4 * rt2 * G * g) / (8 * u),
    )
    adag_a = asm(
        s**2 + n + 2 * s * q.real, s**2 + n - 2 * s * q.real,
        E * (G**4 * gam**2 - 6 * G**2 * gam**2 - 2 * G**2 + 4 * gam**2 - (rt2 * G**3 - 2 * rt2 * G) * dg) / (8 * u),
        E * (G**4 * gam**2 - 6 * G**2 * gam**2 - 2 * G**2 + 4 * gam**2 + (rt2 * G**3 - 2 * rt2 * G) * dg) / (8 * u),
    )
    bdag_b = asm(n, n, E * n, E * n)
    adag_b = asm(
        1j * n + 1j * s * q, 1j * n - 1j * s * q,
        1j * E * (2 * gam**2 - G**2 * gam**2 - rt2 * G * g) / (4 * u),
        1j * E * (2 * gam**2 - G**2 * gam**2 + rt2 * G * g) / (4 * u),
    )
    ab = asm(
        1j * s * q, -1j * s * q,
        1j * E * (G**2 * gam**2 + rt2 * G * g) / (4 * u),
        1j * E * (G**2 * gam**2 - rt2 * G * g) / (4 * u),
    )
    adaga_bdagb = asm(s**2 * n, s**2 * n, -E * s**2 * n, -E * s**2 * n)
    adag2a2 = asm(
        s**4 + 4 * s**2 * n + 2 * s**3 * (q + np.conj(q)),
        s**4 + 4 * s**2 * n - 2 * s**3 * (q + np.conj(q)),
        E * (-(G**6) * gam**2 + 10 * G**4 * gam**2 + 2 * G**4 - 16 * G**2 * gam**2 + (rt2 * G**5 - 4 * rt2 * G**3) * dg) / (32 * u),
        E * (-(G**6) * gam**2 + 10 * G**4 * gam**2 + 2 * G**4 - 16 * G**2 * gam**2 - (rt2 * G**5 - 4 * rt2 * G**3) * dg) / (32 * u),
    )
    return ExpectationSet(
        a=a, b=b, a2=a2, b2=0j, adag_a=adag_a, bdag_b=bdag_b,
        adag_b=adag_b, ab=ab, adaga_bdagb=adaga_bdagb,
        adag2a2=adag2a2, bdag2b2=0j,
    )


# ---------------------------------------------------------------------------
# the closed-form quantity table one point at a time, as it was before the
# closed forms took whole series: each function as it stood then, so the
# series evaluation is pinned bit for bit
# ---------------------------------------------------------------------------

def scalar_i1(params: MeasurementParams, coupling: float | None = None) -> complex:
    x = params.Gamma if coupling is None else coupling
    u = 1 + params.gamma**2
    return complex(
        math.exp(-(x**2) / 2)
        * (1 - (1j * RT2 * x * params.gamma * math.sin(params.phi) + params.gamma**2 * x**2 / 2) / u)
    )


def scalar_lambda(params: MeasurementParams) -> float:
    w = weak_value(params.alpha, params.delta).value
    i1 = scalar_i1(params)
    aw2 = abs(w) ** 2
    bracket = 0.5 * (1 + aw2 + (1 - aw2) * i1.real) - w.imag * i1.imag
    if not bracket > 0:
        raise PostselectionError(f"normalization bracket {bracket:.3e} is not positive; postselection impossible")
    return 1.0 / math.sqrt(bracket)


def scalar_squeezing(m: ExpectationSet) -> tuple[float, float]:
    mean_a = m.a + m.b
    mean_a2 = m.a2 + 2 * m.ab + m.b2
    mean_ada = m.adag_a.real + m.bdag_b.real + 2 * m.adag_b.real
    q1 = 0.25 * (mean_ada + mean_a2.real) - 0.5 * mean_a.real**2
    q2 = 0.25 * (mean_ada - mean_a2.real) - 0.5 * mean_a.imag**2
    return float(q1), float(q2)


def scalar_g2(m: ExpectationSet) -> float:
    na, nb = m.adag_a.real, m.bdag_b.real
    if na <= 1e-12 or nb <= 1e-12:
        raise UndefinedCorrelationError(
            f"cross-correlation undefined: mean photon numbers ({na:.3e}, {nb:.3e})"
        )
    return float(m.adaga_bdagb.real / (na * nb))


def scalar_phi_moments(params: MeasurementParams):
    G, gam = params.Gamma, params.gamma
    u = 1 + gam**2
    q = gam * np.exp(1j * params.phi) / (RT2 * u)
    c = math.sin(params.alpha) * math.cos(params.delta)
    a = q + (G / 2) * c
    ada = gam**2 / (2 * u) + G**2 / 4 + G * c * q.real
    a2 = G**2 / 4 + G * c * q
    return complex(a), complex(ada), complex(a2)


def _x_moments(a, ada, a2, sigma, x2_convention):
    mean_x = 2 * sigma * a.real
    if x2_convention == "published":
        x2 = sigma**2 / 2 * (ada.real + a2.real + 2)
    else:
        x2 = sigma**2 * (2 * ada.real + 2 * a2.real + 1)
    return mean_x, x2


def scalar_chi(m_psi: ExpectationSet, phi_m, params: MeasurementParams, x2_convention: str) -> float:
    sigma = params.sigma
    q = params.gamma * np.exp(1j * params.phi) / (RT2 * (1 + params.gamma**2))
    x_initial = 2 * sigma * q.real
    x_psi, x2_psi = _x_moments(m_psi.a, m_psi.adag_a, m_psi.a2, sigma, x2_convention)
    x_phi, x2_phi = _x_moments(*phi_m, sigma, x2_convention)
    dx = x_psi - x_initial
    dxp = x_phi - x_initial
    if abs(dxp) < 1e-14:
        raise DegenerateShiftError(
            "non-postselected shift vanished (needs Gamma > 0, alpha > 0, cos(delta) != 0)"
        )
    var_psi = x2_psi - x_psi**2
    var_phi = x2_phi - x_phi**2
    if var_psi <= 0 or var_phi <= 0:
        raise VarianceCollapseError(
            f"position variance non-positive under the {x2_convention!r} convention "
            f"(postselected {var_psi:.3e}, non-postselected {var_phi:.3e})"
        )
    ps = weak_value(params.alpha, params.delta).ps
    rp = math.sqrt(1 * ps) * abs(dx) / math.sqrt(var_psi)
    rn = math.sqrt(1) * abs(dxp) / math.sqrt(var_phi)
    return rp / rn


def scalar_fidelity(params: MeasurementParams, lam: float) -> float:
    w = weak_value(params.alpha, params.delta).value
    i1 = scalar_i1(params, coupling=params.Gamma / 2)
    return float(abs(lam / 2 * ((1 + w) * i1 + (1 - w) * np.conj(i1))) ** 2)


def scalar_closed_values(params: MeasurementParams) -> dict:
    """Every quantity-table name's closed form at one point as a Python float or complex,
    (None, reason) where it is undefined."""
    m = mirrored_expectations(params)
    i1, lam, phi_m = scalar_i1(params), scalar_lambda(params), scalar_phi_moments(params)

    def value_or_reason(fn, *args):
        try:
            return fn(*args)
        except (UndefinedCorrelationError, DegenerateShiftError, VarianceCollapseError) as exc:
            return None, str(exc)

    q1, q2 = scalar_squeezing(m)
    values = {
        "lambda": lam,
        "I1": i1,
        "I2": np.conj(i1),
        **{key: getattr(m, name) for key, name in MOMENT_NAMES.items()},
        "Q1": q1,
        "Q2": q2,
        "fidelity": scalar_fidelity(params, lam),
        "g2": value_or_reason(scalar_g2, m),
        "chi": value_or_reason(scalar_chi, m, phi_m, params, "published"),
        "chi[x2=operator]": value_or_reason(scalar_chi, m, phi_m, params, "operator"),
    }
    return {name: v if isinstance(v, tuple) else complex(v) if isinstance(v, complex) else float(v)
            for name, v in values.items()}


# ---------------------------------------------------------------------------
# the table's derivations from operators on the oracle's state vectors: Q1, Q2,
# g2 and chi are taken from ladder matrices applied to the states, not from the
# moment formulas of closedform that both engines share
# ---------------------------------------------------------------------------

def _lowering(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def operator_quantities(params: MeasurementParams) -> dict:
    """Q1, Q2, g2, chi and chi[x2=operator] of oracle_states(params), (None, reason) where undefined.

    Each state's coefficients get two empty levels in both modes, so a raising
    operator keeps every amplitude: the b mode is stored with two levels, where
    b† would drop |1>_b -> |2>_b.  With A = a + b, F1 = (A + A†)/2^{3/2},
    F2 = (A - A†)/(2^{3/2} i) and X = sigma (a + a†) on normalized states:
    - Q_i = ||F_i psi||^2 - <F_i>^2 - 1/4;
    - g2 = ||a b psi||^2 / (||a psi||^2 ||b psi||^2);
    - chi = sqrt(Ps) |dx| / Dx over |dx'| / Dx', with dx the shift of <X> from
      its value on the initial pointer, primes on the branch mixture
      wp |D(s)psi_i><...| + wm |D(-s)psi_i><...|, and Ps = |<H|pre>|^2.  <X^2>
      is ||X psi||^2 for chi[x2=operator] and, for chi, the stated convention
      on moments sigma^2/2 (<a†a> + Re<a^2> + 2).
    """
    psi_i, joint, psi, _ = oracle_states(params)
    c, c_i, c_plus, c_minus = (np.pad(st.coeffs, ((0, 2), (0, 2)))
                               for st in (psi, psi_i, joint.branch_plus, joint.branch_minus))
    la, lb = _lowering(c.shape[0]), _lowering(c.shape[1])

    def a(v):
        return la @ v

    def b(v):
        return v @ lb.T

    def raised(v):  # (a† + b†) v
        return la.T @ v + v @ lb

    def norm2(v):
        return np.vdot(v, v).real

    out = {}
    lowered, up = a(c) + b(c), raised(c)
    for name, f in (("Q1", (lowered + up) / 2**1.5), ("Q2", (lowered - up) / (2**1.5 * 1j))):
        out[name] = norm2(f) - np.vdot(c, f).real ** 2 - 0.25
    n_a, n_b = norm2(a(c)), norm2(b(c))
    out["g2"] = ((None, "no photons in a mode") if n_a <= 1e-12 or n_b <= 1e-12
                 else norm2(a(b(c))) / (n_a * n_b))

    sigma = params.sigma
    pre = np.array([math.cos(params.alpha / 2), np.exp(1j * params.delta) * math.sin(params.alpha / 2)])
    ps = abs(np.vdot([1.0, 0.0], pre)) ** 2
    # the branch weights |<D|pre>|^2, |<A|pre>|^2, with |D>, |A> = (|H> ± |V>)/sqrt2
    wp, wm = abs(np.vdot([1.0, 1.0], pre)) ** 2 / 2, abs(np.vdot([1.0, -1.0], pre)) ** 2 / 2

    def x_moments(v, name):
        av = a(v)
        xv = sigma * (av + la.T @ v)
        if name == "chi":
            x2 = sigma**2 / 2 * (norm2(av) + np.vdot(v, a(av)).real + 2)
        else:
            x2 = norm2(xv)
        return np.vdot(v, xv).real, x2

    x_initial = x_moments(c_i, "chi")[0]
    for name in ("chi", "chi[x2=operator]"):
        x_psi, x2_psi = x_moments(c, name)
        (x_p, x2_p), (x_m, x2_m) = x_moments(c_plus, name), x_moments(c_minus, name)
        x_phi, x2_phi = wp * x_p + wm * x_m, wp * x2_p + wm * x2_m
        var_psi, var_phi = x2_psi - x_psi**2, x2_phi - x_phi**2
        if abs(x_phi - x_initial) < 1e-14:
            out[name] = (None, "no shift without postselection")
        elif var_psi <= 0 or var_phi <= 0:
            out[name] = (None, "non-positive position variance")
        else:
            rp = math.sqrt(ps) * abs(x_psi - x_initial) / math.sqrt(var_psi)
            out[name] = rp / (abs(x_phi - x_initial) / math.sqrt(var_phi))
    return out
