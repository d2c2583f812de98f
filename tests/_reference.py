"""Independent references the tests check the library against."""
import math

import numpy as np
from scipy.linalg import expm

from oampointer.closedform import _i1
from oampointer.fock import TwoModeState
from oampointer.measurement import ExpectationSet, MeasurementParams, weak_value


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
    i1 = _i1(params)
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
