"""Independent references the tests check the library against."""
import numpy as np
from scipy.linalg import expm

from oampointer.fock import TwoModeState


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
