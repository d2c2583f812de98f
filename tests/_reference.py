"""Independent references the tests check the library against."""
import numpy as np
from scipy.linalg import expm


def expm_displacement(alpha: complex, dim: int, cols: int | None = None) -> np.ndarray:
    """The leading cols columns of expm(alpha a_dag - conj(alpha) a) on a dim-level truncation.

    The scaled-and-squared matrix exponential of the truncated generator, the
    route QuTiP takes (Johansson, Nation & Nori, Comput. Phys. Commun. 184,
    1234 (2013)); it shares no code with the Laguerre rows of
    fock.displacement_matrix.  cols=None gives the whole matrix.
    """
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)[:, :cols]
