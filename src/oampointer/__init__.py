"""Postselected von Neumann measurement with Gaussian/vortex pointer superpositions.

A qubit couples to one spatial mode of a two-mode beam pointer, gets
postselected, and the surviving pointer state is analyzed: quadrature
squeezing, intensity profile, two-mode cross-correlation, phase-space
distribution, SNR gain, and fidelity.  Every analytic expression is backed by
an independent truncated-Fock-space oracle, and the two are compared by a
built-in validation command.
"""
import os

# OpenBLAS reads its thread count once, while numpy loads it, and by default starts a worker per
# core that spins for about 0.13 s of CPU though no product here is large enough to use it.  So
# numpy is loaded with one thread unless the caller chose a count, and the caller's environment is
# then restored exactly, for child processes and libraries loaded later.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .fock import (
    FieldConsistencyError,
    GridSpec,
    NormDriftWarning,
    ScalarField,
    TruncationWarning,
    TwoModeState,
    coordinate_wavefunction,
    default_cutoff,
    displacement_matrix,
    hermite_functions,
    inner,
)
from .measurement import (
    ExpectationSet,
    JointState,
    MeasurementParams,
    ParamSeries,
    PostselectionError,
    WeakValue,
    evolve_joint,
    initial_pointer,
    nonpostselected_moments,
    postselect,
    weak_value,
)
from .closedform import (
    DegenerateShiftError,
    UndefinedCorrelationError,
    VarianceCollapseError,
    expectations,
    fidelity,
    g2_cross,
    intensity_field,
    lambda_norm,
    phi_moments,
    projected_wavefunction,
    published_intensity,
    published_scalars,
    snr_ratio,
    squeezing,
    wigner_field,
)
from .oracle import oracle_expectations, oracle_intensity, oracle_states, oracle_wigner
from .validation import ReportEntry, ValidationReport, compare, oracle_quantities, validation_params

__version__ = "0.1.0"
