"""Postselected von Neumann measurement with Gaussian/vortex pointer superpositions.

A qubit couples to one spatial mode of a two-mode beam pointer, gets
postselected, and the surviving pointer state is analyzed: quadrature
squeezing, intensity profile, two-mode cross-correlation, phase-space
distribution, SNR gain, and fidelity.  Every analytic expression is backed by
an independent truncated-Fock-space oracle, and the two are compared by a
built-in validation command.
"""
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
