"""Resonance dynamics of open quantum systems.

Biorthogonal spectral analysis of effective non-Hermitian Hamiltonians,
first-order parametric resonance shifts, the exact two-resonance model, and
Monte-Carlo plus analytic statistics of parametric width velocities in
weakly open chaotic systems.
"""

from .errors import (
    ExceptionalPointError,
    ExceptionalPointWarning,
    MatchingAmbiguityWarning,
    MatchingError,
    SmallDenominatorError,
    TruncationWarning,
)
from .perturbation import (
    InteriorPerturbation,
    ResonanceShift,
    finite_difference_velocities,
    first_order_shift,
    weak_coupling_width_velocity,
    width_shift_from_U,
)
from .spectral import (
    BiorthogonalSystem,
    EffectiveHamiltonian,
    NonorthogonalityMatrix,
    bell_steinberger,
    diagonalize,
    match_resonances,
)
from .statistics import (
    EnsembleConfig,
    FitReport,
    VelocitySampleSet,
    compare_histogram,
    large_m_limit_pf,
    phi_goe,
    phi_goe_cdf,
    phi_pf,
    phi_pf_cdf,
    picket_fence_spectrum,
    sample_couplings,
    sample_goe,
    sample_velocities_direct,
    sample_velocities_representation,
    substream,
    velocity_cdf,
    velocity_pdf,
)
from .twolevel import (
    MixingState,
    SweepResult,
    TwoLevelParams,
    closed_form_resonances,
    decay_vectors,
    energy_velocity,
    exceptional_point_distance,
    find_alpha_circ,
    find_alpha_star,
    mixing_state,
    sweep,
    two_level_U,
    two_level_hamiltonian,
    two_level_system,
    width_velocity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spectral
    "EffectiveHamiltonian",
    "BiorthogonalSystem",
    "NonorthogonalityMatrix",
    "diagonalize",
    "bell_steinberger",
    "match_resonances",
    # perturbation
    "InteriorPerturbation",
    "ResonanceShift",
    "first_order_shift",
    "width_shift_from_U",
    "weak_coupling_width_velocity",
    "finite_difference_velocities",
    # two-level model
    "TwoLevelParams",
    "MixingState",
    "SweepResult",
    "two_level_hamiltonian",
    "two_level_system",
    "decay_vectors",
    "closed_form_resonances",
    "mixing_state",
    "two_level_U",
    "width_velocity",
    "energy_velocity",
    "sweep",
    "find_alpha_star",
    "find_alpha_circ",
    "exceptional_point_distance",
    # statistics
    "EnsembleConfig",
    "VelocitySampleSet",
    "FitReport",
    "sample_goe",
    "picket_fence_spectrum",
    "sample_couplings",
    "phi_goe",
    "phi_pf",
    "phi_goe_cdf",
    "phi_pf_cdf",
    "velocity_pdf",
    "velocity_cdf",
    "large_m_limit_pf",
    "sample_velocities_representation",
    "sample_velocities_direct",
    "compare_histogram",
    "substream",
    # errors
    "ExceptionalPointError",
    "SmallDenominatorError",
    "MatchingError",
    "ExceptionalPointWarning",
    "MatchingAmbiguityWarning",
    "TruncationWarning",
]
