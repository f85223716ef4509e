"""Maximal intrinsic randomness of noisy quantum measurements.

Closed-form guessing probabilities for two-outcome qubit POVMs and noisy
projective measurements, the explicit adversarial decompositions that attain
them, a self-contained SDP solver with certified dual bounds, conditional
entropy quantities, and the shared-versus-single noise comparison.
"""

from .closed_form import (
    GuessReport,
    midpoint_lower_bound,
    pguess_star_certified,
    pguess_star_noisy_projective,
    pguess_star_qubit_two_outcome,
    two_outcome_upper_bound,
)
from .decompositions import (
    EPSILON_STAR,
    BlochWitness,
    Decomposition,
    JointDecomposition,
    bloch_decomposition_qubit,
    coarse_grain_eve_attack,
    inflate_qubit_decomposition,
    joint_noise_decomposition,
    permutation_symmetrize,
    sqrt_decomposition_qubit,
    sqrt_decomposition_qudit,
    symmetric_family_value,
    verify_decomposition,
)
from .entropy import (
    EveEnsemble,
    conditional_vn_entropy,
    eve_ensemble_from_decomposition,
    hmax_bound_noisy_projective,
    p_secr,
    state_side_comparison,
    vn_bound_noisy_projective,
)
from .linalg import (
    DomainError,
    SolverError,
    ValidationError,
    binary_entropy,
    fidelity,
    is_psd,
    matrix_sqrt,
    von_neumann_entropy,
)
from .noise_comparison import (
    NoiseCurvePoint,
    delta_to_epsilon,
    shared_noise_lower_bound,
    single_noise_curve,
    sweep_curves,
)
from .povm import (
    NoiseModel,
    Povm,
    PureState,
    born_probabilities,
    coarse_grain,
    depolarize,
    noisy_projective,
    two_outcome_qubit,
    unbiased_state,
)
from .sdp import (
    DualCertificate,
    SolveResult,
    SolverConfig,
    build_dual_certificate_noisy_projective,
    complementary_slackness_residual,
    minimize_over_states,
    solve_primal,
    verify_dual_certificate,
)

__version__ = "0.1.0"
