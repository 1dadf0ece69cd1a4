"""Relative branching laws for rank-one unitary families.

Exact parameter bookkeeping (half-integers, validity, characters), the
coupling predicates, period integrals in closed form and by quadrature, and
independent combinatorial and numerical oracles that cross-check the
closed-form claims at desk scale.
"""

from .branching import (
    ExhaustionReport,
    GPSumResult,
    InterlacingPattern,
    StagePair,
    StageParams,
    classify_interlacing,
    exhaustion_check,
    fj_label_to_a,
    fj_label_to_b,
    a_to_fj_label,
    b_to_fj_label,
    gp_sum_dim,
    hom_dim,
    pattern_characters,
    pi_minus_summands,
    stage1_enumerate,
    stage2_enumerate,
)
from .halfint import HalfInt
from .hepattern import SignSeq, allowed_adjacent, enumerate_alignments, u2n_case_report
from .jacobi import (
    JacobiPoly,
    connection_coeffs,
    jacobi_poly,
    jacobi_values,
    weighted_inner_product,
)
from .oracle import (
    GTBranchResult,
    compact_relative_mult,
    is_spherical,
    su2_spherical_coefficient,
    un_branch_mult,
)
from .periods import (
    FJFunction,
    SpaceFamily,
    complex_family,
    fj_eval,
    octonionic_family,
    period_integral_closed,
    period_integral_quadrature,
    period_nonvanishing,
    quaternionic_family,
    quaternionic_period_quadrature,
)
from .reps import (
    EPSILON_1,
    EPSILON_2,
    DiscreteSeriesParam,
    EpsilonCharacter,
    GroupLevel,
    HighestWeight,
    Side,
    Signature,
    a_zero,
    center_lift_check,
    epsilon_of,
    format_param,
    infinitesimal_character,
    make_param,
    minimal_k_type,
    parse_param,
)
from .specfun import (
    QuadratureResult,
    beta,
    log_gamma,
    radial_integral_closed,
    radial_integral_quadrature,
)

__version__ = "0.1.0"
