"""Pseudorandom generators for functions of halfspaces under product distributions."""

__version__ = "0.1.0"

from .distributions import (
    DiscreteCoordinate,
    GaussianCoordinate,
    ProductDistribution,
    UniformIntervalCoordinate,
    UniformMultisetCoordinate,
    discretize_coordinate,
    moment_profile,
)
from .gf2 import GF2m, KWiseFamily
from .halfspace import CombinerSpec, DecisionTree, Halfspace, HalfspaceSystem
from .hashing import HashFamily, HashFunction, collision_stats, isolation_failure_prob
from .harness import EstimationReport, estimate_fooling_error, exact_expectation
from .mzgen import MZGenerator, MZParams, derive_params
from .regularity import TermNorms, critical_index, head_set_partition, is_delta_regular
from .robp import ROBP, check_monotone, halfspace_to_robp, nisan_generate, sandwich_monotone
from .sandwich_poly import (
    GeneralizedPolynomial,
    UnivariatePoly,
    build_upper_poly,
    dgjsv_poly,
    hybrid_product,
    kwise_fooling_check,
)
