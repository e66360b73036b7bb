"""Sampling from a multivariate normal under linear constraints, rejection-free.

Draws x ~ N(mu, sigma) restricted to A x + b >= 0 and/or C x + d = 0.
Equalities are eliminated by conditioning onto the constraint plane;
inequalities are handled by elliptical slice sampling over the feasible arcs
of each proposal ellipse, so every chain step yields a sample. Infeasible and
point-mass constraint systems are detected and reported instead of sampled.
"""

from .errors import (
    CyclingGuardExceeded,
    DegenerateRegion,
    DegenerateSamples,
    EmptyArcSet,
    LinGaussError,
    NotPSD,
    NotSymmetric,
    NumericalBreakdown,
    ProblemFormatError,
    SingularEqualityGram,
)
from .feasibility import FeasibilityResult, find_feasible_point
from .fixtures import pentagon_problem, write_pentagon_files
from .linalg import CovarianceFactor, factor_covariance
from .oracles import RejectionReport, conditional_direct_sample, rejection_sample
from .problem import ProblemSpec, load_problem, problem_from_dict, problem_to_dict, save_problem
from .sampler import RunReport, SamplingOutcome, sample_constrained
from .simplex import LpSolution
from .stats import ComparisonReport, SampleStats, compare_stats, sample_stats
from .transform import (
    EqualityClass,
    TransformedProblem,
    build_transform,
    classify_equality_system,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "CovarianceFactor",
    "CyclingGuardExceeded",
    "DegenerateRegion",
    "DegenerateSamples",
    "EmptyArcSet",
    "EqualityClass",
    "FeasibilityResult",
    "LinGaussError",
    "LpSolution",
    "NotPSD",
    "NotSymmetric",
    "NumericalBreakdown",
    "ProblemFormatError",
    "ProblemSpec",
    "RejectionReport",
    "RunReport",
    "SampleStats",
    "SamplingOutcome",
    "SingularEqualityGram",
    "TransformedProblem",
    "build_transform",
    "classify_equality_system",
    "compare_stats",
    "conditional_direct_sample",
    "factor_covariance",
    "find_feasible_point",
    "load_problem",
    "pentagon_problem",
    "problem_from_dict",
    "problem_to_dict",
    "rejection_sample",
    "sample_constrained",
    "sample_stats",
    "save_problem",
    "write_pentagon_files",
]
