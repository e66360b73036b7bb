import ast
from pathlib import Path

import lingauss

PUBLIC_NAMES = [
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
    "map_latent",
    "pentagon_problem",
    "problem_from_dict",
    "problem_to_dict",
    "rejection_sample",
    "sample_constrained",
    "sample_stats",
    "save_problem",
    "write_pentagon_files",
]


def test_public_surface_is_pinned():
    # adding or removing a public name has to show up as a diff here
    assert len(PUBLIC_NAMES) == 37
    assert sorted(lingauss.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(lingauss, name) is not None, name


def test_modules_import_no_private_name_from_a_sibling():
    # a private name stays inside its module; a sibling that needs it gets a public one
    package = Path(lingauss.__file__).parent
    crossings = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "lingauss"
            )
            if sibling:
                crossings += [
                    f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
                ]
    assert crossings == []
