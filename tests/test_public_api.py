import ast
import importlib
import inspect
import re
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


def test_public_surface_is_pinned():
    # adding or removing a public name has to show up as a diff here
    assert len(PUBLIC_NAMES) == 35
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


def test_no_function_takes_a_tolerance_or_batch_size():
    # tolerances and batch sizes are module constants, not per-call knobs
    package = Path(lingauss.__file__).parent
    knobs = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"lingauss.{path.stem}")
        for name, value in vars(module).items():
            if not callable(value) or getattr(value, "__module__", None) != module.__name__:
                continue
            try:
                parameters = inspect.signature(value).parameters
            except ValueError:
                continue
            knobs += [
                f"{module.__name__}.{name}({p})" for p in parameters if p in ("tol", "batch_size")
            ]
    assert knobs == []


def test_readme_tolerance_table_names_every_tolerance():
    # every module-level *_TOL of the package is a row of README's table, at its value
    package = Path(lingauss.__file__).parent
    defined = {}
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"lingauss.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_TOL"):
                        defined[f"{path.stem}.{target.id}"] = getattr(module, target.id)
    readme = (package.parents[1] / "README.md").read_text()
    table = {
        name: float(value)
        for name, value in re.findall(r"^\| `(\w+\.\w+)` \| `([^`]+)` \|", readme, re.MULTILINE)
    }
    assert len(defined) >= 6
    assert table == defined
