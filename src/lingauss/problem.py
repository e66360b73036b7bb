"""Problem definition and JSON file I/O.

A problem is an n-dimensional normal N(mu, sigma) restricted to the region

    A @ x + b >= 0   (m inequality rows, optional)
    C @ x + d = 0    (p equality rows, optional)

Either constraint block may be absent; absent blocks are stored as 0-row
arrays so shapes stay well-defined everywhere downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ProblemFormatError
from .linalg import CovarianceFactor, factor_covariance


@dataclass
class ProblemSpec:
    """Validated constrained-normal problem. Treat instances as read-only.

    A/b and C/d must be supplied together or not at all; `None` blocks are
    normalized to empty (0, n) / (0,) arrays. Construction validates shapes,
    finiteness, row norms (a row of A or C whose norm overflows, or a
    nonzero row of A whose norm underflows to 0, is refused), and that sigma
    is symmetric positive semidefinite (raising NotSymmetric / NotPSD
    otherwise). The factor that check computes is kept as `factor`, so
    sigma is factored once per spec.
    """

    mu: np.ndarray
    sigma: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    C: np.ndarray | None = None
    d: np.ndarray | None = None
    factor: CovarianceFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        if self.mu.size == 0:
            raise ValueError("mu must have at least one entry")
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("mu entries must be finite")
        n = self.mu.size
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.sigma.shape != (n, n):
            raise ValueError(f"sigma must have shape {(n, n)}, got {self.sigma.shape}")
        self.factor = factor_covariance(self.sigma)  # symmetry / PSD gate
        self.A, self.b = _constraint_block("A", self.A, "b", self.b, n)
        self.C, self.d = _constraint_block("C", self.C, "d", self.d, n)

    @property
    def n(self) -> int:
        return self.mu.size

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]


def _constraint_block(mat_name, mat, vec_name, vec, n):
    if (mat is None) != (vec is None):
        raise ValueError(f"{mat_name} and {vec_name} must be given together")
    if mat is None:
        return np.zeros((0, n)), np.zeros(0)
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if mat.shape != (vec.size, n):
        raise ValueError(
            f"{mat_name} must have shape ({vec.size}, {n}) to match {vec_name}, got {mat.shape}"
        )
    if mat.size and not np.all(np.isfinite(mat)):
        raise ValueError(f"{mat_name} entries must be finite")
    if vec.size and not np.all(np.isfinite(vec)):
        raise ValueError(f"{vec_name} entries must be finite")
    # every row is divided by its norm downstream: a row whose norm
    # overflows is lost, and an inequality row whose norm underflows is
    # taken for a zero row (an equality row that small still solves)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    unusable = np.isinf(norms)
    if mat_name == "A":
        unusable |= (norms == 0.0) & mat.any(axis=1)
    if unusable.any():
        row = int(np.flatnonzero(unusable)[0])
        raise ValueError(
            f"the norm of row {row} of {mat_name} {'overflows' if norms[row] else 'underflows'}"
            " in floating point; rescale the row"
        )
    return mat, vec


def problem_from_dict(doc: dict) -> ProblemSpec:
    """Build a ProblemSpec from a parsed problem document."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    for key in ("n", "mu", "sigma"):
        if key not in doc:
            raise ProblemFormatError(f"missing required field '{key}'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:  # bool is an int
        raise ProblemFormatError("'n' must be a positive integer")
    known = {"n", "mu", "sigma", "A", "b", "C", "d"}
    extra = sorted(set(doc) - known)
    if extra:
        raise ProblemFormatError(f"unknown fields: {', '.join(extra)}")
    for mat_key, vec_key in (("A", "b"), ("C", "d")):
        if (mat_key in doc) != (vec_key in doc):
            raise ProblemFormatError(f"'{mat_key}' and '{vec_key}' must be given together")
    try:
        spec = ProblemSpec(
            mu=np.asarray(doc["mu"], dtype=float),
            sigma=np.asarray(doc["sigma"], dtype=float),
            A=None if "A" not in doc else np.asarray(doc["A"], dtype=float),
            b=None if "b" not in doc else np.asarray(doc["b"], dtype=float),
            C=None if "C" not in doc else np.asarray(doc["C"], dtype=float),
            d=None if "d" not in doc else np.asarray(doc["d"], dtype=float),
        )
    except (TypeError, ValueError) as exc:  # TypeError: an object where a number belongs
        raise ProblemFormatError(str(exc)) from exc
    if spec.n != n:
        raise ProblemFormatError(f"'n' is {n} but mu has {spec.n} entries")
    return spec


def problem_to_dict(spec: ProblemSpec) -> dict:
    doc = {"n": spec.n, "mu": spec.mu.tolist(), "sigma": spec.sigma.tolist()}
    if spec.m:
        doc["A"] = spec.A.tolist()
        doc["b"] = spec.b.tolist()
    if spec.p:
        doc["C"] = spec.C.tolist()
        doc["d"] = spec.d.tolist()
    return doc


def load_problem(path) -> ProblemSpec:
    """Read a problem JSON file. Raises ProblemFormatError on bad content."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON in {path}: {exc}") from exc
    return problem_from_dict(doc)


def save_problem(spec: ProblemSpec, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(spec), indent=2) + "\n")
