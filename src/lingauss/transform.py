"""Latent-variable reformulation of the constrained problem.

Equality constraints are eliminated by conditioning: with

    E = sigma @ C.T @ (C @ sigma @ C.T)^-1
    F = I - E @ C
    g = F @ mu - E @ d

a latent draw y ~ N(0, sigma) maps to x = F @ y + g, which lands exactly on
the plane C x + d = 0 and has the right conditional law there. The
inequalities become H y + k >= 0 with H = A F and k = A g + b. Without
equalities the map degenerates to F = I, g = mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import SingularEqualityGram
from .linalg import unit_rows
from .problem import ProblemSpec

EQUALITY_TOL = 1e-8


@dataclass(frozen=True)
class EqualityClass:
    """Solution-set classification of C x + d = 0.

    kind: "no_solution" (inconsistent), "unique" (x holds the single
    solution), or "infinite" (a positive-dimensional solution plane).
    """

    kind: Literal["no_solution", "unique", "infinite"]
    x: np.ndarray | None = None


@dataclass(frozen=True)
class TransformedProblem:
    """Latent reformulation: sample y ~ N(0, sigma) s.t. H y + k >= 0, emit F y + g."""

    F: np.ndarray
    g: np.ndarray
    H: np.ndarray
    k: np.ndarray


def classify_equality_system(C, d, tol: float = EQUALITY_TOL) -> EqualityClass:
    """Classify C x + d = 0 from the rank of C and a least-squares residual.

    A zero row of C is inconsistent unless its d_i is 0, and is dropped then.
    The other equations are scaled to unit rows, so a residual is the
    distance from x to a hyperplane: the system is consistent when the
    least-squares x (on the numerical rank of C) lies within tol times
    max(1, largest hyperplane offset) of every hyperplane. With p = 0 rows
    every x qualifies, which counts as "infinite".
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    d = np.asarray(d, dtype=float).reshape(-1)
    p, n = C.shape
    if p != d.size:
        raise ValueError(f"C has {p} rows but d has {d.size} entries")
    zero = ~C.any(axis=1)
    if (d[zero] != 0.0).any():
        return EqualityClass("no_solution")
    if zero.all():
        return EqualityClass("infinite")
    C, d = unit_rows(C[~zero], d[~zero])
    x, _, rank_c, _ = np.linalg.lstsq(C, -d, rcond=tol)
    if np.abs(C @ x + d).max() > tol * max(1.0, float(np.abs(d).max())):
        return EqualityClass("no_solution")
    if rank_c == n:
        return EqualityClass("unique", x)
    return EqualityClass("infinite")


def _independent_rows(rows, tol) -> list[int]:
    """Indices of the rows that enlarge the span of the rows kept before them.

    One Gram-Schmidt pass in row order, with one reorthogonalisation: row i
    is kept when its residual against the kept rows has a norm above tol
    times the largest row norm among rows 0..i, and the normalised residual
    joins the orthonormal basis of the kept rows. Zero rows are never kept.
    """
    basis = np.empty_like(rows)  # orthonormal rows spanning the rows kept so far
    keep: list[int] = []
    scale = 0.0
    for i, row in enumerate(rows):
        scale = max(scale, float(np.linalg.norm(row)))
        kept = basis[: len(keep)]
        residual = row - (kept @ row) @ kept
        residual -= (kept @ residual) @ kept
        norm = float(np.linalg.norm(residual))
        if norm > tol * scale:
            basis[len(keep)] = residual / norm
            keep.append(i)
    return keep


def build_transform(
    spec: ProblemSpec, tol: float = EQUALITY_TOL, *, equality: EqualityClass | None = None
) -> TransformedProblem:
    """Build the latent map for a problem whose equality system (if any) has
    infinitely many solutions.

    equality is the classification of (C, d) when the caller has already
    made it (with the same tol); without it the system is classified here.

    Redundant equality rows are dropped before forming the Gram matrix
    C sigma C.T; if the Gram matrix is still singular, the covariance carries
    no mass across some constraint direction and SingularEqualityGram is
    raised. The system is consistent, so redundancy is judged on the rows of C
    alone, each scaled to unit norm. E is computed through a
    factorization-based solve, never an explicit inverse.
    """
    n = spec.n
    if spec.p == 0:
        return TransformedProblem(
            F=np.eye(n),
            g=spec.mu.copy(),
            H=spec.A.copy(),
            k=spec.A @ spec.mu + spec.b,
        )
    if equality is None:
        equality = classify_equality_system(spec.C, spec.d, tol)
    if equality.kind != "infinite":
        raise ValueError(
            "build_transform needs an equality system with infinitely many "
            f"solutions, got {equality.kind!r}"
        )
    keep = _independent_rows(unit_rows(spec.C, spec.d)[0], tol)
    C_kept, d_kept = spec.C[keep], spec.d[keep]
    gram = C_kept @ spec.sigma @ C_kept.T
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularEqualityGram(
            "C sigma C.T is singular after dropping redundant equality rows"
        ) from exc
    rhs = C_kept @ spec.sigma  # (p', n); E = (gram^-1 @ rhs).T
    E = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs)).T
    F = np.eye(n) - E @ C_kept
    g = F @ spec.mu - E @ d_kept
    H = spec.A @ F
    k = spec.A @ g + spec.b
    return TransformedProblem(F=F, g=g, H=H, k=k)


def map_latent(transformed: TransformedProblem, y) -> np.ndarray:
    """x = F y + g. A 2-D input is treated as one latent vector per row."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return transformed.F @ y + transformed.g
    return y @ transformed.F.T + transformed.g
