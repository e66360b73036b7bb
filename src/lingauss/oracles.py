"""Reference samplers used to validate the main method.

Two independent routes to the same distributions:

* :func:`rejection_sample` — propose from the unrestricted normal, keep
  proposals satisfying every inequality exactly. Arbitrarily slow on tight
  regions but unarguably correct.
* :func:`conditional_direct_sample` — exact draws on the equality plane
  through a null-space parameterization (particular solution + orthonormal
  basis of ker C, conditional moments from the precision restricted to the
  plane). Deliberately built without the projection pipeline in
  :mod:`lingauss.transform`, so agreement between the two is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularEqualityGram
from .problem import ProblemSpec
from .transform import classify_equality_system

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class RejectionReport:
    """Outcome of an accept-reject run; zero acceptances is a valid report."""

    proposals: int
    accepted: int
    acceptance_rate: float
    samples: np.ndarray  # shape (accepted, n)


def rejection_sample(
    spec: ProblemSpec,
    proposals: int,
    rng: np.random.Generator,
    batch_size: int = 200_000,
) -> RejectionReport:
    """Propose x ~ N(mu, sigma), keep those with A x + b >= 0 exactly.

    Only valid for problems without equality constraints (a plane has zero
    hit probability). Proposals are processed in batches to bound memory.
    """
    if spec.p:
        raise ValueError("rejection sampling cannot hit equality constraints")
    if proposals < 1:
        raise ValueError("proposals must be positive")
    factor = spec.factor.factor
    kept = []
    remaining = proposals
    while remaining:
        batch = min(batch_size, remaining)
        draws = spec.mu + rng.standard_normal((batch, spec.n)) @ factor.T
        if spec.m:
            draws = draws[np.all(draws @ spec.A.T + spec.b >= 0.0, axis=1)]
        kept.append(draws)
        remaining -= batch
    samples = np.vstack(kept)
    accepted = samples.shape[0]
    return RejectionReport(proposals, accepted, accepted / proposals, samples)


def _plane_parameterization(C, d):
    """Particular solution and orthonormal null-space basis of C x + d = 0."""
    x0, *_ = np.linalg.lstsq(C, -d, rcond=None)
    _, singular_values, vt = np.linalg.svd(C)
    rank = int(np.count_nonzero(singular_values > _RANK_TOL * singular_values[0]))
    basis = vt[rank:].T  # (n, n - rank), orthonormal columns spanning ker C
    return x0, basis


def conditional_direct_sample(
    spec: ProblemSpec,
    n_draws: int,
    rng: np.random.Generator,
    inequality_filter: tuple[np.ndarray, np.ndarray] | None = None,
) -> RejectionReport:
    """Exact draws of x ~ N(mu, sigma) conditioned on C x + d = 0.

    Writes x = x0 + U t with U an orthonormal basis of ker C; t is normal
    with precision U' sigma^+ U and mean solving that precision against
    U' sigma^+ (mu - x0), sigma^+ the pseudo-inverse from an eigendecomposition.
    A singular sigma keeps x - mu in range(sigma), so the eigenvectors of its
    null space join C as further equations first. With an (A, b)
    inequality_filter the draws are additionally accept-reject filtered on
    the plane, so the report's accepted count can be below n_draws.
    """
    if spec.p == 0:
        raise ValueError("conditional sampling needs at least one equality constraint")
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    classification = classify_equality_system(spec.C, spec.d)
    if classification.kind != "infinite":
        raise ValueError(
            f"equality system must have infinitely many solutions, got {classification.kind!r}"
        )
    C, d = spec.C, spec.d
    eigvals, eigvecs = np.linalg.eigh(spec.sigma)
    kept = eigvals > _RANK_TOL * eigvals[-1]
    null = eigvecs[:, ~kept]
    if null.size:  # x - mu stays in range(sigma)
        C = np.vstack([C, null.T])
        d = np.concatenate([d, -null.T @ spec.mu])
    x0, basis = _plane_parameterization(C, d)
    root = eigvecs[:, kept] / np.sqrt(eigvals[kept])  # root @ root.T = sigma^+

    def precision_apply(rhs):
        return root @ (root.T @ rhs)

    precision = basis.T @ precision_apply(basis)
    try:
        chol_precision = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise SingularEqualityGram("conditional precision on the plane is singular") from exc
    t_mean = np.linalg.solve(
        chol_precision.T,
        np.linalg.solve(chol_precision, basis.T @ precision_apply(spec.mu - x0)),
    )
    white = rng.standard_normal((n_draws, basis.shape[1]))
    t = t_mean + np.linalg.solve(chol_precision.T, white.T).T
    samples = x0 + t @ basis.T
    if inequality_filter is not None:
        A, b = inequality_filter
        samples = samples[np.all(samples @ np.asarray(A, float).T + b >= 0.0, axis=1)]
    accepted = samples.shape[0]
    return RejectionReport(n_draws, accepted, accepted / n_draws, samples)
