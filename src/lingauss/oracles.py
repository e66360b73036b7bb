"""Reference samplers used to validate the main method.

Two independent routes to the same distributions:

* :func:`rejection_sample` — propose from the unrestricted normal, keep
  proposals satisfying every inequality (to EQUALITY_TOL). Arbitrarily
  slow on tight regions but unarguably correct.
* :func:`conditional_direct_sample` — exact draws on the equality plane
  through a null-space parameterization (particular solution + orthonormal
  basis of the plane, conditional moments from the precision restricted to
  it). It shares with the package only the plane's classification (the
  orthonormal rows of `classify_equality_system` and the rank of sigma),
  not the projection in :mod:`lingauss.transform`, so agreement between the
  two is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularEqualityGram
from .problem import ProblemSpec
from .transform import EQUALITY_TOL, classify_equality_system

BATCH = 200_000  # proposals drawn at once by rejection_sample, to bound its memory


@dataclass(frozen=True)
class RejectionReport:
    """Outcome of an accept-reject run; zero acceptances is a valid report."""

    proposals: int
    accepted: int
    acceptance_rate: float
    samples: np.ndarray  # shape (accepted, n)


def rejection_sample(
    spec: ProblemSpec, proposals: int, rng: np.random.Generator
) -> RejectionReport:
    """Propose x ~ N(mu, sigma), keep those with A x + b >= 0.

    Only valid for problems without equality constraints (a plane has zero
    hit probability). Proposals are processed in batches of BATCH to bound
    memory. A proposal is mu + L_rank z with z ~ N(0, I_rank), L_rank the
    rank(sigma) columns of the covariance factor that carry its mass, as in
    `build_transform`: the other columns hold only the roundoff of sigma's
    null space. A proposal keeps row i when A_i x + b_i >= -EQUALITY_TOL
    |A_i|, so that a row constant on range(sigma) holds there up to
    roundoff, which an exact test would turn into rejections at random.
    """
    if spec.p:
        raise ValueError("rejection sampling cannot hit equality constraints")
    if proposals < 1:
        raise ValueError("proposals must be positive")
    root = spec.factor.factor[:, spec.n - spec.factor.rank :]  # L_rank
    floor = spec.b + EQUALITY_TOL * np.linalg.norm(spec.A, axis=1)
    kept = []
    remaining = proposals
    while remaining:
        batch = min(BATCH, remaining)
        draws = spec.mu + rng.standard_normal((batch, root.shape[1])) @ root.T
        if spec.m:
            draws = draws[np.all(draws @ spec.A.T + floor >= 0.0, axis=1)]
        kept.append(draws)
        remaining -= batch
    samples = np.vstack(kept)
    accepted = samples.shape[0]
    return RejectionReport(proposals, accepted, accepted / proposals, samples)


def conditional_direct_sample(
    spec: ProblemSpec,
    n_draws: int,
    rng: np.random.Generator,
    inequality_filter: tuple[np.ndarray, np.ndarray] | None = None,
) -> RejectionReport:
    """Exact draws of x ~ N(mu, sigma) conditioned on C x + d = 0.

    Writes x = x0 + U t with U an orthonormal basis of the plane; t is
    normal with precision U' sigma^+ U and mean solving that precision
    against U' sigma^+ (mu - x0), sigma^+ the pseudo-inverse on the
    spec.factor.rank largest eigenvalues. A singular sigma keeps x - mu in
    range(sigma), so the eigenvectors of its null space join the
    classification's rows, and one SVD of the stacked rows gives x0 and U;
    rows that are dependent at EQUALITY_TOL raise SingularEqualityGram. With
    an (A, b) inequality_filter the draws are additionally accept-reject
    filtered on the plane, so the report's accepted count can be below
    n_draws. A draw keeps row i when A_i x + b_i >= -EQUALITY_TOL |A_i|:
    a row constant on the plane holds there up to roundoff, which an
    exact test would turn into rejections at random.
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
    eigvals, eigvecs = np.linalg.eigh(spec.sigma)
    null = spec.n - spec.factor.rank  # x - mu stays in range(sigma)
    rows = np.vstack([classification.rows, eigvecs[:, :null].T])
    offsets = np.concatenate([classification.offsets, -eigvecs[:, :null].T @ spec.mu])
    u, singular_values, vt = np.linalg.svd(rows)
    q = rows.shape[0]
    if q > spec.n or (q and singular_values[-1] <= EQUALITY_TOL * singular_values[0]):
        raise SingularEqualityGram("sigma carries no mass across some equality row")
    x0 = -vt[:q].T @ (u.T @ offsets / singular_values)
    basis = vt[q:].T  # (n, n - q), orthonormal columns spanning the plane's directions
    root = eigvecs[:, null:] / np.sqrt(eigvals[null:])  # root @ root.T = sigma^+
    whitened = root.T @ basis
    precision = whitened.T @ whitened
    try:
        chol_precision = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise SingularEqualityGram("conditional precision on the plane is singular") from exc
    t_mean = np.linalg.solve(
        chol_precision.T,
        np.linalg.solve(chol_precision, whitened.T @ (root.T @ (spec.mu - x0))),
    )
    white = rng.standard_normal((n_draws, basis.shape[1]))
    t = t_mean + np.linalg.solve(chol_precision.T, white.T).T
    samples = x0 + t @ basis.T
    if inequality_filter is not None:
        A = np.asarray(inequality_filter[0], float)
        floor = inequality_filter[1] + EQUALITY_TOL * np.linalg.norm(A, axis=1)
        samples = samples[np.all(samples @ A.T + floor >= 0.0, axis=1)]
    accepted = samples.shape[0]
    return RejectionReport(n_draws, accepted, accepted / n_draws, samples)
