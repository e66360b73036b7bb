"""Dense linear-algebra primitives: the covariance factor, unit rows, and
the doubling blocks that bound the temporaries of a pass over many samples
with shapes that do not depend on the length of the pass.

Everything downstream funnels its covariance handling through
:func:`factor_covariance`, so symmetry/positive-semidefiniteness policy
(including the eigenvalue clamp for marginally indefinite inputs) lives in
exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, NotSymmetric

DEFAULT_TOL = 1e-10  # times max|sigma|: symmetry, PSD, rank and the equality Gram floor
# Elements per row block (256 KB of doubles). Sized in elements, not rows, so
# that a narrow input, such as 200k samples of 4 coordinates, takes a few
# dozen blocks rather than thousands.
BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class CovarianceFactor:
    """A square root L of a covariance matrix, with L @ L.T == sigma.

    L is the Cholesky factor when sigma is positive definite, otherwise an
    eigendecomposition-based square root with tiny negative eigenvalues
    clamped to zero. `rank` counts the eigenvalues above DEFAULT_TOL times
    max|sigma|, relative to the scale of sigma alone, as the equality Gram
    test in `transform` is.
    """

    factor: np.ndarray
    rank: int


def factor_covariance(sigma) -> CovarianceFactor:
    """Validate sigma and return a sampling factor for N(0, sigma).

    The tolerance is DEFAULT_TOL * max|sigma|, relative to the scale of
    sigma alone, as the rank rule is, so no verdict changes when sigma is
    rescaled. Asymmetry beyond it raises NotSymmetric; an eigenvalue below
    its negative raises NotPSD; eigenvalues between its negative and 0 are
    treated as exact zeros.

    The Cholesky factor is taken, with rank n, when its smallest pivot,
    squared, exceeds the tolerance; otherwise the rank counts eigenvalues
    above it. A pivot squared is at least the smallest eigenvalue, so a
    small pivot proves a small eigenvalue, which roundoff can hide from the
    factorisation itself (a rotated rank-deficient sigma). The test is
    one-sided: an ill-conditioned sigma can have large pivots and a tiny
    smallest eigenvalue, and is then taken as full rank.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got shape {sigma.shape}")
    if sigma.size and not np.all(np.isfinite(sigma)):
        raise ValueError("covariance entries must be finite")
    n = sigma.shape[0]
    atol = DEFAULT_TOL * float(np.abs(sigma).max(initial=0.0))
    if sigma.size:
        asym = float(np.abs(sigma - sigma.T).max())
        if asym > atol:
            raise NotSymmetric(f"max asymmetry {asym:.3e} exceeds tolerance {atol:.3e}")
    sym = 0.5 * (sigma + sigma.T)
    try:
        root = np.linalg.cholesky(sym)
        if root.diagonal().min(initial=np.inf) ** 2 > atol:
            return CovarianceFactor(root, n)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(sym)
    lowest = float(eigvals.min(initial=0.0))
    if lowest < -atol:
        raise NotPSD(f"eigenvalue {lowest:.3e} below -{atol:.3e}")
    eigvals = np.clip(eigvals, 0.0, None)
    rank = int(np.count_nonzero(eigvals > DEFAULT_TOL * float(np.abs(sym).max())))
    return CovarianceFactor(eigvecs * np.sqrt(eigvals), rank)


def unit_rows(rows, rhs):
    """(rows, rhs) with each equation divided by the norm of its row, so that
    a residual measures a distance; zero rows are left as they are."""
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    return rows / norms[:, None], rhs / norms


def doubling_blocks(count: int, cap: int):
    """(start, size) of consecutive blocks of 1, 2, 4, ... items, then of
    `cap` items each, until the blocks cover `count` items.

    A block's start and size depend on its position alone, not on `count`,
    so the blocks over n items are the first blocks over any larger count,
    and the last one may run past `count`. A pass that gives each block a
    product of its own shape rounds an item as any longer pass would.
    """
    start, size = 0, 1
    while start < count:
        size = min(size, cap)
        yield start, size
        start += size
        size *= 2
