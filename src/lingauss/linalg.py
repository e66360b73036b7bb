"""Dense linear-algebra primitives: the covariance factor, unit rows, the
row blocks that bound the temporaries of a pass over many samples, and the
doubling blocks whose shapes do not depend on the length of the pass.

Everything downstream funnels its covariance handling through
:func:`factor_covariance`, so symmetry/positive-semidefiniteness policy
(including the eigenvalue clamp for marginally indefinite inputs) lives in
exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, NotSymmetric

DEFAULT_TOL = 1e-10
# Elements per row block (256 KB of doubles). Sized in elements, not rows, so
# that a narrow input, such as 200k samples of 4 coordinates, takes a few
# dozen blocks rather than thousands.
BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class CovarianceFactor:
    """A square root L of a covariance matrix, with L @ L.T == sigma.

    L is the Cholesky factor when sigma is positive definite, otherwise an
    eigendecomposition-based square root with tiny negative eigenvalues
    clamped to zero. `rank` counts the eigenvalues above tol times
    max|sigma|, relative to the scale of sigma alone, as the equality Gram
    test in `transform` is.
    """

    dimension: int
    factor: np.ndarray
    rank: int


def factor_covariance(sigma, tol: float = DEFAULT_TOL) -> CovarianceFactor:
    """Validate sigma and return a sampling factor for N(0, sigma).

    The tolerance is tol * max|sigma|, relative to the scale of sigma alone,
    as the rank rule is, so no verdict changes when sigma is rescaled.
    Asymmetry beyond it raises NotSymmetric; an eigenvalue below its
    negative raises NotPSD; eigenvalues between its negative and 0 are
    treated as exact zeros. A positive definite sigma has rank n; otherwise
    the rank counts eigenvalues above tol * max|sigma|.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got shape {sigma.shape}")
    if sigma.size and not np.all(np.isfinite(sigma)):
        raise ValueError("covariance entries must be finite")
    n = sigma.shape[0]
    atol = tol * float(np.abs(sigma).max(initial=0.0))
    if sigma.size:
        asym = float(np.abs(sigma - sigma.T).max())
        if asym > atol:
            raise NotSymmetric(f"max asymmetry {asym:.3e} exceeds tolerance {atol:.3e}")
    sym = 0.5 * (sigma + sigma.T)
    try:
        return CovarianceFactor(n, np.linalg.cholesky(sym), n)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(sym)
    lowest = float(eigvals.min(initial=0.0))
    if lowest < -atol:
        raise NotPSD(f"eigenvalue {lowest:.3e} below -{atol:.3e}")
    eigvals = np.clip(eigvals, 0.0, None)
    rank = int(np.count_nonzero(eigvals > tol * float(np.abs(sym).max())))
    return CovarianceFactor(n, eigvecs * np.sqrt(eigvals), rank)


def unit_rows(rows, rhs):
    """(rows, rhs) with each equation divided by the norm of its row, so that
    a residual measures a distance; zero rows are left as they are."""
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    return rows / norms[:, None], rhs / norms


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices over `rows` rows of `width` elements each, of at
    most about BLOCK_ELEMENTS elements a block.

    The blocks are as equal as the row count allows, the first the longest,
    so none is a short remainder: a BLAS product of one or a few rows can
    round differently from the product over many rows that it replaces.
    """
    count = min(max(1, -(-rows * width // BLOCK_ELEMENTS)), max(rows, 1))
    edges = [-(-rows * i // count) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


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
