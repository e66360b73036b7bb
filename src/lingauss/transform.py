"""Latent-variable reformulation of the constrained problem.

Equality constraints are eliminated by conditioning. One SVD of the unit
rows of C classifies C x + d = 0 and, when its solutions form a plane,
rewrites it as V x + c = 0 with orthonormal rows V (r of them, r the
numerical rank of C at EQUALITY_TOL). Conditioning on that system,

    E = sigma @ V.T @ (V @ sigma @ V.T)^-1
    F = I - E @ V
    g = F @ mu - E @ c

a latent draw y ~ N(0, sigma) maps to x = F y + g, which lands exactly on
the plane and has the right conditional law there. The map is the paper's,
with V in place of C: both span the same rows. The inequalities become
H y + k >= 0 with H = A F and k = A g + b, the region the feasibility LPs
classify. Without equalities the map degenerates to F = I, g = mu.

With L_rank the rank(sigma) columns of the covariance factor that carry
its mass, one complete QR (V L_rank)' = [Q1 P] [R; 0] gives the whole map:
E = L_rank Q1 R^-T, one solve with R, whose condition number is the square
root of the Gram's; g = mu - E (V mu + c) and H = A - (A E) V, F unformed.
Every draw is made in the plane's own coordinates: B = L_rank P has
B B' = F sigma F', so u ~ N(0, I_k), k = rank(sigma) - r, gives
x = g + B u the law of F y + g. The inequalities read G u + k >= 0 with
G = A B. Without equalities P = I and B = L_rank.

The LPs still pose the region in y, so their point y0 = L_rank w reaches
the plane as u = P' w, for which B u = F y0 (`sampler.plan`): a chain's
draws and its start alike become an x through the one map x = g + B u.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import SingularEqualityGram
from .linalg import BLOCK_ELEMENTS, DEFAULT_TOL, doubling_blocks, unit_rows
from .problem import ProblemSpec

EQUALITY_TOL = 1e-8  # relative rank cut of C's unit rows, and its residual test
_SCRATCH = threading.local()  # see _scratch


@dataclass(frozen=True)
class EqualityClass:
    """Solution-set classification of C x + d = 0.

    kind: "no_solution" (inconsistent), "unique" (x holds the single
    solution), or "infinite" (a positive-dimensional solution plane).
    For "infinite", rows @ x + offsets = 0 is the same plane, written with
    orthonormal rows, one per unit of the numerical rank of C.
    """

    kind: Literal["no_solution", "unique", "infinite"]
    x: np.ndarray | None = None
    rows: np.ndarray | None = None
    offsets: np.ndarray | None = None


@dataclass(frozen=True)
class TransformedProblem:
    """Latent reformulation: x = F y + g for y ~ N(0, sigma) s.t. H y + k >= 0,
    drawn as x = g + B u for u ~ N(0, I_k) s.t. G u + k >= 0.

    F is the paper's notation, not a field. B = L_rank P (n x k), with P
    (rank(sigma) x k) orthonormal; G = A B.
    """

    g: np.ndarray
    H: np.ndarray
    k: np.ndarray
    B: np.ndarray
    G: np.ndarray
    P: np.ndarray


def classify_equality_system(C, d) -> EqualityClass:
    """Classify C x + d = 0 from one SVD of its unit rows.

    A zero row of C is inconsistent unless its d_i is 0, and is dropped then.
    The other equations are scaled to unit rows, so a residual is the
    distance from x to a hyperplane. The rank r counts the singular values
    above EQUALITY_TOL times the largest; the least-squares x on those r is
    the solution when it lies within EQUALITY_TOL times max(1, largest
    hyperplane offset) of every hyperplane. With p = 0 rows every x
    qualifies, which counts as "infinite".
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
        return EqualityClass("infinite", rows=np.zeros((0, n)), offsets=np.zeros(0))
    C, d = unit_rows(C[~zero], d[~zero])
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    r = int(np.count_nonzero(s > EQUALITY_TOL * s[0]))
    offsets = U[:, :r].T @ d / s[:r]
    x = -Vt[:r].T @ offsets
    if np.abs(C @ x + d).max() > EQUALITY_TOL * max(1.0, float(np.abs(d).max())):
        return EqualityClass("no_solution")
    if r == n:
        return EqualityClass("unique", x)
    return EqualityClass("infinite", rows=Vt[:r], offsets=offsets)


def build_transform(
    spec: ProblemSpec, *, equality: EqualityClass | None = None
) -> TransformedProblem:
    """Build the latent map for a problem whose equality system (if any) has
    infinitely many solutions.

    equality is the classification of (C, d) when the caller has already
    made it; without it the system is classified here.

    The map conditions on the classification's orthonormal rows, which
    already leave out redundant equations. Their Gram matrix V sigma V.T is
    tested on the rank(sigma) directions that the covariance factor counts,
    (V L_rank)(V L_rank).T: if its smallest eigenvalue is at most
    linalg.DEFAULT_TOL times max|sigma|, the covariance carries no mass
    across some constraint direction and SingularEqualityGram is raised.
    That floor is tested, not the bare Cholesky, because roundoff can leave
    a singular Gram a Cholesky factor; and on the counted directions, so
    that the plane's dimension k = rank(sigma) - r cannot come out wrong or
    negative. The complete QR of (V L_rank).T gives E = L_rank Q1 R^-T from
    its first r columns Q1, and P, orthogonal to every row of V L_rank, as
    the columns after them.
    """
    n = spec.n
    root = spec.factor.factor[:, n - spec.factor.rank :]  # L_rank
    if spec.p == 0:
        return TransformedProblem(
            g=spec.mu.copy(),
            H=spec.A.copy(),
            k=spec.A @ spec.mu + spec.b,
            B=root,
            G=spec.A @ root,
            P=np.eye(spec.factor.rank),
        )
    if equality is None:
        equality = classify_equality_system(spec.C, spec.d)
    if equality.kind != "infinite":
        raise ValueError(
            "build_transform needs an equality system with infinitely many "
            f"solutions, got {equality.kind!r}"
        )
    V = equality.rows
    r = V.shape[0]
    counted = V @ root
    floor = DEFAULT_TOL * np.abs(spec.sigma).max() * np.eye(r)
    try:
        # the shifted Gram has a Cholesky factor iff its smallest eigenvalue
        # exceeds the floor
        np.linalg.cholesky(counted @ counted.T - floor)
    except np.linalg.LinAlgError as exc:
        raise SingularEqualityGram(
            "C sigma C.T is singular after dropping redundant equality rows"
        ) from exc
    Q, R = np.linalg.qr(counted.T, mode="complete")
    E = root @ np.linalg.solve(R[:r], Q[:, :r].T).T
    g = spec.mu - E @ (V @ spec.mu + equality.offsets)
    P = Q[:, r:]
    B = root @ P
    return TransformedProblem(
        g=g, H=spec.A - (spec.A @ E) @ V, k=spec.A @ g + spec.b, B=B, G=spec.A @ B, P=P
    )


def packed_latent(rows: np.ndarray, k: int) -> np.ndarray:
    """The (len(rows), k) array at the head of the memory of the C-contiguous
    2-D array rows: where a draw writes u before map_latent_rows expands
    each u in place into its row of x."""
    return rows.reshape(-1)[: len(rows) * k].reshape(len(rows), k)


def _scratch(elements: int) -> np.ndarray:
    """A float buffer of at least `elements` entries, kept for the calling
    thread's later calls. map_latent_rows allocates its block temporaries
    here, once, rather than on every call: freeing them at the end of each
    call let the allocator hand their pages back, so that every call
    faulted them in again."""
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < elements:
        buffer = _SCRATCH.buffer = np.empty(elements)
    return buffer


def map_latent_rows(transformed: TransformedProblem, rows: np.ndarray) -> None:
    """Overwrite the C-contiguous 2-D float array rows with g + B u, one row
    for each row u of packed_latent(rows, k).

    The product runs over blocks of 1, 2, 4, ... rows, up to about
    BLOCK_ELEMENTS elements a block (linalg.doubling_blocks), so no
    temporary grows with the row count. A BLAS product can round a row
    differently with the number of rows it spans, so the last block is
    padded to its full size: every block has the shape its position gives
    it, and mapping the first rows of a longer array gives the same bits.
    The blocks run from the last to the first: a block's rows of x start
    past every earlier block's u and overwrite only u that later blocks
    have already read. Every block's product is written into one buffer,
    the padded block's u into another, and g is added from a third that
    holds it once per row of the largest block, so that each block's sum
    is one pass over contiguous memory rather than a loop per row. All
    three are held by _scratch.
    """
    B_t = transformed.B.T
    k = B_t.shape[0]
    count, width = rows.shape
    latent = packed_latent(rows, k)
    blocks = list(doubling_blocks(count, max(1, BLOCK_ELEMENTS // width)))
    largest = blocks[-1][1]  # the last block, the only one padded, is the largest
    scratch = _scratch(largest * (2 * width + k))
    product = scratch[: largest * width].reshape(largest, width)
    offset = scratch[largest * width : 2 * largest * width].reshape(largest, width)
    pad = scratch[2 * largest * width : largest * (2 * width + k)].reshape(largest, k)
    offset[: min(count, largest)] = transformed.g
    for start, size in reversed(blocks):
        u = latent[start : start + size]
        if len(u) < size:
            pad[: count - start] = u
            pad[count - start :] = 0.0
            u = pad
        out = np.matmul(u, B_t, out=product[:size])
        kept = min(size, count - start)
        np.add(out[:kept], offset[:kept], out=rows[start : start + kept])
