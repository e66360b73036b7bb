"""Dense two-phase simplex for small linear programs in inequality form.

Solves    minimize c @ x    subject to    G @ x >= h,

where each variable is either free or sign-restricted to x_j >= 0. Free
variables are split into positive and negative parts, and surplus variables
turn the inequalities into equations. Phase 1 starts from the origin's slack
basis: a row that x = 0 already satisfies (h_i <= 0) starts with its surplus
variable basic, and only a row that the origin violates (h_i > 0) gets an
artificial variable, which phase 1 drives out of the basis before phase 2
optimizes the real objective. A region that contains the origin thus costs
phase 1 no pivot at all. Phase 1 does not depend on the objective, so
`phase_one` returns its feasible basis and `phase_two` prices one cost
vector against a copy of it; `solve_lp` is one of each, and several
objectives over one region can share a phase 1.
Entering columns follow Dantzig's rule (most negative reduced cost) until
the objective stops improving for STALL_LIMIT consecutive pivots, after
which Bland's rule takes over to rule out cycling; a hard iteration cap
backstops both phases.

The problems fed to this solver are tiny (tens of variables), so the code
favours clarity over sparse-matrix tricks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CyclingGuardExceeded

PIVOT_TOL = 1e-9
STALL_LIMIT = 100  # non-improving pivots tolerated before switching to Bland's rule


@dataclass
class LinearProgram:
    """min c @ x  s.t.  G @ x >= h;  x_j >= 0 where nonneg[j], else free.

    nonneg=None marks every variable free.
    """

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    nonneg: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        nv = self.c.size
        if nv == 0:
            raise ValueError("linear program needs at least one variable")
        if self.G.size == 0:
            self.G = self.G.reshape(0, nv)
        if self.G.shape[1] != nv:
            raise ValueError(f"G must have {nv} columns, got {self.G.shape[1]}")
        if self.G.shape[0] != self.h.size:
            raise ValueError(f"G has {self.G.shape[0]} rows but h has {self.h.size}")
        if self.nonneg is None:
            self.nonneg = np.zeros(nv, dtype=bool)
        else:
            self.nonneg = np.asarray(self.nonneg, dtype=bool).reshape(-1)
            if self.nonneg.size != nv:
                raise ValueError("nonneg mask length must match c")


@dataclass(frozen=True)
class LpSolution:
    """pivots counts the simplex pivots that reached this result: phase 1 and
    phase 2 for solve_lp, phase 2 alone for phase_two."""

    status: str  # "optimal" | "unbounded" | "infeasible"
    objective: float | None
    x: np.ndarray | None
    pivots: int = 0


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    multipliers = tableau[:, col].copy()
    multipliers[row] = 0.0
    tableau -= np.outer(multipliers, tableau[row])
    # scrub roundoff so the pivot column is an exact unit vector
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _iterate(tableau, basis, ncols, tol, cap):
    """Pivot until the reduced costs are nonnegative. Mutates tableau/basis.

    Returns ("optimal" or "unbounded", pivots made); raises
    CyclingGuardExceeded at the cap.
    """
    nrows = len(basis)
    bland = False
    stalled = 0
    best = -tableau[-1, -1]
    for pivots in range(cap):
        reduced = tableau[-1, :ncols]
        if bland:
            negatives = np.flatnonzero(reduced < -tol)
            if negatives.size == 0:
                return "optimal", pivots
            col = int(negatives[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -tol:
                return "optimal", pivots
        pivot_col = tableau[:nrows, col]
        eligible = pivot_col > tol
        if not eligible.any():
            return "unbounded", pivots
        ratios = np.full(nrows, np.inf)
        ratios[eligible] = tableau[:nrows, -1][eligible] / pivot_col[eligible]
        least = ratios.min()
        ties = np.flatnonzero(ratios == least)
        row = int(ties[np.argmin(np.asarray(basis)[ties])])  # Bland-safe tie-break
        _pivot(tableau, basis, row, col)
        objective = -tableau[-1, -1]
        if objective < best - tol:
            best = objective
            stalled = 0
        else:
            stalled += 1
            if stalled >= STALL_LIMIT:
                bland = True
    raise CyclingGuardExceeded(f"simplex did not converge within {cap} pivots")


@dataclass(frozen=True)
class FeasibleBasis:
    """A feasible basis of the standard form of {G x >= h}, found by phase 1.

    It depends only on (G, h, nonneg), so one phase 1 serves any number of
    objectives over the same region: phase_two copies the tableau and prices
    one cost vector. The tableau holds the constraint rows (redundant rows
    removed) and a cost row, without the artificial columns.
    """

    tableau: np.ndarray
    basis: tuple[int, ...]
    split: tuple[tuple[int, float], ...]  # column t is sign * (original variable j)
    cap: int


def phase_one(
    G, h, nonneg=None, tol: float = PIVOT_TOL
) -> tuple[FeasibleBasis | None, int]:
    """A feasible basis of {G x >= h; x_j >= 0 where nonneg[j]}, or None if
    empty, with the number of pivots phase 1 made either way.

    The start basis is the origin's: each row with h_i <= 0, which x = 0
    satisfies, is negated so that its surplus column is +e_i and starts
    basic at value -h_i >= 0. Only the rows with h_i > 0 get an artificial
    column, and the phase-1 cost sums those artificials alone, so a region
    that contains the origin is feasible at once, with no pivot.

    G and h must already have consistent shapes (LinearProgram checks them);
    nonneg=None marks every variable free.
    """
    nrows, nv = G.shape
    if nonneg is None:
        nonneg = np.zeros(nv, dtype=bool)

    split: list[tuple[int, float]] = []
    for j in range(nv):
        split.append((j, 1.0))
        if not nonneg[j]:
            split.append((j, -1.0))
    n_struct = len(split)
    rhs = np.array(h, dtype=float)
    slack_start = rhs <= 0.0  # rows the origin satisfies, -0.0 included
    art_rows = np.flatnonzero(~slack_start)
    art0 = n_struct + nrows
    total = art0 + art_rows.size  # + surplus + artificial

    body = np.zeros((nrows, total))
    for t, (j, sign) in enumerate(split):
        body[:, t] = sign * G[:, j]
    body[:, n_struct:art0] = -np.eye(nrows)
    body[slack_start] *= -1.0
    rhs = np.abs(rhs)
    body[art_rows, art0 + np.arange(art_rows.size)] = 1.0

    tableau = np.zeros((nrows + 1, total + 1))
    tableau[:nrows, :total] = body
    tableau[:nrows, -1] = rhs
    basis = [n_struct + i for i in range(nrows)]
    for a, i in enumerate(art_rows):
        basis[i] = art0 + a
    # phase-1 reduced costs: artificial costs 1, priced out against the basis
    # (each artificial column prices to exactly zero)
    tableau[-1, art0:total] = 1.0
    tableau[-1] -= tableau[art_rows].sum(axis=0)

    cap = 50 * (n_struct + 3 * nrows)
    status, pivots = _iterate(tableau, basis, total, tol, cap)
    if status == "unbounded":  # impossible for a sum of nonnegative variables
        raise CyclingGuardExceeded("phase 1 reported unbounded: numerical breakdown")
    if -tableau[-1, -1] > tol:
        return None, pivots

    # drive any leftover zero-valued artificials out of the basis
    drop_rows = []
    for i in range(nrows):
        if basis[i] >= art0:
            candidates = np.flatnonzero(np.abs(tableau[i, :art0]) > tol)
            if candidates.size:
                col = int(candidates[np.argmax(np.abs(tableau[i, candidates]))])
                _pivot(tableau, basis, i, col)
                pivots += 1
            else:
                drop_rows.append(i)  # redundant constraint row
    if drop_rows:
        tableau = np.delete(tableau, drop_rows, axis=0)
        basis = [b for i, b in enumerate(basis) if i not in set(drop_rows)]

    tableau = np.delete(tableau, np.s_[art0:total], axis=1)
    return FeasibleBasis(tableau, tuple(basis), tuple(split), cap), pivots


def phase_two(start: FeasibleBasis, c, tol: float = PIVOT_TOL) -> LpSolution:
    """Minimize c @ x from the phase-1 basis; start itself is left unchanged."""
    tableau = start.tableau.copy()
    basis = list(start.basis)
    nrows = len(basis)
    ncols = tableau.shape[1] - 1
    cost = np.zeros(ncols)
    for t, (j, sign) in enumerate(start.split):
        cost[t] = sign * c[j]
    tableau[-1, :] = 0.0
    tableau[-1, :ncols] = cost
    for i in range(nrows):
        cb = cost[basis[i]]
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]

    status, pivots = _iterate(tableau, basis, ncols, tol, start.cap)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    values = np.zeros(ncols)
    for i in range(nrows):
        values[basis[i]] = tableau[i, -1]
    x = np.zeros(len(c))
    for t, (j, sign) in enumerate(start.split):
        x[j] += sign * values[t]
    return LpSolution("optimal", float(c @ x), x, pivots)


def solve_lp(model: LinearProgram, tol: float = PIVOT_TOL) -> LpSolution:
    """Solve the model; an Optimal solution is a vertex of the standard form."""
    start, pivots = phase_one(model.G, model.h, model.nonneg, tol)
    if start is None:
        return LpSolution("infeasible", None, None, pivots)
    solution = phase_two(start, model.c, tol)
    return replace(solution, pivots=pivots + solution.pivots)
