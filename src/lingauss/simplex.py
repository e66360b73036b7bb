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

The tableau is dense but stores only the nonbasic columns and the
right-hand side: a basic column is a unit vector and needs no storage. With
one basic variable per row, a phase-2 tableau has as many columns as there
are structural ones, and a phase-1 tableau one more per artificial, so a
pivot no longer sweeps a surplus column for every row. Each column keeps a
label, its index in the standard form (structural, then surplus, then
artificial columns), and a pivot swaps the labels of the entering and the
leaving variable. Every tie, of the entering column, in the ratio test and
in the drive-out of zero artificials, breaks by label, so the pivots and
the bits are those of a tableau that stores every column in label order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CyclingGuardExceeded

PIVOT_TOL = 1e-9  # least reduced cost, pivot entry and phase-1 residual that count
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
    phase 2 for solve_lp, phase 2 alone for phase_two.

    multipliers holds, for an optimal solution, one Lagrange multiplier per
    row of G: the reduced cost of the row's surplus column in the final
    tableau, 0 where that column is basic. They are nonnegative up to the
    pivot tolerance, and c = G.T @ multipliers on the free variables.
    """

    status: str  # "optimal" | "unbounded" | "infeasible"
    objective: float | None
    x: np.ndarray | None
    pivots: int = 0
    multipliers: np.ndarray | None = None


def _first_label(labels, slots):
    """The slot among slots whose label is lowest."""
    return slots[labels[slots].argmin()]


def _pivot(tableau, columns, basis, row, slot):
    """Pivot the variable in `slot` into the basis at `row`. Mutates all three.

    The leaving variable takes the freed slot. Its column was the unit vector
    of `row`, so after the pivot it holds 1/p in `row` and -a_i * (1/p) in
    every other row i, where p is the pivot and a the entering column: the
    arithmetic that a tableau storing every column does on it.
    """
    pivot = tableau[row, slot]
    pivot_row = tableau[row]
    pivot_row /= pivot
    multipliers = tableau[:, slot].copy()
    multipliers[row] = 0.0
    tableau -= multipliers[:, None] * pivot_row
    multipliers *= -1.0 / pivot
    multipliers[row] = 1.0 / pivot
    tableau[:, slot] = multipliers
    columns[slot], basis[row] = basis[row], columns[slot]


def _iterate(tableau, columns, basis, cap):
    """Pivot until the reduced costs are nonnegative. Mutates all three.

    Ties break by label, never by slot, so the pivots are those of a tableau
    that stores every column in label order. Returns ("optimal" or
    "unbounded", pivots made); raises CyclingGuardExceeded at the cap.
    """
    reduced = tableau[-1, :-1]  # views: the pivots update them in place
    rhs = tableau[:-1, -1]
    bland = False
    stalled = 0
    best = -tableau[-1, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for pivots in range(cap):
            if bland:
                negatives = (reduced < -PIVOT_TOL).nonzero()[0]
                if negatives.size == 0:
                    return "optimal", pivots
                slot = _first_label(columns, negatives)
            else:
                slot = reduced.argmin()
                least = reduced[slot]
                if least >= -PIVOT_TOL:
                    return "optimal", pivots
                ties = (reduced == least).nonzero()[0]
                if ties.size > 1:
                    slot = _first_label(columns, ties)
            column = tableau[:-1, slot]
            ratios = rhs / column
            ratios[column <= PIVOT_TOL] = np.inf  # only rows with a positive entry bound the step
            row = ratios.argmin()
            least = ratios[row]
            if least == np.inf:
                return "unbounded", pivots
            ties = (ratios == least).nonzero()[0]
            if ties.size > 1:
                row = _first_label(basis, ties)  # Bland-safe tie-break
            _pivot(tableau, columns, basis, row, slot)
            objective = -tableau[-1, -1]
            if objective < best - PIVOT_TOL:
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
    one cost vector. Columns are labelled in the standard form's order:
    structural columns first, then one surplus column per row of G. The
    tableau stores only the nonbasic columns, in the slots whose labels
    `columns` lists, and the right-hand side last: a basic column is a unit
    vector and needs no storage. It has one row per row of G, whose basic
    labels `basis` lists, and a cost row. No artificial column is left.
    Treat the arrays as read-only.
    """

    tableau: np.ndarray
    basis: np.ndarray
    columns: np.ndarray
    split: tuple[np.ndarray, np.ndarray]  # structural column t is signs[t] * x[variables[t]]
    cap: int


def phase_one(G, h, nonneg=None) -> tuple[FeasibleBasis | None, int]:
    """A feasible basis of {G x >= h; x_j >= 0 where nonneg[j]}, or None if
    empty, with the number of pivots phase 1 made either way.

    The start basis is the origin's: each row with h_i <= 0, which x = 0
    satisfies, is negated so that its surplus column is +e_i and starts
    basic at value -h_i >= 0. Only the rows with h_i > 0 get an artificial
    column, and the phase-1 cost sums those artificials alone, so a region
    that contains the origin is feasible at once, with no pivot. The
    tableau starts with the structural columns and the surplus columns of
    the artificial rows as its nonbasic columns.

    G and h must already have consistent shapes (LinearProgram checks them);
    nonneg=None marks every variable free.
    """
    nrows, nv = G.shape
    if nonneg is None:
        nonneg = np.zeros(nv, dtype=bool)

    variables = np.repeat(np.arange(nv), np.where(nonneg, 1, 2))
    signs = np.ones(variables.size)
    signs[1:][variables[1:] == variables[:-1]] = -1.0  # the negative part of a free variable
    n_struct = variables.size
    rhs = np.array(h, dtype=float)
    slack_start = rhs <= 0.0  # rows the origin satisfies, -0.0 included
    art_rows = np.flatnonzero(~slack_start)
    art0 = n_struct + nrows

    tableau = np.zeros((nrows + 1, n_struct + art_rows.size + 1))
    body = G[:, variables] * signs
    body[slack_start] *= -1.0
    tableau[:nrows, :n_struct] = body
    tableau[art_rows, n_struct + np.arange(art_rows.size)] = -1.0
    tableau[:nrows, -1] = np.abs(rhs)
    columns = np.concatenate([np.arange(n_struct), n_struct + art_rows])
    basis = n_struct + np.arange(nrows)
    basis[art_rows] = art0 + np.arange(art_rows.size)
    # phase-1 reduced costs: artificial costs 1, priced out against the basis
    tableau[-1] -= tableau[art_rows].sum(axis=0)

    cap = 50 * (n_struct + 3 * nrows)
    status, pivots = _iterate(tableau, columns, basis, cap)
    if status == "unbounded":  # impossible for a sum of nonnegative variables
        raise CyclingGuardExceeded("phase 1 reported unbounded: numerical breakdown")
    if -tableau[-1, -1] > PIVOT_TOL:
        return None, pivots

    # drive any leftover zero-valued artificials out of the basis. The row's
    # own surplus column, the negative of its artificial, holds about -1
    # there, so a pivot always exists and no row is ever redundant.
    for i in (basis >= art0).nonzero()[0]:
        sizes = np.where(columns < art0, np.abs(tableau[i, :-1]), 0.0)
        largest = sizes.max()
        if not largest > PIVOT_TOL:
            raise CyclingGuardExceeded("phase 1 left an artificial it cannot pivot out")
        slot = _first_label(columns, (sizes == largest).nonzero()[0])
        _pivot(tableau, columns, basis, i, slot)
        pivots += 1
    real = columns < art0
    tableau = tableau[:, np.append(real, True)]
    return FeasibleBasis(tableau, basis, columns[real], (variables, signs), cap), pivots


def phase_two(start: FeasibleBasis, c) -> LpSolution:
    """Minimize c @ x from the phase-1 basis; start itself is left unchanged."""
    c = np.asarray(c, dtype=float)
    tableau = start.tableau.copy()
    basis = start.basis.copy()
    columns = start.columns.copy()
    variables, signs = start.split
    cost = np.zeros(basis.size + columns.size)  # by label; only structural columns cost
    cost[: variables.size] = signs * c[variables]
    basic_cost = cost[basis]
    priced = basic_cost.nonzero()[0]
    tableau[-1, :-1] = cost[columns]
    tableau[-1, -1] = 0.0
    # reduced costs: subtract the priced rows one after another, in row order
    tableau[-1] = np.subtract.reduce(
        np.concatenate((tableau[-1:], basic_cost[priced, None] * tableau[priced])), axis=0
    )

    status, pivots = _iterate(tableau, columns, basis, start.cap)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    values = np.zeros(cost.size)
    values[basis] = tableau[:-1, -1]
    x = np.zeros(c.size)
    np.add.at(x, variables, signs * values[: variables.size])
    # reduced costs by label, 0 on the basic ones; the surplus column of row i
    # (label n_struct + i) prices that row
    reduced = np.zeros(cost.size)
    reduced[columns] = tableau[-1, :-1]
    return LpSolution("optimal", float(c @ x), x, pivots, reduced[variables.size :])


def solve_lp(model: LinearProgram) -> LpSolution:
    """Solve the model; an Optimal solution is a vertex of the standard form."""
    start, pivots = phase_one(model.G, model.h, model.nonneg)
    if start is None:
        return LpSolution("infeasible", None, None, pivots)
    solution = phase_two(start, model.c)
    return replace(solution, pivots=pivots + solution.pivots)
