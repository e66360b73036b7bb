"""Dense two-phase simplex for small linear programs in inequality form.

Solves    minimize cost @ (x+, x-)    subject to    G @ x >= h,

over free variables x. Each x_j is split into a positive and a negative
part, the structural columns 2j and 2j + 1 of the standard form, so that
x = x+ - x-, and the cost prices those columns one by one: opposite entries
on a pair price x_j itself, equal ones |x_j|. Surplus variables turn the
inequalities into equations. Phase 1 starts from the origin's slack
basis: a row that x = 0 already satisfies (h_i <= 0) starts with its surplus
variable basic, and only a row that the origin violates (h_i > 0) gets an
artificial variable, which phase 1 drives out of the basis before phase 2
optimizes the real objective. A region that contains the origin thus costs
phase 1 no pivot at all. Phase 1 does not depend on the objective, so
`phase_one` returns its feasible basis and `phase_two` prices one cost
vector against a copy of it; `solve_lp` is one of each, and several
objectives over one region can share a phase 1. An optimal phase 2 hands
back its final basis too, and `FeasibleBasis.with_row` adds a row that the
basis's vertex satisfies, with that row's surplus basic: a program that
differs from a solved one by its cost and such a row continues from the
solved optimum in another phase 2, with no phase 1 of its own.
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

A pivot's rank-1 update, the bulk of its work, is one BLAS product of the
multiplier column and the pivot row with an inner dimension of 1, cheaper
than forming the same products by a broadcast multiply. With K = 1 each
entry is one rounded product, so the tableau matches a full-tableau
reference entry for entry. BLAS adds each product to a zeroed output, so a
product of -0 comes out +0, and a tableau entry of -0 then keeps its sign
where the broadcast would have made it +0. Zeros may differ in sign from
there on, but no comparison or ratio test can tell the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CyclingGuardExceeded

PIVOT_TOL = 1e-9  # least reduced cost, pivot entry and phase-1 residual that count
STALL_LIMIT = 100  # non-improving pivots tolerated before switching to Bland's rule


@dataclass(frozen=True)
class LpSolution:
    """x holds the variables, x+ - x-, and objective the cost of the
    structural columns' values. pivots counts the simplex pivots that reached
    this result: phase 1 and phase 2 for solve_lp, phase 2 alone for
    phase_two.

    multipliers holds, for an optimal solution, one Lagrange multiplier per
    row of G: the reduced cost of the row's surplus column in the final
    tableau, 0 where that column is basic. They are nonnegative up to the
    pivot tolerance, and G.T @ multipliers = cost[0::2] = -cost[1::2] where
    each variable's two columns cost opposite amounts.
    """

    status: str  # "optimal" | "unbounded" | "infeasible"
    objective: float | None
    x: np.ndarray | None
    pivots: int = 0
    multipliers: np.ndarray | None = None
    basis: FeasibleBasis | None = None  # the optimal basis, a start for more phase 2s


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
    tableau -= np.dot(multipliers[:, None], pivot_row[None, :])
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
    """A feasible basis of the standard form of {G x >= h}, found by phase 1
    or left optimal by a phase 2.

    A phase 1 basis depends only on (G, h), so one phase 1 serves any number
    of objectives over the same region: phase_two copies the tableau and
    prices one cost vector. Columns are labelled in the standard form's
    order: structural columns first, two per variable, then one surplus
    column per row of G, so the structural count is columns.size. The
    tableau stores only the nonbasic columns, in the slots whose labels
    `columns` lists, and the right-hand side last: a basic column is a unit
    vector and needs no storage. It has one row per row of G, whose basic
    labels `basis` lists, and a cost row. No artificial column is left.
    Treat the arrays as read-only.
    """

    tableau: np.ndarray
    basis: np.ndarray
    columns: np.ndarray
    cap: int

    def with_row(self, g, h) -> FeasibleBasis:
        """The basis of the region with one more row g @ x >= h, which the
        basis's vertex must satisfy to within PIVOT_TOL.

        The row's surplus column, labelled after every existing label, joins
        the basis at the value g @ x - h. Its tableau row is (g, -g) over the
        structural columns with each basic column replaced by its own row, so
        the other rows and the cost row stay as they are.
        """
        g = np.asarray(g, dtype=float)
        coefficients = np.zeros(self.basis.size + self.columns.size)  # by label
        pairs = coefficients[: self.columns.size].reshape(-1, 2)  # (x_j+, x_j-) a row
        pairs[:, 0] = g
        pairs[:, 1] = -g
        basic = coefficients[self.basis]
        priced = basic.nonzero()[0]
        row = basic[priced] @ self.tableau[priced]
        row[:-1] -= coefficients[self.columns]
        row[-1] -= h
        if row[-1] < -PIVOT_TOL:
            raise ValueError(f"the basis's vertex violates the new row by {-row[-1]:.3e}")
        row[-1] = max(row[-1], 0.0)  # a tight row's roundoff
        tableau = np.vstack((self.tableau[:-1], row, self.tableau[-1]))
        basis = np.append(self.basis, coefficients.size)
        return FeasibleBasis(tableau, basis, self.columns, self.cap)


def phase_one(G, h) -> tuple[FeasibleBasis | None, int]:
    """A feasible basis of {G x >= h}, or None if empty, with the number of
    pivots phase 1 made either way.

    The start basis is the origin's: each row with h_i <= 0, which x = 0
    satisfies, is negated so that its surplus column is +e_i and starts
    basic at value -h_i >= 0. Only the rows with h_i > 0 get an artificial
    column, and the phase-1 cost sums those artificials alone. When the
    origin satisfies every row, that start basis is feasible as it stands
    and is returned without any phase-1 work. The tableau starts with the
    structural columns and the surplus columns of the artificial rows as
    its nonbasic columns.

    G and h must already have consistent shapes (solve_lp checks them).
    """
    nrows, nv = G.shape
    n_struct = 2 * nv
    rhs = np.array(h, dtype=float)
    slack_start = rhs <= 0.0  # rows the origin satisfies, -0.0 included
    art_rows = np.flatnonzero(~slack_start)
    art0 = n_struct + nrows

    tableau = np.zeros((nrows + 1, n_struct + art_rows.size + 1))
    # structural columns (g_i, -g_i), negated on the rows the origin satisfies
    signed = G * np.where(slack_start, -1.0, 1.0)[:, None]
    tableau[:nrows, 0:n_struct:2] = signed
    np.negative(signed, out=tableau[:nrows, 1:n_struct:2])
    tableau[:nrows, -1] = np.abs(rhs)
    columns = np.arange(n_struct)
    basis = n_struct + np.arange(nrows)
    cap = 50 * (n_struct + 3 * nrows)
    if not art_rows.size:
        return FeasibleBasis(tableau, basis, columns, cap), 0

    tableau[art_rows, n_struct + np.arange(art_rows.size)] = -1.0
    columns = np.append(columns, n_struct + art_rows)
    basis[art_rows] = art0 + np.arange(art_rows.size)
    # phase-1 reduced costs: artificial costs 1, priced out against the basis
    tableau[-1] -= tableau[art_rows].sum(axis=0)

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
    return FeasibleBasis(tableau, basis, columns[real], cap), pivots


def phase_two(start: FeasibleBasis, cost) -> LpSolution:
    """Minimize cost @ (x+, x-) from a feasible basis, with one cost per
    structural column (see the module docstring); start itself is left
    unchanged.
    """
    if np.shape(cost) != start.columns.shape:
        raise ValueError(f"cost needs one entry per structural column ({start.columns.size})")
    tableau = start.tableau.copy()
    basis = start.basis.copy()
    columns = start.columns.copy()
    n_struct = columns.size
    by_label = np.zeros(basis.size + n_struct)  # only structural columns cost
    by_label[:n_struct] = cost
    basic_cost = by_label[basis]
    priced = basic_cost.nonzero()[0]
    tableau[-1, :-1] = by_label[columns]
    tableau[-1, -1] = 0.0
    # reduced costs: subtract the priced rows one after another, in row order
    tableau[-1] = np.subtract.reduce(
        np.concatenate((tableau[-1:], basic_cost[priced, None] * tableau[priced])), axis=0
    )

    status, pivots = _iterate(tableau, columns, basis, start.cap)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    values = np.zeros(by_label.size)
    values[basis] = tableau[:-1, -1]
    structural = values[:n_struct]
    x = 0.0 + structural[0::2] - structural[1::2]  # summed from +0.0: a -0 part gives +0
    # reduced costs by label, 0 on the basic ones; the surplus column of row i
    # (label n_struct + i) prices that row
    reduced = np.zeros(by_label.size)
    reduced[columns] = tableau[-1, :-1]
    optimum = FeasibleBasis(tableau, basis, columns, start.cap)
    return LpSolution(
        "optimal", float(cost @ structural), x, pivots, reduced[n_struct:], optimum
    )


def solve_lp(cost, G, h) -> LpSolution:
    """Minimize cost @ (x+, x-) subject to G @ x >= h, with one cost per
    structural column; an optimal solution is a vertex of the standard form.
    """
    cost = np.asarray(cost, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).reshape(-1)
    if cost.size == 0 or cost.size != 2 * G.shape[1]:
        raise ValueError(f"cost needs 2 entries per column of G ({G.shape[1]}), got {cost.size}")
    if G.shape[0] != h.size:
        raise ValueError(f"G has {G.shape[0]} rows but h has {h.size}")
    start, pivots = phase_one(G, h)
    if start is None:
        return LpSolution("infeasible", None, None, pivots)
    solution = phase_two(start, cost)
    return replace(solution, pivots=pivots + solution.pivots)
