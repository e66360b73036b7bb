"""Dense simplex for small linear programs in inequality form whose origin
is feasible.

Solves    minimize cost @ (x+, x-)    subject to    G @ x >= h,  h <= 0,

over free variables x. Each x_j is split into a positive and a negative
part, the structural columns 2j and 2j + 1 of the standard form, so that
x = x+ - x-, and the cost prices those columns one by one: opposite entries
on a pair price x_j itself, equal ones |x_j|. Surplus variables turn the
inequalities into equations. Since h <= 0, x = 0 satisfies every row, and
the simplex starts from the origin's slack basis: each row is negated so
that its surplus column is +e_i, basic at value -h_i >= 0. There is no
phase 1 and no artificial variable; a program whose origin is infeasible
is shifted by its caller first (see `feasibility.max_slack_model`).
`solve_lp` prices its cost vector from that basis, and `phase_two` prices
one from any feasible basis, leaving it unchanged. An optimal solve hands
back its final basis too, and `FeasibleBasis.with_row` adds a row that the
basis's vertex satisfies, with that row's surplus basic: a program that
differs from a solved one by its cost and such a row continues from the
solved optimum in `phase_two`.
Entering columns follow Dantzig's rule (most negative reduced cost) until
the objective stops improving for STALL_LIMIT consecutive pivots, after
which Bland's rule takes over to rule out cycling; a hard iteration cap
backstops both.

The tableau is dense but stores one column per variable x_j, one per
nonbasic surplus column, and the right-hand side. A basic column is a unit
vector and needs no storage. Neither does the half of x_j that is not
stored: while both halves are nonbasic, x_j-'s column is exactly the
negative of x_j+'s, since negation is exact and every rounding is
symmetric in sign, and once one half is basic in row i, the other's column
is -e_i. So the tableau has as many columns as there are variables, half
the structural columns. Only the reduced costs of the two halves differ,
unless their costs are opposite; the simplex keeps those of the halves it
does not store, updated by the same rounded products, and prices both
halves of every variable. Each stored column keeps a label, its index in
the standard form (structural, then surplus columns), and a pivot swaps
the labels of the entering and the leaving variable. Every tie, of the
entering column and in the ratio test, breaks by label, so the pivots and
the bits are those of a tableau that stores every column in label order. A
half that enters takes the slot of its variable, with the negated column
when it is the one not stored, and a half whose partner is basic has no
positive entry, so choosing it ends the program unbounded, as it does for
the full tableau.

A pivot's rank-1 update, the bulk of its work, is one BLAS product of the
multiplier column and the pivot row with an inner dimension of 1, cheaper
than forming the same products by a broadcast multiply. The freed slot
takes the leaving variable's unit column first, so the same update forms
that column too. With K = 1 each entry is one rounded product, so the
tableau matches a full-tableau reference entry for entry. BLAS adds each product to a zeroed output, so a
product of -0 comes out +0, and a tableau entry of -0 then keeps its sign
where the broadcast would have made it +0. Zeros may differ in sign from
there on, but no comparison or ratio test can tell the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CyclingGuardExceeded

PIVOT_TOL = 1e-9  # least reduced cost and pivot entry that count
STALL_LIMIT = 100  # non-improving pivots tolerated before switching to Bland's rule


@dataclass(frozen=True)
class LpSolution:
    """x holds the variables, x+ - x-, and objective the cost of the
    structural columns' values. pivots counts the simplex pivots that reached
    this result from its start basis.

    multipliers holds, for an optimal solution, one Lagrange multiplier per
    row of G: the reduced cost of the row's surplus column in the final
    tableau, 0 where that column is basic. They are nonnegative up to the
    pivot tolerance, and G.T @ multipliers = cost[0::2] = -cost[1::2] where
    each variable's two columns cost opposite amounts.
    """

    status: str  # "optimal" | "unbounded"
    objective: float | None
    x: np.ndarray | None
    pivots: int = 0
    multipliers: np.ndarray | None = None
    basis: FeasibleBasis | None = None  # the optimal basis, a start for more phase 2s


def _first_label(labels, slots):
    """The slot among slots whose label is lowest."""
    return slots[labels[slots].argmin()]


def _pivot(tableau, columns, basis, row, slot, multipliers):
    """Pivot the variable in `slot` into the basis at `row`, with `multipliers`
    a copy of its column that the pivot consumes. Mutates the first three.

    The leaving variable takes the freed slot with its column, the unit
    vector of `row`, and the rank-1 update turns that into 1/p in `row` and
    -a_i * (1/p) in every other row i, where p is the pivot and a the
    entering column: the arithmetic that a tableau storing every column does
    on it.
    """
    pivot = multipliers[row]
    tableau[:, slot] = 0.0
    tableau[row, slot] = 1.0
    pivot_row = tableau[row]
    pivot_row /= pivot
    multipliers[row] = 0.0
    tableau -= np.dot(multipliers[:, None], pivot_row[None, :])
    columns[slot], basis[row] = basis[row], columns[slot]


def _entering_column(work, slot, partner):
    """The column of a half of the variable in `slot` of a working tableau
    (see _iterate), as the multipliers _pivot takes, and the reduced cost of
    the variable's other half: the stored half's column, or with `partner`
    the other's, its exact negative.

    A partner's column is the negative of its variable's, so its pivot-row
    entry after the division is -r where its variable's is r, and its
    reduced cost gains d * r where its variable's loses it, d the entering
    cost: the reference's rounded product with its sign turned. So the cost
    row's multiplier is d and the partner row's -d, and the pivot's rank-1
    update keeps every stored variable's partner.
    """
    if partner:
        multipliers = -work[:, slot]
        stays = -multipliers[-1]
        multipliers[-1] = -multipliers[-2]
    else:
        multipliers = work[:, slot].copy()
        stays = multipliers[-2]
        multipliers[-2] = -multipliers[-1]
    return multipliers, stays


def _cost_labels(columns, candidates):
    """The labels of entries of _iterate's `costs`: partners, then stored
    columns. A partner's label is its variable's label ^ 1."""
    return np.concatenate((columns ^ 1, [-1], columns))[candidates]


def _entering(costs, row_partners, columns, basis, bland):
    """The entering column by Bland's rule, or by Dantzig's where a basic
    variable's partner may enter, over both halves of every variable, or
    None when no reduced cost is negative. Ties break by label.

    Returns an index into costs (see _iterate), or costs.size + i for the
    partner of row i's basic variable.
    """
    if bland:
        chosen = (costs < -PIVOT_TOL).nonzero()[0]
        rows = (row_partners < -PIVOT_TOL).nonzero()[0]
    else:
        least = min(costs.min(), row_partners.min())
        if least >= -PIVOT_TOL:
            return None
        chosen = (costs == least).nonzero()[0]
        rows = (row_partners == least).nonzero()[0]
    labels = np.concatenate((_cost_labels(columns, chosen), basis[rows] ^ 1))
    if not labels.size:
        return None
    first = labels.argmin()
    if first < chosen.size:
        return chosen[first]
    return costs.size + rows[first - chosen.size]


def _iterate(work, row_partners, columns, basis, cap):
    """Pivot until no reduced cost is negative, of a stored column or of a
    partner. Mutates all four.

    The working tableau holds the rows of G, the partner row and, last, the
    cost row. The partner row holds the reduced cost of each stored
    variable's partner, the half not stored, and +inf in a slot that holds
    no structural column and at the right-hand side. row_partners holds
    those of the basic variables' partners, one per row, +inf where the
    basic variable is no structural half. The partner row and the cost row
    are adjacent, so `costs` views the reduced costs of both halves of every
    stored variable at once: partner s at s, the +inf at width, the stored
    slot s at width + 1 + s.

    Ties break by label, never by slot, so the pivots are those of a tableau
    that stores every column in label order. A stored variable's partner
    enters with the negated column and leaves its slot to the leaving
    variable, as the stored one would; the partner of a basic variable is
    -e_row, with no positive entry, so choosing it ends the program
    unbounded. Returns ("optimal" or "unbounded", pivots made); raises
    CyclingGuardExceeded at the cap.
    """
    width = columns.size
    costs = work[-2:].reshape(-1)[:-1]  # a view: work is C-contiguous
    backwards = costs[::-1]  # argmin from either end: a unique least if both meet
    last = costs.size - 1
    rhs = work[:-2, -1]
    ratios = np.empty(rhs.size)
    ratios_backwards = ratios[::-1]
    negatives = np.count_nonzero(row_partners < -PIVOT_TOL)
    bland = False
    stalled = 0
    best = -work[-1, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for pivots in range(cap):
            if bland or negatives:
                entering = _entering(costs, row_partners, columns, basis, bland)
                if entering is None:
                    return "optimal", pivots
                if entering >= costs.size:  # a basic variable's partner
                    return "unbounded", pivots
            else:  # Dantzig's rule, where no basic variable's partner can enter
                entering = costs.argmin()
                least = costs[entering]
                if least >= -PIVOT_TOL:
                    return "optimal", pivots
                if entering + backwards.argmin() != last:  # the least is not unique
                    ties = (costs == least).nonzero()[0]
                    entering = ties[_cost_labels(columns, ties).argmin()]
            partner = entering < width
            slot = entering if partner else entering - width - 1
            multipliers, stays = _entering_column(work, slot, partner)
            column = multipliers[:-2]
            np.divide(rhs, column, out=ratios)
            ratios[column <= PIVOT_TOL] = np.inf  # only rows with a positive entry bound the step
            row = ratios.argmin()
            least = ratios[row]
            if least == np.inf:
                return "unbounded", pivots
            if row + ratios_backwards.argmin() != rhs.size - 1:  # a tie: break it Bland-safe
                row = _first_label(basis, (ratios == least).nonzero()[0])
            cost = multipliers[-1]
            if partner:
                columns[slot] ^= 1
            _pivot(work, columns, basis, row, slot, multipliers)
            # the freed slot holds d * (1/p) for the leaving variable's
            # partner, whose column was -e_row (r = -1/p): its cost joins
            # from row_partners (+inf where no structural half left), and the
            # entering variable's other half (r = p/p = 1) takes its place there
            left = row_partners[row]
            work[-2, slot] += left
            joined = stays + cost
            row_partners[row] = joined
            if joined < -PIVOT_TOL or left < -PIVOT_TOL:
                negatives = np.count_nonzero(row_partners < -PIVOT_TOL)
            objective = -work[-1, -1]
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
    """A feasible basis of the standard form of {G x >= h}: the origin's
    slack basis, or one left optimal by a phase 2.

    phase_two copies the tableau and prices one cost vector, so one basis
    serves any number of objectives over the same region. Columns are
    labelled in the standard form's order: structural columns first, two
    per variable, then one surplus column per row of G. The tableau stores
    one column per variable and per nonbasic surplus column, in the slots
    whose labels `columns` lists, and the right-hand side last (see the
    module docstring), so the structural count is 2 * columns.size. It has
    one row per row of G, whose basic labels `basis` lists, and a cost row.

    `work` is the working tableau of the program that found the basis (see
    _iterate), and `added` holds the rows with_row has added since, in the
    same columns: with_row copies no tableau, and a phase 2 that continues
    from the basis builds its working tableau with one copy. Treat the arrays
    as read-only.
    """

    work: np.ndarray
    basis: np.ndarray
    columns: np.ndarray
    cap: int
    added: np.ndarray

    def with_row(self, g, h) -> FeasibleBasis:
        """The basis of the region with one more row g @ x >= h, which the
        basis's vertex must satisfy to within PIVOT_TOL.

        The row's surplus column, labelled after every existing label, joins
        the basis at the value g @ x - h. Its tableau row is (g, -g) over the
        structural columns with each basic column replaced by its own row, so
        the other rows and the cost row stay as they are. A partner's entry
        in it is the negative of its variable's, or 0 for a basic variable's,
        so the stored columns hold it all. Only structural variables are
        priced, and none is basic in an added row, so the rows it reads are
        those of `work`.
        """
        g = np.asarray(g, dtype=float)
        coefficients = np.zeros(self.basis.size + 2 * self.columns.size)  # by label
        pairs = coefficients[: 2 * self.columns.size].reshape(-1, 2)  # (x_j+, x_j-) a row
        pairs[:, 0] = g
        pairs[:, 1] = -g
        basic = coefficients[self.basis]
        priced = basic.nonzero()[0]
        row = basic[priced] @ self.work[priced]
        row[:-1] -= coefficients[self.columns]
        row[-1] -= h
        if row[-1] < -PIVOT_TOL:
            raise ValueError(f"the basis's vertex violates the new row by {-row[-1]:.3e}")
        row[-1] = max(row[-1], 0.0)  # a tight row's roundoff
        added = np.concatenate((self.added, row[None]))
        basis = np.concatenate((self.basis, [coefficients.size]))
        return FeasibleBasis(self.work, basis, self.columns, self.cap, added)


def phase_two(start: FeasibleBasis, cost) -> LpSolution:
    """Minimize cost @ (x+, x-) from a feasible basis, with one cost per
    structural column (see the module docstring); start itself is left
    unchanged.
    """
    n_struct = 2 * start.columns.size
    if np.shape(cost) != (n_struct,):
        raise ValueError(f"cost needs one entry per structural column ({n_struct})")
    rows = start.basis.size
    labels = n_struct + rows
    solved = start.work.shape[0] - 2
    work = np.empty((rows + 2, start.work.shape[1]))  # see _iterate
    work[:solved] = start.work[:solved]
    if rows > solved:
        work[solved:rows] = start.added
    basis = start.basis.copy()
    columns = start.columns.copy()
    by_label = np.zeros(labels + 1)  # only structural columns cost
    by_label[:n_struct] = cost
    basic_cost = by_label[basis]
    priced = basic_cost.nonzero()[0]
    # reduced costs: the costs less the priced rows one after another, in
    # row order. A stored variable's partner has the negated column, so the
    # same products add to its cost.
    steps = np.empty((priced.size + 1, work.shape[1]))
    steps[0, :-1] = by_label[columns]
    steps[0, -1] = 0.0
    np.multiply(basic_cost[priced][:, None], work.take(priced, axis=0), out=steps[1:])
    np.subtract.reduce(steps, axis=0, out=work[-1])
    # by_label[label ^ 1] is now the cost of the label's other half, and +inf
    # for a surplus column, which has none
    by_label[n_struct:] = np.inf
    steps[0, :-1] = by_label[columns ^ 1]
    np.add.reduce(steps, axis=0, out=work[-2])
    work[-2, -1] = np.inf
    # a basic variable's partner is -e_row, so the variable's own cost adds
    row_partners = by_label[basis ^ 1] + basic_cost

    status, pivots = _iterate(work, row_partners, columns, basis, start.cap)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    values = np.zeros(labels)
    values[basis] = work[:-2, -1]
    structural = values[:n_struct]
    x = 0.0 + structural[0::2] - structural[1::2]  # summed from +0.0: a -0 part gives +0
    # reduced costs by label, 0 on the basic ones; the surplus column of row i
    # (label n_struct + i) prices that row
    reduced = np.zeros(labels)
    reduced[columns] = work[-1, :-1]
    optimum = FeasibleBasis(work, basis, columns, start.cap, work[:0])
    return LpSolution(
        "optimal", float(cost @ structural), x, pivots, reduced[n_struct:], optimum
    )


def solve_lp(cost, G, h) -> LpSolution:
    """Minimize cost @ (x+, x-) subject to G @ x >= h, with one cost per
    structural column; an optimal solution is a vertex of the standard form.

    The origin must satisfy every row, h <= 0, or ValueError: the simplex
    starts from the origin's slack basis (see the module docstring), each row
    negated so that its surplus column is +e_i and basic at -h_i, with the
    columns of x_j+ stored.
    """
    cost = np.asarray(cost, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).reshape(-1)
    if cost.size == 0 or cost.size != 2 * G.shape[1]:
        raise ValueError(f"cost needs 2 entries per column of G ({G.shape[1]}), got {cost.size}")
    if G.shape[0] != h.size:
        raise ValueError(f"G has {G.shape[0]} rows but h has {h.size}")
    if not (h <= 0.0).all():
        raise ValueError("the origin must satisfy G x >= h: every entry of h must be <= 0")
    nrows, nv = G.shape
    work = np.empty((nrows + 2, nv + 1))  # see _iterate; phase_two prices the last two rows
    np.negative(G, out=work[:nrows, :nv])
    np.abs(h, out=work[:nrows, -1])  # -h, with +0.0 for a zero of either sign
    start = FeasibleBasis(
        work,
        np.arange(2 * nv, 2 * nv + nrows),
        np.arange(0, 2 * nv, 2),
        50 * (2 * nv + 3 * nrows),
        work[:0],
    )
    return phase_two(start, cost)
