"""Feasibility classification of {y : H y + k >= 0} and chain start points.

One linear program gives the verdict, and a second phase 2 continued from
its optimum places the start point of a full-dimensional region:

1. Is the region nonempty, and does it have an interior?  Maximize a slack
   s (capped at 1) subject to H y + k >= s * rownorm(H), a Chebyshev-ball
   construction. With s free below, the program is feasible whenever every
   row of H is nonzero, and the cap bounds it, so its optimum s* decides
   the trichotomy: s* < 0 means no y satisfies every row at once, s* = 0
   means the region is nonempty with an empty interior, and s* > 0 is the
   radius of the largest inscribed ball. Rows of H that are exactly zero
   are decided first: 0 + k_i >= 0 either fails outright or holds for
   every y, and then the row is dropped. The remaining rows are scaled to
   unit norm before the program is posed, so FEAS_TOL bounds a distance in
   y and no verdict depends on how the rows were scaled.
2. Where is a good start point?  For a full-dimensional region, trade
   slack against distance from the origin (_pull_in). That program is the
   slack program with a floor on s and another cost, so it needs no phase 1
   of its own: it carries on from the slack optimum's basis.
3. Which rows make the interior empty?  The slack program's optimal
   multipliers satisfy H' lambda = 0 and sum(lambda) = 1, so every feasible
   y has sum_i lambda_i slack_i(y) = s*: when s* = 0, each row with
   lambda_i > 0 is tight at every point of the region, an implicit equality
   (Goldman & Tucker 1956). An empty interior is returned with those rows
   and no further program runs. Whether the region is a point, a flat or
   empty is then a question about a system of equations, which
   `sampler.plan` settles by adding the rows to the equality constraints
   and planning again, at the equality tolerances.

`find_feasible_point` answers all three; `classify_region` skips step 2,
for a caller that needs no start point (`sampler.plan` on a round whose
interior would make the region flat rather than sampled).

Every threshold above is the module constant FEAS_TOL, a distance in y
between unit rows' hyperplanes and the multiplier that counts a row as
tight, and the programs pivot at the simplex's PIVOT_TOL, of the same
value; neither is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import NumericalBreakdown
from .linalg import unit_rows
from .simplex import FeasibleBasis, phase_two, solve_lp

FEAS_TOL = 1e-9  # slack, in unit-row distances, and multiplier that count


@dataclass(frozen=True)
class FeasibilityResult:
    """kind: "infeasible" | "empty_interior" | "full_dimensional".

    For a full-dimensional region, point is a strictly interior latent
    vector and chebyshev_radius the optimum of the slack program, capped at
    1 (the point may hold less slack than the optimum when the optimum face
    is remote). For an empty interior, tight indexes the input rows whose
    multiplier exceeds FEAS_TOL: its implicit equalities.
    lp_pivots sums the simplex pivots of every program the classification ran.
    lp_solves counts those programs: the slack program, and for
    find_feasible_point's full-dimensional region the start point's phase 2
    continued from its optimal basis.
    """

    kind: Literal["infeasible", "empty_interior", "full_dimensional"]
    point: np.ndarray | None = None
    chebyshev_radius: float | None = None
    lp_pivots: int = 0
    lp_solves: int = 0
    tight: np.ndarray | None = None


def max_slack_model(H, k):
    """(cost, G, h) of  max s  s.t.  H y + k >= s * rownorm(H),  s <= 1,
    posed for solve_lp as min -s: -1 on s+ and +1 on s-, 0 on y."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    k = np.asarray(k, dtype=float).reshape(-1)
    m, n = H.shape
    cost = np.zeros(2 * n + 2)  # columns y1+, y1-, ..., yn+, yn-, s+, s-
    cost[-2:] = -1.0, 1.0
    G = np.zeros((m + 1, n + 1))  # rows [H_i, -|H_i|], then the cap's [0, -1]
    G[:m, :n] = H
    np.negative(np.linalg.norm(H, axis=1), out=G[:m, n])
    G[m, n] = -1.0
    h = np.empty(m + 1)
    np.negative(k, out=h[:m])
    h[m] = -1.0
    return cost, G, h


def _pull_in(optimum: FeasibleBasis, n, radius):
    """Interior start point with slack priced against distance from the origin.

    min  sum|y| - weight * s   s.t.   H y + k >= s * rownorm(H),
                                      s >= radius * 1e-6

    The slack optimum of max_slack_model can be attained on a face that
    recedes arbitrarily far from the origin (narrow unbounded cones), where a
    start point is useless: the sampler's target carries essentially no mass
    there. Buying slack at a bounded price per unit of l1 distance keeps the
    full slack whenever it is cheap -- bounded regions, where the optimum face
    passes near the mass anyway -- and otherwise settles at the knee of the
    distance/slack tradeoff close to the origin. The floor keeps the point
    strictly interior either way, and the rows themselves hold s to at most
    radius.

    The program is the slack program with the floor row added and another
    cost, so a phase 2 continues from the slack program's optimal basis
    (optimum), with the floor's surplus basic at radius * (1 - 1e-6). The
    cost is 1 on both halves of each y_j, which prices |y_j|, -weight on s+
    and +weight on s-. Returns the point, or None if the phase 2 fails to
    end optimal, and its pivots.
    """
    floor = np.zeros(n + 1)
    floor[-1] = 1.0
    start = optimum.with_row(floor, radius * 1e-6)
    weight = 4.0 * n
    cost = np.ones(2 * n + 2)  # labels y1+, y1-, ..., yn+, yn-, s+, s-
    cost[-2:] = -weight, weight
    solution = phase_two(start, cost)
    if solution.status != "optimal":
        return None, solution.pivots
    return solution.x[:n], solution.pivots


def _slack_program(H, k):
    """(verdict, optimum) of the slack program on {y : H y + k >= 0}: the
    classify_region verdict, and for a full-dimensional region the
    program's optimal basis, from which _pull_in continues (None otherwise).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    k = np.asarray(k, dtype=float).reshape(-1)
    m, n = H.shape
    if m == 0:
        raise ValueError("find_feasible_point needs at least one inequality row")
    if m != k.size:
        raise ValueError(f"H has {m} rows but k has {k.size} entries")

    zero = ~H.any(axis=1)
    if zero.any():  # s cannot relax a zero row, so decide these rows here
        if (k[zero] < 0.0).any():
            return FeasibilityResult("infeasible"), None
        H, k = H[~zero], k[~zero]
    H, k = unit_rows(H, k)

    slack = solve_lp(*max_slack_model(H, k))
    if slack.status != "optimal":  # feasible and capped by construction
        raise NumericalBreakdown(f"slack program ended {slack.status}; expected optimal")
    radius = -slack.objective
    if radius < -FEAS_TOL:
        return FeasibilityResult("infeasible", lp_pivots=slack.pivots, lp_solves=1), None
    if radius > FEAS_TOL:
        verdict = FeasibilityResult(
            "full_dimensional", slack.x[:n], radius, lp_pivots=slack.pivots, lp_solves=1
        )
        return verdict, slack.basis

    # empty interior: the rows that carry the multipliers are tight on all of it
    rows = np.flatnonzero(~zero)[slack.multipliers[:-1] > FEAS_TOL]
    verdict = FeasibilityResult("empty_interior", lp_pivots=slack.pivots, lp_solves=1, tight=rows)
    return verdict, None


def classify_region(H, k) -> FeasibilityResult:
    """Classify {y : H y + k >= 0} by the slack program alone.

    The verdict is find_feasible_point's, but no start-point program runs:
    a full-dimensional region's point is the slack optimum's vertex, where
    every row holds at least chebyshev_radius of slack, and lp_solves is 1.
    For callers that need the verdict and not a start point.
    """
    return _slack_program(H, k)[0]


def find_feasible_point(H, k) -> FeasibilityResult:
    """Classify {y : H y + k >= 0} and return a start point when it has an
    interior, or the rows that are tight on all of it when it has none.

    Requires at least one inequality row; callers handle m = 0 as trivially
    full-dimensional at the origin.
    """
    verdict, optimum = _slack_program(H, k)
    if optimum is None:
        return verdict
    n = verdict.point.size
    point, pivots = _pull_in(optimum, n, verdict.chebyshev_radius)
    if point is None:  # bounded below, so only roundoff stops it; keep the vertex
        point = verdict.point
    return replace(verdict, point=point, lp_pivots=verdict.lp_pivots + pivots, lp_solves=2)
