"""Feasibility classification of {y : H y + k >= 0} and chain start points.

One linear program gives the verdict, a second places the start point of a
full-dimensional region, and a range probe settles an empty interior that
the first program's multipliers leave open:

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
   slack against distance from the origin (_pull_in).
3. If the interior is empty, is the region a single point?  The slack
   program's optimal multipliers usually say so at no further cost. They
   satisfy H' lambda = 0 and sum(lambda) = 1, so every feasible y has
   sum_i lambda_i slack_i(y) = s*, and each row with lambda_i > 0 is tight
   to within |s*| / lambda_i (the implicit equalities of Goldman & Tucker).
   When those rows span R^n well enough that no two feasible points lie
   more than FEAS_TOL apart, the region is the point mass at the slack
   optimum, and no further LP runs. Otherwise (a flat region, or a corner
   whose multipliers vanish on a tight row) probe the range of every
   coordinate with a pair of LPs: all ranges at zero means a point mass,
   anything wider (or unbounded) is a flat region the sampler cannot
   honestly represent, reported as DegenerateRegion. The 2n range programs
   share one phase 1 and differ only in phase 2. When s* < 0 that phase 1
   also runs before a point mass is reported, since it decides whether any
   point is feasible at all.

Every threshold above is the module constant FEAS_TOL, a distance in y
between unit rows' hyperplanes, and the programs pivot at the simplex's
PIVOT_TOL, of the same value; neither is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DegenerateRegion, NumericalBreakdown
from .linalg import unit_rows
from .simplex import LinearProgram, phase_one, phase_two, solve_lp

FEAS_TOL = 1e-9  # slack, multiplier and range width, in unit-row distances, that count


@dataclass(frozen=True)
class FeasibilityResult:
    """kind: "infeasible" | "point_mass" | "full_dimensional".

    point is a feasible latent vector for the two non-empty kinds;
    chebyshev_radius is set only for full-dimensional regions (the optimum of
    the slack program, capped at 1; the returned point is strictly interior
    but may hold less slack than the optimum when the optimum face is remote).
    lp_pivots sums the simplex pivots of every program the classification ran.
    lp_solves counts those programs: each whole solve, each phase 1 run on
    its own and each phase 2 priced on a shared phase 1.
    """

    kind: Literal["infeasible", "point_mass", "full_dimensional"]
    point: np.ndarray | None = None
    chebyshev_radius: float | None = None
    lp_pivots: int = 0
    lp_solves: int = 0


def max_slack_model(H, k) -> LinearProgram:
    """max s  s.t.  H y + k >= s * rownorm(H),  s <= 1  (posed as min -s)."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    k = np.asarray(k, dtype=float).reshape(-1)
    m, n = H.shape
    norms = np.linalg.norm(H, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    G = np.vstack([np.hstack([H, -norms[:, None]]), np.zeros((1, n + 1))])
    G[-1, -1] = -1.0
    h = np.concatenate([-k, [-1.0]])
    return LinearProgram(c=c, G=G, h=h)


def _pull_in(H, k, radius):
    """Interior start point with slack priced against distance from the origin.

    min  sum|y| - weight * s   s.t.   H y + k >= s * rownorm(H),
                                      radius * 1e-6 <= s <= radius

    The slack optimum of max_slack_model can be attained on a face that
    recedes arbitrarily far from the origin (narrow unbounded cones), where a
    start point is useless: the sampler's target carries essentially no mass
    there. Buying slack at a bounded price per unit of l1 distance keeps the
    full slack whenever it is cheap -- bounded regions, where the optimum face
    passes near the mass anyway -- and otherwise settles at the knee of the
    distance/slack tradeoff close to the origin. The floor keeps the point
    strictly interior either way.
    """
    m, n = H.shape
    norms = np.linalg.norm(H, axis=1)
    weight = 4.0 * n
    # variables [y_pos, y_neg, s] >= 0 with y = y_pos - y_neg
    c = np.concatenate([np.ones(2 * n), [-weight]])
    G = np.zeros((m + 2, 2 * n + 1))
    G[:m, :n] = H
    G[:m, n : 2 * n] = -H
    G[:m, -1] = -norms
    G[m, -1] = 1.0  # s >= radius * 1e-6
    G[m + 1, -1] = -1.0  # s <= radius
    h = np.concatenate([-k, [radius * 1e-6, -radius]])
    model = LinearProgram(c=c, G=G, h=h, nonneg=np.ones(2 * n + 1, dtype=bool))
    solution = solve_lp(model)
    if solution.status != "optimal":
        return None, solution.pivots
    return solution.x[:n] - solution.x[n : 2 * n], solution.pivots


def _coordinate_range(start, n, i):
    """(low, high, pivots): the extent of coordinate i over the region, entries
    None if unbounded, and the pivots of its two phase 2s."""
    bounds = []
    pivots = 0
    for sign in (1.0, -1.0):
        c = np.zeros(n)
        c[i] = sign
        solution = phase_two(start, c)
        pivots += solution.pivots
        bounds.append(None if solution.status == "unbounded" else sign * solution.objective)
    return bounds[0], bounds[1], pivots


def _pins_a_point(H, multipliers, slack) -> bool:
    """Whether the slack program's multipliers prove the region a point.

    H has unit rows and multipliers are the slack program's, its cap row
    last. Let T be the rows with a multiplier lambda_i above FEAS_TOL. Every
    feasible y keeps row i of T within |s*| / lambda_i of tight, so any two
    feasible points lie within sqrt(|T|) |s*| / (min_T lambda * sigma_min(H_T))
    of each other, which must be at most FEAS_TOL. s* is known to no better than
    one rounding, so |s*| counts as at least machine epsilon: a row set
    that pins the point only through an exact zero is not trusted at any
    conditioning.
    """
    weights = multipliers[:-1]
    tight = weights > FEAS_TOL
    count = np.count_nonzero(tight)
    if count < H.shape[1]:
        return False
    smallest = np.linalg.svd(H[tight], compute_uv=False)[-1]
    spread = np.sqrt(count) * max(abs(slack), np.finfo(float).eps)
    return bool(spread <= FEAS_TOL * weights[tight].min() * smallest)


def find_feasible_point(H, k) -> FeasibilityResult:
    """Classify {y : H y + k >= 0} and return a start point when one exists.

    Requires at least one inequality row; callers handle m = 0 as trivially
    full-dimensional at the origin.
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
            return FeasibilityResult("infeasible")
        H, k = H[~zero], k[~zero]
    H, k = unit_rows(H, k)

    slack = solve_lp(max_slack_model(H, k))
    if slack.status != "optimal":  # feasible and capped by construction
        raise NumericalBreakdown(f"slack program ended {slack.status}; expected optimal")
    radius = -slack.objective
    pivots, solves = slack.pivots, 1
    if radius < -FEAS_TOL:
        return FeasibilityResult("infeasible", lp_pivots=pivots, lp_solves=solves)
    if radius > FEAS_TOL:
        point, pull_pivots = _pull_in(H, k, radius)
        if point is None:  # roundoff starved the follow-up program; keep the vertex
            point = slack.x[:n]
        return FeasibilityResult(
            "full_dimensional",
            point,
            float(radius),
            lp_pivots=pivots + pull_pivots,
            lp_solves=solves + 1,
        )

    # empty interior: point mass or flat region?
    pinned = _pins_a_point(H, slack.multipliers, radius)
    if pinned and radius >= 0.0:  # the slack optimum meets every row
        return FeasibilityResult("point_mass", slack.x[:n], lp_pivots=pivots, lp_solves=solves)
    start, start_pivots = phase_one(H, -k)
    pivots += start_pivots
    solves += 1
    if start is None:  # |s*| <= FEAS_TOL, yet phase 1 leaves a violation above it
        return FeasibilityResult("infeasible", lp_pivots=pivots, lp_solves=solves)
    if pinned:  # phase 1 has shown that some point is feasible
        return FeasibilityResult("point_mass", slack.x[:n], lp_pivots=pivots, lp_solves=solves)
    for i in range(n):
        low, high, range_pivots = _coordinate_range(start, n, i)
        pivots += range_pivots
        solves += 2
        if low is None or high is None:
            raise DegenerateRegion(
                f"feasible region has empty interior yet coordinate {i + 1} is unbounded"
            )
        if high - low > FEAS_TOL:
            raise DegenerateRegion(
                "feasible region has empty interior but positive extent "
                f"{high - low:.3e} along coordinate {i + 1}"
            )
    return FeasibilityResult("point_mass", slack.x[:n], lp_pivots=pivots, lp_solves=solves)
