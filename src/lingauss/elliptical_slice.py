"""Rejection-free elliptical slice sampling of N(0, I_k) under G u + k >= 0.

The chain runs in the plane's own coordinates u (see `transform`), or on a
thin region (below) in a rotation of them: its prior is N(0, I_k), and
`sample_constrained` maps each kept state to x = g + B u. Each step draws
an auxiliary direction nu ~ N(0, I_k) and walks the ellipse
theta -> u cos(theta) + nu sin(theta). Constraint i restricts theta through

    G_i . (u cos + nu sin) + k_i = r_i cos(theta - phi_i) + k_i >= 0,

with r_i = hypot(G_i.u, G_i.nu) and phi_i = atan2(G_i.nu, G_i.u). That is the
whole circle when k_i >= r_i, impossible when k_i <= -r_i, and otherwise the
closed arc phi_i +/- arccos(-k_i / r_i), the complement of the open arc
phi_i + pi +/- arccos(k_i / r_i) that the row forbids. The feasible set is
the intersection of the allowed arcs; theta is drawn uniformly from it, so
no proposal is ever rejected and theta = 0 (staying put) is always
available as a member of the set. One nu and one uniform per step,
nothing else touches the generator.

Draw order. None of a step's randomness depends on the state, so the steps
run in blocks of 1, 2, 4, ... up to DRAW_BLOCK steps, the block sizes a
function of the step index alone. A block of s steps draws the nu of its
steps as one standard_normal((s, k)), then their uniforms as one random(s).
It zeroes each nu outside the coordinates its step moves (see Thin regions)
and forms the row products once, as NU G'. Each step reads its row. Since a
block's shapes do not depend on the chain's length, an n-step chain is bit
for bit the first n steps of any longer chain with the same seed, and a
one-step chain draws no more than one step needs.

Angles are measured from the state: theta = 0 is where the step starts,
and the circle is cut there, as [0, 2 pi]. Per step, the radii, the
centres and the half-widths of the arcs the active rows *forbid* are
whole-array operations, on the active rows gathered once by index. A
forbidden arc misses theta = 0 whenever the state satisfies its row, so
it needs no move and no split at a seam: one Python sort of the (start,
end) pairs and one pass that keeps the running maximum of the ends yield
the gaps between them, which are the feasible set. theta is then total
measure (the widths summed as Python floats) times the step's uniform,
walked across the gaps from 0. A chain's output is a deterministic
function of its seed: the tests compare it bit for bit with a per-arc
reference implementation of the same draws.

State check. Each step first checks the slack G u + k of the state it
starts from: `_check_state` reads the worst entry as slack[slack.argmin()]
and raises NumericalBreakdown when it lies below -SLACK_TOL. numpy's argmin
returns the index of the first NaN, so a NaN state reads as NaN and raises
too. A step moves its coordinates of the state in place, and a kept step
copies the state into its output row.

Thin regions. A region that is thin in a few directions and long in the
others leaves each prior-shaped ellipse a tiny feasible share, so the plain
chain creeps along the long directions. `long_directions` reads that shape
once, from the Dikin ellipsoid {u : u' D'D u <= 1} at the start point u0,
where row i of D is G_i divided by its slack (G u0 + k)_i. An eigenvector
of D'D whose semi-axis 1 / sqrt(lambda) is at least THIN prior standard
deviations is *long*, the others *thin*. Since lambda_max <= trace(D'D) =
sum_i |D_i|^2, a trace of at most 1 / THIN^2 proves that no direction is
thin, and no eigendecomposition runs. When some but not all directions
are thin, `sample_constrained` runs the chain in the eigenbasis: with R
the orthonormal eigenvectors as columns, the b long ones first, the state
is w = R' u, whose prior is N(0, I_k), under G R w + k >= 0, and
x = g + (B R) w. Each step moves one block S of the coordinates of w. The
prior makes w[S] ~ N(0, I) independent of the rest, so the target's
conditional law of w[S] is N(0, I) on the region's slice. One elliptical
slice step in w[S] alone (nu[S] ~ N(0, I), then theta uniform on the arcs
of G[:, S] w[S], G[:, S] nu[S] and the slack of the other coordinates,
G[:, ~S] w[~S] + k) leaves that law invariant, so it is an exact,
rejection-free Gibbs update of the target. fill_chain alternates two such
updates, for the b long and the t thin coordinates:

* even steps i (0, 2, ...): a thin step, S the thin coordinate
  b + (i // 2) mod t alone;
* odd steps: a long step, S = [0, b).

The plain chain is the step with S = every coordinate, where the slack of
the others is k itself. A full step's ellipse is cut by the thin axes
together, to a sliver of the thinnest; a thin step's ellipse lies along one
thin axis and is cut to that axis's width, and the long step moves the long
directions at the scale of the prior instead of the region's thickness. On
the rare-event pentagon (thin semi-axes 0.034 and 0.0008) this lifts the
chain from 24-30 to 86-106 effective samples per 1000 steps (50k steps,
seeds 1-8). Regions with no thin or no long direction keep the plain chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyArcSet, NumericalBreakdown
from .linalg import doubling_blocks
from .transform import TransformedProblem

SLACK_TOL = 1e-9
THIN = 0.05  # semi-axis, in prior standard deviations, below which a direction is thin
DRAW_BLOCK = 32  # most steps whose randomness one block draws (see fill_chain)
_PI = np.pi
_TWO_PI = 2.0 * np.pi
_FULL_CIRCLE = [[0.0, _TWO_PI]]
_MEASURE_ZERO = "constraint arcs intersect in a set of measure zero"
_INFINITE_ANGLE = "the step's angle is infinite; the state is corrupted"


@dataclass(frozen=True)
class ArcSet:
    """Sorted, pairwise-disjoint angle intervals inside [0, 2 pi], theta = 0
    being the current point: the pieces of the circle no constraint forbids."""

    intervals: np.ndarray  # shape (k, 2), columns are (start, end)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))


def _feasible_segments(along_y, along_nu, k):
    """Sorted, disjoint [start, end] pairs of the angles in [0, 2 pi] that
    every constraint allows: the gaps between the arcs the active rows forbid.

    Row i forbids the open arc centred on phi_i + pi with half-width
    arccos(k_i / r_i), which misses theta = 0 whenever the state satisfies
    the row. The arcs are walked in order of their starts with the running
    maximum of their ends, `reach`: a start past it opens a gap [reach,
    start], and [reach, 2 pi] closes the list. Nothing is clipped to [0,
    2 pi]: a start below 0 opens no gap and an end past 2 pi leaves no last
    gap. A row whose arc is NaN allows no angle: EmptyArcSet, as for an
    empty set.
    """
    radius = np.hypot(along_y, along_nu)
    active = (~(k >= radius)).nonzero()[0]  # k >= radius: the whole circle satisfies row i
    if not active.size:
        return _FULL_CIRCLE
    k, radius = k[active], radius[active]
    if np.count_nonzero(k <= -radius):
        raise EmptyArcSet("a constraint excludes the entire ellipse")
    centre = np.arctan2(along_nu[active], along_y[active])
    centre += _PI
    # -radius < k < radius on active rows, so the ratio lies in [-1, 1]
    half_width = np.arccos(k / radius)
    segments = []
    reach = 0.0
    for start, end in sorted(zip((centre - half_width).tolist(), (centre + half_width).tolist())):
        if start > reach:
            segments.append([reach, start])
        elif not start <= reach:  # NaN: a row with no arc leaves no angle to draw
            raise EmptyArcSet(_MEASURE_ZERO)
        if end > reach:
            reach = end
    if reach < _TWO_PI:
        segments.append([reach, _TWO_PI])
    # every gap has end > start, so a nonempty list has positive measure
    if not segments:
        raise EmptyArcSet(_MEASURE_ZERO)
    return segments


def _angle_at(segments, u):
    """Map u in [0, total measure) onto the union by walking the segments."""
    for start, end in segments:
        width = end - start
        if u < width:
            return start + u
        u -= width
    return segments[-1][1]  # u landed exactly on the total measure


def active_arcs(y, nu, H, k) -> ArcSet:
    """Feasible ellipse angles for current point y and auxiliary draw nu
    under H y + k >= 0."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] == 0:
        return ArcSet(np.asarray(_FULL_CIRCLE))
    k = np.asarray(k, dtype=float).reshape(-1)
    along_y = H @ np.asarray(y, float)
    along_nu = H @ np.asarray(nu, float)
    return ArcSet(np.asarray(_feasible_segments(along_y, along_nu, k)))


def long_directions(transformed: TransformedProblem, u0):
    """(R, b): the axes of the Dikin ellipsoid at u0, the eigenvectors of
    D'D, as the orthonormal columns of R from the longest to the shortest,
    and the number b of long ones among them; or None.

    See the module docstring. None means the plain chain: u0 is not
    strictly interior, no direction is thin, or every direction is. The
    rows of G are those the law can move: `sampler.plan` drops every row
    that is constant where the law has mass, so none bounds nothing.
    """
    G = transformed.G
    slack = G @ np.asarray(u0, dtype=float) + transformed.k
    if not (slack > 0.0).all():  # only a strictly interior u0 has a Dikin ellipsoid
        return None
    D = G / slack[:, None]
    if not np.vdot(D, D) > 1.0 / THIN**2:  # lambda_max <= trace(D'D)
        return None
    eigenvalues, eigenvectors = np.linalg.eigh(D.T @ D)  # ascending: the long axes first
    long = np.count_nonzero(eigenvalues * THIN**2 <= 1.0)  # semi-axis 1 / sqrt(lambda) >= THIN
    if not 0 < long < eigenvalues.size:
        return None
    return eigenvectors, long


def _check_state(slack):
    worst = slack[slack.argmin()]  # argmin returns the first NaN, if any
    if not worst >= -SLACK_TOL:  # also catches a NaN state
        raise NumericalBreakdown(
            f"chain state violates a constraint by {-worst:.3e}; the state is corrupted"
        )


def fill_chain(
    transformed: TransformedProblem,
    u0,
    rows: np.ndarray,
    rng: np.random.Generator,
    long=None,
    burn_in: int = 0,
    thin: int = 1,
) -> None:
    """Run burn_in + len(rows) * thin steps from u0 and write the states
    after steps burn_in, burn_in + thin, ... into the k-wide rows, in order
    (u0 itself is not written). The region has at least one row: without
    one, sample_constrained draws directly and runs no chain.

    Each step moves one block S of the coordinates of the state w. With
    long=None, S holds all of them: the plain chain. A chain run in the
    Dikin eigenbasis (see the module docstring) gets its number of long
    coordinates as long: its even step i moves the thin coordinate
    long + (i // 2) mod t alone, and its odd steps move [0, long). A step
    draws nu ~ N(0, I_k), zeroed outside S, and places theta uniformly on
    the feasible arcs of G[:, S] w[S], G nu and the slack of the
    coordinates outside S by one uniform draw; w[S] moves to
    w[S] cos(theta) + nu[S] sin(theta). The steps run in blocks of 1, 2, 4,
    ... up to DRAW_BLOCK steps (linalg.doubling_blocks over the step index),
    and each block draws its randomness at once, in this order:
    standard_normal((s, k)) for its s steps, then random(s) for their
    angles. The row products G nu are one product per block. The last block
    is drawn whole, also where it runs past the chain's end. A block's
    shapes depend on its position alone, so the chain is bit for bit the
    first steps of any longer chain with the same seed, burn-in and
    thinning, and a one-step chain draws one normal vector and one uniform.
    No other state is stored.
    """
    # a step's products use ndarray.dot: the same BLAS call as @ (the tests
    # compare bits), without matmul's dispatch, about 0.5 us less a product
    w = np.array(u0, dtype=float)  # a copy: each step moves one block of it in place
    G, k = transformed.G, transformed.k
    G_t, dimension = G.T, G.shape[1]
    standard_normal, random = rng.standard_normal, rng.random
    cos, sin = math.cos, math.sin
    if long is None:
        blocks = [slice(0, dimension)]
    else:  # by step index mod 2t: thin coordinate long + j at step 2j, [0, long) at 2j + 1
        blocks = [s for j in range(long, dimension) for s in (slice(j, j + 1), slice(0, long))]
    masks = np.zeros((len(blocks), dimension))  # row c: 1 on the coordinates of block c
    kinds = []
    for mask, block in zip(masks, blocks):
        mask[block] = 1.0
        runs = (slice(0, block.start), slice(block.stop, dimension))  # outside the block
        outside = [(G[:, run], w[run]) for run in runs if run.start < run.stop]
        kinds.append((block, w[block], G[:, block], outside))
    kept = 0
    keep = burn_in  # the step whose state goes into rows[kept]
    steps = burn_in + len(rows) * thin
    for start, size in doubling_blocks(steps, DRAW_BLOCK):
        nus = standard_normal((size, dimension))
        nus *= masks.take(range(start, start + size), axis=0, mode="wrap")
        along_nus = nus @ G_t
        uniforms = random(size).tolist()
        for f, (i, r) in enumerate(zip(range(start, min(start + size, steps)), uniforms)):
            block, moving, G_block, outside = kinds[i % len(kinds)]
            along_moving = G_block.dot(moving)
            fixed = k  # the slack of the coordinates outside the block: k in the plain chain
            for G_run, run in outside:
                fixed = fixed + G_run.dot(run)
            slack = along_moving + fixed
            _check_state(slack)
            segments = _feasible_segments(along_moving, along_nus[f], fixed)
            # theta uniform on the segments, from r uniform on [0, 1)
            theta = _angle_at(segments, sum([end - start for start, end in segments]) * r)
            try:
                turn, lift = cos(theta), sin(theta)
            except ValueError:  # math's cos and sin reject an infinite angle
                raise NumericalBreakdown(_INFINITE_ANGLE) from None
            moving *= turn  # a view of w[block]
            moving += nus[f, block] * lift
            if i == keep:
                rows[kept] = w
                kept += 1
                keep += thin
