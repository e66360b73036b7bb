"""Rejection-free elliptical slice sampling of N(0, I_k) under G u + k >= 0.

The chain runs in the plane's own coordinates u (see `transform`): its
prior is N(0, I_k), and `sample_constrained` maps each kept state to
x = g + B u. Each step draws an auxiliary direction nu ~ N(0, I_k) and
walks the ellipse theta -> u cos(theta) + nu sin(theta). Constraint i
restricts theta through

    G_i . (u cos + nu sin) + k_i = r_i cos(theta - phi_i) + k_i >= 0,

with r_i = hypot(G_i.u, G_i.nu) and phi_i = atan2(G_i.nu, G_i.u). That is the
whole circle when k_i >= r_i, impossible when k_i <= -r_i, and otherwise the
closed arc phi_i +/- arccos(-k_i / r_i). The feasible set is the intersection
of these arcs; theta is drawn uniformly from it, so no proposal is ever
rejected and theta = 0 (staying put) is always available as a member of the
set. One nu and one uniform per step, nothing else touches the generator
(a long step, below, draws z in place of nu).

Draw order. None of a step's randomness depends on the state, so the steps
run in blocks of 1, 2, 4, ... up to DRAW_BLOCK steps, the block sizes a
function of the step index alone. A block draws the nu of its full steps as
one standard_normal((f, k)), the z of its long steps as one
standard_normal((s - f, b)), then the uniforms of all its s steps as one
random(s), and forms the row products as matrix products: NU G' and
Z (G Q)'. Each step reads its row. Since a block's shapes do not depend on
the chain's length, an n-step chain is bit for bit the first n steps of
any longer chain with the same seed, and a one-step chain draws no more
than one step needs.

Angles live in [-pi, pi). Per step, the radii, the phases and the
half-widths are whole-array operations, on the active rows gathered once by
index. One scalar loop over those rows then moves each arc into [-pi, pi),
adding 2 pi to both ends exactly when its start lies below -pi, and splits
the arcs that then end beyond pi at the seam. The starts and the ends, held
as plain floats, are sorted as two lists and merged in one sweep, opens
before closes at ties, which keeps the angles covered by every active arc;
the seam pieces enter as one start at -pi and one end at pi, each weighted
by the number of split arcs. theta is then total measure (the widths summed
as Python floats) times the step's uniform, walked across the pieces. A
chain's output is a deterministic function of its seed: the tests compare
it bit for bit with a per-arc reference implementation of the same draws.

Thin regions. A region that is thin in a few directions and long in the
others leaves each prior-shaped ellipse a tiny feasible share, so the plain
chain creeps along the long directions. `long_directions` reads that shape
once, from the Dikin ellipsoid {u : u' D'D u <= 1} at the start point u0,
where row i of D is G_i divided by its slack (G u0 + k)_i. An eigenvector
of D'D whose semi-axis 1 / sqrt(lambda) is at least THIN prior standard
deviations is *long*; Q holds them as orthonormal columns. Since
lambda_max <= trace(D'D) = sum_i |D_i|^2, a trace of at most 1 / THIN^2
proves that no direction is thin, and no eigendecomposition runs. When some
but not all directions are thin, fill_chain alternates:

* even steps (0, 2, ...): the full-ellipse step above, unchanged;
* odd steps: a long step. With a = Q' u the state is u = Q a + rest. The
  prior makes a ~ N(0, I_b) independent of the rest, so the target's
  conditional law of a is N(0, I_b) on the region's slice. One elliptical
  slice step in a-space (draw z ~ N(0, I_b), then theta uniform on the arcs
  of G Q a, G Q z and G u - G Q a + k) moves to
  u + Q (a (cos theta - 1) + z sin theta). It leaves that conditional
  invariant, so it is an exact, rejection-free Gibbs update of the target.

The full step is what mixes the thin directions; the long step moves the
long ones at the scale of the prior instead of the region's thickness. A
long step's z comes from its block's standard_normal((s - f, b)), between
the full steps' normals and the uniforms (see Draw order). Regions with no
thin or no long direction keep the plain chain.
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
_FULL_CIRCLE = [[-_PI, _PI]]
_MEASURE_ZERO = "constraint arcs intersect in a set of measure zero"
_INFINITE_ANGLE = "the step's angle is infinite; the state is corrupted"


@dataclass(frozen=True)
class ArcSet:
    """Sorted, pairwise-disjoint angle intervals inside [-pi, pi)."""

    intervals: np.ndarray  # shape (k, 2), columns are (start, end)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))


def _intersect(starts, ends, crossing, needed):
    """Sweep-line intersection of `needed` arc families given as endpoints.

    Single pieces open at `starts` and close at `ends`; `crossing` pieces
    more open at -pi and close at pi, one for each arc split at the seam.
    The two lists are sorted in place and merged in one walk that takes
    opens before closes at ties. Returns the angles covered by `needed`
    pieces at once as [start, end] pairs. Two of them can touch only where
    the pieces of one arc split at the seam touch, and an arc from finite
    projections spans less than the whole circle, so none are merged.
    """
    starts.sort()
    ends.sort()
    starts.append(math.inf)  # opens after every close: the walk needs no bound
    if crossing:
        ends.append(_PI)  # the seam pieces close last
    segments = []
    cover = crossing  # the seam pieces open first
    previous = -_PI
    i = 0
    for angle in ends:
        opening = starts[i]
        while opening <= angle:
            if cover == needed and opening > previous:
                segments.append([previous, opening])
            cover += 1
            previous = opening
            i += 1
            opening = starts[i]
        if cover == needed and angle > previous:
            segments.append([previous, angle])
        cover -= 1
        previous = angle
    return segments


def _feasible_segments(along_y, along_nu, k, neg_k):
    """Sorted, disjoint [start, end] pairs of the angles every constraint allows.

    neg_k is -k, which a chain negates once per call, not once per step. A
    row whose arc is NaN allows no angle: EmptyArcSet, as for an empty set.
    """
    radius = np.hypot(along_y, along_nu)
    active = (~(k >= radius)).nonzero()[0]  # k >= radius: the whole circle satisfies row i
    needed = active.size
    if not needed:
        return _FULL_CIRCLE
    neg_k, radius = neg_k[active], radius[active]
    if np.count_nonzero(neg_k >= radius):  # k <= -radius
        raise EmptyArcSet("a constraint excludes the entire ellipse")
    phase = np.arctan2(along_nu[active], along_y[active])
    # -radius < k < radius on active rows, so the ratio lies in [-1, 1]
    half_width = np.arccos(neg_k / radius)
    # s = phase - half_width lies in [-2 pi, pi), so moving [s, e] into
    # [-pi, pi) adds 2 pi to both ends exactly when s < -pi. Then [s, e] is
    # one piece unless e > pi: it crosses the seam and becomes [s, pi] and
    # [-pi, e - 2 pi]. The seam endpoints of all crossing arcs coincide, so
    # _intersect takes them as one start and one end weighted by their count
    starts, ends = [], []
    crossing = 0
    low, high, turn = -_PI, _PI, _TWO_PI
    for s, e in zip((phase - half_width).tolist(), (phase + half_width).tolist()):
        if s >= low:
            pass
        elif s < low:
            s += turn
            e += turn
        else:  # NaN: a row with no arc leaves no angle to draw
            raise EmptyArcSet(_MEASURE_ZERO)
        if e > high:
            e -= turn
            crossing += 1
        starts.append(s)
        ends.append(e)
    segments = _intersect(starts, ends, crossing, needed)
    # every kept piece has end > start, so a nonempty list has positive measure
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
    return ArcSet(np.asarray(_feasible_segments(along_y, along_nu, k, -k)))


def long_directions(transformed: TransformedProblem, u0):
    """Q, the orthonormal long axes of the Dikin ellipsoid at u0 as columns,
    or None.

    See the module docstring. None means the plain chain: u0 is not
    strictly interior, no direction is thin, or every direction is.
    """
    G = transformed.G
    slack = G @ np.asarray(u0, dtype=float) + transformed.k
    if not (slack > 0.0).all():
        rows = G.any(axis=1)  # a zero row with k_i = 0 bounds nothing
        G, slack = G[rows], slack[rows]
        if not (slack > 0.0).all():  # only a strictly interior u0 has a Dikin ellipsoid
            return None
    D = G / slack[:, None]
    if not np.vdot(D, D) > 1.0 / THIN**2:  # lambda_max <= trace(D'D)
        return None
    eigenvalues, eigenvectors = np.linalg.eigh(D.T @ D)
    long = eigenvalues * THIN**2 <= 1.0  # semi-axis 1 / sqrt(lambda) >= THIN
    if not 0 < np.count_nonzero(long) < long.size:
        return None
    return eigenvectors[:, long]


def _draw_angle(segments, u):
    """Theta uniform on the union of the segments, from u uniform on [0, 1)."""
    if len(segments) == 1:
        start, end = segments[0]
        return _angle_at(segments, (end - start) * u)
    return _angle_at(segments, sum([end - start for start, end in segments]) * u)


def _check_state(slack):
    worst = float(np.minimum.reduce(slack))
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
    (u0 itself is not written).

    Each full step moves along nu ~ N(0, I_k) to an angle theta placed
    uniformly on the feasible arcs by one uniform draw. Given long = Q from
    long_directions, the odd steps are long steps instead; long=None runs
    full steps only. The steps run in blocks of 1, 2, 4, ... up to
    DRAW_BLOCK steps (linalg.doubling_blocks over the step index), and each
    block draws its randomness at once, in this order: standard_normal((f,
    k)) for its f full steps, standard_normal((s - f, b)) for its long steps
    (only when long is given; b = Q.shape[1]), then random(s) for the
    angles of all its s steps. The full steps' row products are one matrix
    product, NU G', and the long steps' one, Z (G Q)'. The last block is
    drawn whole, also where it runs past the chain's end. A block's shapes
    depend on its position alone, so the chain is bit for bit the first
    steps of any longer chain with the same seed, burn-in and thinning, and
    a one-step chain draws one nu and one uniform. No other state is stored.
    """
    # a step's products use ndarray.dot: the same BLAS call as @ (the tests
    # compare bits), without matmul's dispatch, about 0.5 us less a product
    u = np.asarray(u0, dtype=float)
    G, k = transformed.G, transformed.k
    neg_k, G_t = -k, G.T
    has_rows, dimension = G.shape[0] > 0, G.shape[1]
    standard_normal, random = rng.standard_normal, rng.random
    cos, sin = math.cos, math.sin
    if long is not None:
        M, GQ = long.T, G @ long
        GQ_t, width = GQ.T, long.shape[1]
    kept = 0
    keep = burn_in  # the step whose state goes into rows[kept]
    steps = burn_in + len(rows) * thin
    for start, size in doubling_blocks(steps, DRAW_BLOCK):
        # full steps are the even ones when long steps alternate with them
        full = size if long is None else (size + 1 - start % 2) // 2
        nus = standard_normal((full, dimension))
        along_nus = nus @ G_t
        if long is not None:
            zs = standard_normal((size - full, width))
            along_zs = zs @ GQ_t
        uniforms = random(size).tolist()
        f = 0  # the next full step's row of the block
        for i, r in zip(range(start, min(start + size, steps)), uniforms):
            if long is not None and i % 2:
                row = i // 2 - start // 2  # the long step's row of the block
                slack = G.dot(u) + k
                _check_state(slack)
                a = M.dot(u)
                along_a = GQ.dot(a)
                offset = slack - along_a
                segments = _feasible_segments(along_a, along_zs[row], offset, -offset)
                theta = _draw_angle(segments, r)
                try:
                    turn, lift = cos(theta) - 1.0, sin(theta)
                except ValueError:  # math's cos and sin reject an infinite angle
                    raise NumericalBreakdown(_INFINITE_ANGLE) from None
                u = u + long.dot(a * turn + zs[row] * lift)
            else:
                if has_rows:
                    along_u = G.dot(u)
                    _check_state(along_u + k)
                    segments = _feasible_segments(along_u, along_nus[f], k, neg_k)
                else:
                    segments = _FULL_CIRCLE
                theta = _draw_angle(segments, r)
                try:
                    turn, lift = cos(theta), sin(theta)
                except ValueError:
                    raise NumericalBreakdown(_INFINITE_ANGLE) from None
                u = u * turn + nus[f] * lift
                f += 1
            if i == keep:
                rows[kept] = u
                kept += 1
                keep += thin
