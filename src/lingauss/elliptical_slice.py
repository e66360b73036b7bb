"""Rejection-free elliptical slice sampling of N(0, sigma) under H y + k >= 0.

Each step draws an auxiliary direction nu ~ N(0, sigma) and walks the ellipse
theta -> y cos(theta) + nu sin(theta). Constraint i restricts theta through

    h_i . (y cos + nu sin) + k_i = r_i cos(theta - phi_i) + k_i >= 0,

with r_i = hypot(h_i.y, h_i.nu) and phi_i = atan2(h_i.nu, h_i.y). That is the
whole circle when k_i >= r_i, impossible when k_i <= -r_i, and otherwise the
closed arc phi_i +/- arccos(-k_i / r_i). The feasible set is the intersection
of these arcs; theta is drawn uniformly from it, so no proposal is ever
rejected and theta = 0 (staying put) is always available as a member of the
set. One nu and one theta draw per step, nothing else touches the generator.

Angles live in [-pi, pi); arcs that cross the seam are split in two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyArcSet, NumericalBreakdown
from .linalg import CovarianceFactor, sample_mvn_zero
from .transform import TransformedProblem

SLACK_TOL = 1e-9
_TWO_PI = 2.0 * np.pi
_FULL_CIRCLE = np.array([[-np.pi, np.pi]])


@dataclass(frozen=True)
class ArcSet:
    """Sorted, pairwise-disjoint angle intervals inside [-pi, pi)."""

    intervals: np.ndarray  # shape (k, 2), columns are (start, end)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))

    def contains(self, theta: float) -> bool:
        return bool(
            np.any((self.intervals[:, 0] <= theta) & (theta <= self.intervals[:, 1]))
        )

    def sample(self, u: float) -> float:
        """Map u in [0, total_measure) onto the union by walking the intervals."""
        for start, end in self.intervals:
            width = end - start
            if u < width:
                return float(start + u)
            u -= width
        return float(self.intervals[-1, 1])  # u landed exactly on the total measure


def _wrap_arc(start, end):
    """Shift [start, end] (width < 2*pi) into [-pi, pi), splitting at the seam."""
    shift = np.floor((start + np.pi) / _TWO_PI) * _TWO_PI
    start -= shift
    end -= shift
    if end <= np.pi:
        return [(start, end)]
    return [(-np.pi, end - _TWO_PI), (start, np.pi)]


def _intersect(pieces, needed):
    """Sweep-line intersection of `needed` arc families given as interval pieces."""
    events = []
    for start, end in pieces:
        events.append((start, 1))
        events.append((end, -1))
    events.sort(key=lambda event: (event[0], -event[1]))  # open before close at ties
    segments = []
    cover = 0
    previous = -np.pi
    for angle, delta in events:
        if cover == needed and angle > previous:
            if segments and segments[-1][1] == previous:
                segments[-1] = (segments[-1][0], angle)  # merge abutting pieces
            else:
                segments.append((previous, angle))
        cover += delta
        previous = angle
    return segments


def _arcs_from_projections(along_y, along_nu, k):
    radius = np.hypot(along_y, along_nu)
    inactive = k >= radius  # the whole circle satisfies constraint i
    if np.any(~inactive & (k <= -radius)):
        raise EmptyArcSet("a constraint excludes the entire ellipse")
    active = ~inactive
    if not active.any():
        return ArcSet(_FULL_CIRCLE)
    phase = np.arctan2(along_nu[active], along_y[active])
    half_width = np.arccos(np.clip(-k[active] / radius[active], -1.0, 1.0))
    pieces = []
    for mid, half in zip(phase, half_width):
        pieces.extend(_wrap_arc(mid - half, mid + half))
    segments = _intersect(pieces, int(active.sum()))
    if not segments or sum(end - start for start, end in segments) <= 0.0:
        raise EmptyArcSet("constraint arcs intersect in a set of measure zero")
    return ArcSet(np.asarray(segments))


def active_arcs(y, nu, H, k) -> ArcSet:
    """Feasible ellipse angles for current point y and auxiliary draw nu."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] == 0:
        return ArcSet(_FULL_CIRCLE)
    k = np.asarray(k, dtype=float).reshape(-1)
    return _arcs_from_projections(H @ np.asarray(y, float), H @ np.asarray(nu, float), k)


@dataclass
class ChainState:
    y: np.ndarray
    rng: np.random.Generator
    step_count: int = 0


def ess_step(
    state: ChainState, transformed: TransformedProblem, factor: CovarianceFactor
) -> ChainState:
    """One slice-sampling transition. Exactly one nu draw and one theta draw."""
    y = state.y
    H, k = transformed.H, transformed.k
    nu = sample_mvn_zero(factor, state.rng)
    if H.shape[0]:
        along_y = H @ y
        worst = float((along_y + k).min())
        if worst < -SLACK_TOL:
            raise NumericalBreakdown(
                f"chain state violates a constraint by {-worst:.3e}; "
                "the state is corrupted"
            )
        arcs = _arcs_from_projections(along_y, H @ nu, k)
    else:
        arcs = ArcSet(_FULL_CIRCLE)
    theta = arcs.sample(state.rng.uniform(0.0, arcs.total_measure))
    y_next = y * np.cos(theta) + nu * np.sin(theta)
    return ChainState(y_next, state.rng, state.step_count + 1)


def run_chain(
    transformed: TransformedProblem,
    factor: CovarianceFactor,
    y0,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The n_steps states after y0 (y0 itself excluded), one per row."""
    y0 = np.asarray(y0, dtype=float)
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    out = np.empty((n_steps, y0.size))
    state = ChainState(y0, rng)
    for i in range(n_steps):
        state = ess_step(state, transformed, factor)
        out[i] = state.y
    return out
