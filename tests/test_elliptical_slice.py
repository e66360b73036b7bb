import math
from dataclasses import replace

import numpy as np
import pytest

from lingauss import elliptical_slice
from lingauss.elliptical_slice import (
    DRAW_BLOCK,
    SLACK_TOL,
    THIN,
    ArcSet,
    _angle_at,
    _check_state,
    _feasible_segments,
    active_arcs,
    fill_chain,
    long_directions,
)
from lingauss.errors import EmptyArcSet, NumericalBreakdown
from lingauss.fixtures import pentagon_problem
from lingauss.linalg import doubling_blocks
from lingauss.problem import ProblemSpec
from lingauss.sampler import plan, sample_constrained
from lingauss.stats import sample_stats
from lingauss.transform import build_transform

from conftest import random_spd


# Reference: the per-arc slice step, run on u ~ N(0, I_k) under
# G u + k >= 0, with its own event sweep over the arcs the rows forbid on
# [0, 2 pi]. The chain must reproduce its output bit for bit.


def _reference_gaps(arcs, stats=None):
    """The gaps of [0, 2 pi] that no (start, end) arc covers, by a sweep that
    counts how many arcs cover each angle, closes before it opens at ties
    and keeps only gaps of positive width."""
    events = sorted([(start, 1) for start, _ in arcs] + [(end, -1) for _, end in arcs])
    gaps = []
    cover = 0
    previous = 0.0
    for angle, delta in events:
        if cover == 0 and angle > previous:
            gaps.append((previous, angle))
        elif cover == 0 and stats is not None and angle == previous > 0.0:
            stats["abutting"] += 1  # an arc starts where the covered angles end
        cover += delta
        if cover == 0:
            previous = angle
    if 2.0 * np.pi > previous:
        gaps.append((previous, 2.0 * np.pi))
    return gaps


def _reference_intervals(along_y, along_nu, k, stats=None):
    radius = np.hypot(along_y, along_nu)
    inactive = k >= radius
    if np.any(~inactive & (k <= -radius)):
        raise EmptyArcSet("a constraint excludes the entire ellipse")
    active = ~inactive
    if not active.any():
        return np.array([[0.0, 2.0 * np.pi]])
    centre = np.arctan2(along_nu[active], along_y[active]) + np.pi
    half_width = np.arccos(k[active] / radius[active])
    arcs = list(zip((centre - half_width).tolist(), (centre + half_width).tolist()))
    if stats is not None:
        stats["active"] += len(arcs)
    segments = _reference_gaps(arcs, stats)
    if not segments or sum(end - start for start, end in segments) <= 0.0:
        raise EmptyArcSet("constraint arcs intersect in a set of measure zero")
    return np.asarray(segments)


def _reference_sample(intervals, u):
    for start, end in intervals:
        width = end - start
        if u < width:
            return float(start + u)
        u -= width
    return float(intervals[-1, 1])


def _schedule(steps):
    """(start, size) of the documented draw blocks: 1, 2, 4, ... steps, then
    DRAW_BLOCK each, the last drawn whole even where it passes `steps`."""
    blocks, start = [], 0
    while start < steps:
        size = min(2 ** len(blocks), DRAW_BLOCK)
        blocks.append((start, size))
        start += size
    return blocks


def _block(step, long, dimension):
    """The coordinates [low, high) that step `step` moves: all of them for
    the plain chain (long None); on the Dikin eigenbasis the thin coordinate
    long + (step // 2) mod t at even steps and [0, long) at odd ones."""
    if long is None:
        return 0, dimension
    if step % 2:
        return 0, long
    low = long + (step // 2) % (dimension - long)
    return low, low + 1


def _block_masks(start, size, long, dimension):
    """One row per step start, ..., start + size - 1: 1 on the coordinates
    the step moves, 0 elsewhere."""
    masks = np.zeros((size, dimension))
    for row, step in zip(masks, range(start, start + size)):
        low, high = _block(step, long, dimension)
        row[low:high] = 1.0
    return masks


def _reference_chain(transformed, u0, n_steps, rng, stats=None, long=None):
    """The chain one step at a time with the per-arc reference: each step
    moves its block [low, high) of w along nu, which is zeroed outside the
    block, over the slack k + G w of the coordinates outside it."""
    H, k = transformed.G, transformed.k
    y = np.asarray(u0, dtype=float)
    out = np.empty((n_steps, y.size))
    for start, size in _schedule(n_steps):
        nus = rng.standard_normal((size, y.size))
        nus *= _block_masks(start, size, long, y.size)
        along_nus = nus @ H.T
        uniforms = rng.random(size)
        for j in range(min(size, n_steps - start)):
            i = start + j
            low, high = _block(i, long, y.size)
            along_y = H[:, low:high] @ y[low:high]
            # the coordinates before the block, then those after it
            offset = k + H[:, :low] @ y[:low] + H[:, high:] @ y[high:]
            if H.shape[0]:
                assert float((H @ y + k).min()) >= -SLACK_TOL
                intervals = _reference_intervals(along_y, along_nus[j], offset, stats)
            else:
                intervals = np.array([[0.0, 2.0 * np.pi]])
            total = sum((intervals[:, 1] - intervals[:, 0]).tolist())
            theta = _reference_sample(intervals, total * uniforms[j])
            if stats is not None and len(intervals) > 1 and theta >= intervals[-1, 0]:
                stats["wrap"] += 1  # theta lies past the cut at the state, towards 2 pi
            y = y.copy()
            y[low:high] = y[low:high] * math.cos(theta) + nus[j, low:high] * math.sin(theta)
            out[i] = y
    return out


# Frozen: a second implementation of the arcs, with the union of the
# forbidden arcs taken in numpy (a sort by start, then a running maximum
# of the ends), and the draw and the chain loop as they stood when every
# step became one block update, run on w ~ N(0, I_k) under G w + k >= 0,
# with the circle cut at the state. The arc code and the chains must
# reproduce them bit for bit.


def _frozen_feasible_segments(along_y, along_nu, k, stats=None):
    radius = np.hypot(along_y, along_nu)
    active = ~(k >= radius)  # k >= radius: the whole circle satisfies row i
    if not np.count_nonzero(active):
        return [[0.0, 2.0 * np.pi]]
    k, radius = k[active], radius[active]
    if np.count_nonzero(-k >= radius):  # no angle satisfies row i
        raise EmptyArcSet("a constraint excludes the entire ellipse")
    centre = np.arctan2(along_nu[active], along_y[active]) + np.pi
    half_width = np.arccos(k / radius)
    start, end = centre - half_width, centre + half_width
    if np.isnan(start).any():
        raise EmptyArcSet("constraint arcs intersect in a set of measure zero")
    order = np.argsort(start, kind="stable")
    start = start[order]
    reach = np.maximum.accumulate(np.concatenate([[0.0], end[order]]))
    opens = start > reach[:-1]
    segments = np.column_stack([reach[:-1][opens], start[opens]]).tolist()
    if reach[-1] < 2.0 * np.pi:
        segments.append([float(reach[-1]), 2.0 * np.pi])
    if stats is not None:
        stats["abutting"] += np.count_nonzero((start == reach[:-1]) & (reach[:-1] > 0.0))
        stats["unclipped"] += start[0] < 0.0 or reach[-1] > 2.0 * np.pi
    if not segments:
        raise EmptyArcSet("constraint arcs intersect in a set of measure zero")
    return segments


def _frozen_draw_angle(segments, u):
    total = sum([end - start for start, end in segments])
    return _angle_at(segments, total * u)


def _frozen_fill_chain(transformed, w0, rows, rng, long=None, burn_in=0, thin=1):
    w = np.array(w0, dtype=float)
    H, k = transformed.G, transformed.k
    dimension = w.size
    kept = 0
    keep = burn_in
    steps = burn_in + len(rows) * thin
    for start, size in _schedule(steps):
        nus = rng.standard_normal((size, dimension)) * _block_masks(start, size, long, dimension)
        along_nus = nus @ H.T
        uniforms = rng.random(size).tolist()
        for j, i in enumerate(range(start, min(start + size, steps))):
            low, high = _block(i, long, dimension)
            along_a = H[:, low:high] @ w[low:high]
            offset = k + H[:, :low] @ w[:low] + H[:, high:] @ w[high:]
            _check_state(along_a + offset)
            segments = _frozen_feasible_segments(along_a, along_nus[j], offset)
            theta = _frozen_draw_angle(segments, uniforms[j])
            w[low:high] = w[low:high] * math.cos(theta) + nus[j, low:high] * math.sin(theta)
            if i == keep:
                rows[kept] = w
                kept += 1
                keep += thin


def chain_states(transformed, w0, n_steps, rng, long=None):
    """The n_steps states after w0, one per row: fill_chain over a new array."""
    rows = np.empty((n_steps, np.size(w0)))
    fill_chain(transformed, w0, rows, rng, long)
    return rows


def member(intervals, theta):
    """Whether each theta lies in one of the closed intervals."""
    intervals = np.asarray(intervals)
    theta = np.asarray(theta)[..., None]
    return np.any((intervals[:, 0] <= theta) & (theta <= intervals[:, 1]), axis=-1)


def grid_feasible_mask(y, nu, H, k, n_grid=10_000):
    """Brute-force feasibility of theta over an even grid of the circle."""
    theta = 2 * np.pi * np.arange(n_grid) / n_grid
    points = np.outer(np.cos(theta), H @ y) + np.outer(np.sin(theta), H @ nu) + k
    return theta, np.all(points >= 0.0, axis=1)


def random_feasible_instance(rng):
    """(y, nu, H, k) with y strictly feasible so theta = 0 is always allowed."""
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 5))
    H = rng.normal(size=(m, n))
    y = rng.normal(size=n)
    slack = rng.uniform(0.05, 1.0, size=m)
    k = slack - H @ y
    nu = rng.normal(size=n)
    return y, nu, H, k


def test_arcs_match_grid_oracle():
    rng = np.random.default_rng(83)
    for _ in range(200):
        y, nu, H, k = random_feasible_instance(rng)
        arcs = active_arcs(y, nu, H, k)
        theta, feasible = grid_feasible_mask(y, nu, H, k)
        inside = member(arcs.intervals, theta)
        # grid points can straddle an arc boundary; allow one-cell mismatches
        disagreements = np.flatnonzero(inside != feasible)
        for idx in disagreements:
            neighborhood = feasible[[(idx - 1) % theta.size, (idx + 1) % theta.size]]
            assert neighborhood[0] != neighborhood[1], (
                f"interior disagreement at theta={theta[idx]:.6f}"
            )


def test_arc_measure_matches_grid_fraction():
    rng = np.random.default_rng(89)
    for _ in range(100):
        y, nu, H, k = random_feasible_instance(rng)
        arcs = active_arcs(y, nu, H, k)
        _, feasible = grid_feasible_mask(y, nu, H, k)
        grid_measure = 2 * np.pi * feasible.mean()
        assert arcs.total_measure == pytest.approx(grid_measure, abs=2 * np.pi / 2_000)


def test_zero_is_always_feasible():
    # the circle is cut at the state: theta = 0 closes the first gap and
    # 2 pi, the same point, the last
    rng = np.random.default_rng(97)
    for _ in range(200):
        y, nu, H, k = random_feasible_instance(rng)
        intervals = active_arcs(y, nu, H, k).intervals
        assert intervals[0, 0] == 0.0 and intervals[-1, 1] == 2 * np.pi
        assert member(intervals, 0.0) and member(intervals, 2 * np.pi)


def test_whole_circle_when_constraints_inactive():
    H = np.array([[1.0, 0.0]])
    k = np.array([10.0])  # |projection| can never reach 10
    arcs = active_arcs([0.1, 0.2], [0.3, -0.1], H, k)
    assert arcs.total_measure == pytest.approx(2 * np.pi)


def test_no_rows_means_whole_circle():
    arcs = active_arcs([0.1], [0.2], np.zeros((0, 1)), np.zeros(0))
    assert arcs.total_measure == pytest.approx(2 * np.pi)


def test_zero_row_with_zero_offset_is_inactive():
    # a 0 >= 0 row is trivially satisfied and must not empty the arc set
    H = np.array([[0.0, 0.0], [1.0, 0.0]])
    k = np.array([0.0, 0.5])
    arcs = active_arcs([0.2, 0.0], [0.0, 0.3], H, k)
    assert arcs.total_measure > 0.0


def test_impossible_constraint_raises():
    H = np.array([[1.0]])
    k = np.array([-10.0])  # needs projection >= 10, radius is ~0.5
    with pytest.raises(EmptyArcSet, match="excludes the entire ellipse"):
        active_arcs([0.3], [0.4], H, k)
    # radius 0 under a negative offset: k <= -radius, no angle satisfies the row
    with pytest.raises(EmptyArcSet, match="excludes the entire ellipse"):
        active_arcs([0.0], [0.0], np.array([[1.0]]), np.array([-1e-10]))
    # a NaN projection gives a NaN arc, which leaves no angle to draw
    for y, nu in (([np.nan], [0.4]), ([0.3], [np.nan])):
        with pytest.raises(EmptyArcSet, match="intersect in a set of measure zero"):
            active_arcs(y, nu, np.array([[1.0], [-1.0]]), np.array([0.5, 2.0]))


def test_a_state_within_the_tolerance_still_draws():
    # u1 >= 0 fails by SLACK_TOL / 2 at u0, so the arc that row forbids
    # holds theta = 0: it starts below 0 or ends past 2 pi, unclipped. The
    # step still draws, and the part of that arc it may land in lies
    # between the state and the arc's end, where the row's slack is higher.
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=np.eye(2),
        A=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
        b=np.array([0.0, 1.0, 2.0]),
    )
    transformed = build_transform(spec)
    G, k = transformed.G, transformed.k
    u0 = np.linalg.lstsq(G[:2], np.array([-0.5 * SLACK_TOL, 1.2]) - k[:2], rcond=None)[0]
    worst = (G @ u0 + k).min()
    assert -SLACK_TOL < worst < 0.0
    below, past = 0, 0
    for seed in range(200):
        nu = np.random.default_rng(seed).standard_normal((1, 2))[0]
        intervals = active_arcs(u0, nu, G, k).intervals
        below += intervals[0, 0] > 0.0
        past += intervals[-1, 1] < 2 * np.pi
        step = chain_states(transformed, u0, 1, np.random.default_rng(seed))
        assert (step @ G.T + k).min() >= worst - 1e-15, seed  # up to rounding
    assert below > 0 and past > 0 and below + past == 200, (below, past)


def test_sample_lands_inside_and_covers_intervals():
    intervals = [[-2.0, -1.0], [0.5, 1.5]]
    total = ArcSet(np.asarray(intervals)).total_measure
    assert total == pytest.approx(2.0)
    rng = np.random.default_rng(7)
    draws = np.array([_angle_at(intervals, rng.uniform(0, total)) for _ in range(4_000)])
    assert member(intervals, draws).all()
    in_first = ((draws >= -2.0) & (draws <= -1.0)).mean()
    assert in_first == pytest.approx(0.5, abs=0.05)  # uniform across the union
    assert _angle_at(intervals, total) == 1.5  # u on the total measure ends the last piece


def test_run_chain_stays_feasible_every_step():
    rng = np.random.default_rng(103)
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=random_spd(rng, 2),
        A=np.array([[1.0, 0.0], [0.0, 1.0]]),
        b=np.array([0.5, 0.5]),
    )
    transformed = build_transform(spec)
    chain = chain_states(transformed, np.zeros(2), 300, np.random.default_rng(11))
    assert chain.shape == (300, 2)
    assert (chain @ transformed.G.T + transformed.k).min() >= -1e-9
    # x = g + B u satisfies the inequalities with the same slack
    x = chain @ transformed.B.T + transformed.g
    assert (x @ spec.A.T + spec.b).min() >= -1e-9


def test_corrupted_state_raises():
    spec = ProblemSpec(
        mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.0])
    )
    transformed = build_transform(spec)
    with pytest.raises(NumericalBreakdown, match="corrupted"):  # u0 violates u >= 0
        chain_states(transformed, np.array([-1.0]), 5, np.random.default_rng(0))


def test_nan_state_raises():
    spec = ProblemSpec(
        mu=np.zeros(2), sigma=np.eye(2), A=np.array([[1.0, 0.0]]), b=np.array([1.0])
    )
    transformed = build_transform(spec)
    with pytest.raises(NumericalBreakdown, match="corrupted"):
        chain_states(transformed, np.array([np.nan, 0.0]), 5, np.random.default_rng(0))


@pytest.mark.parametrize("where", [0, 57, 99], ids=["first", "middle", "last"])
def test_a_nan_slack_raises_wherever_it_lies(where):
    slack = np.linspace(2.0, 0.5, 100)
    slack[50] = -0.5 * SLACK_TOL  # the smallest number, inside the tolerance
    slack[where] = np.nan
    with pytest.raises(NumericalBreakdown, match="corrupted"):
        _check_state(slack)


def test_the_state_check_holds_the_slack_to_its_tolerance():
    slack = np.linspace(2.0, 0.5, 100)
    slack[31] = -SLACK_TOL
    _check_state(slack)
    slack[31] = -1.01 * SLACK_TOL
    with pytest.raises(NumericalBreakdown, match=r"violates a constraint by 1\.010e-09"):
        _check_state(slack)


def test_run_chain_shape_and_determinism():
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=np.eye(2),
        A=np.array([[1.0, 0.0]]),
        b=np.array([1.0]),
    )
    transformed = build_transform(spec)
    u0 = np.array([0.0, 0.0])
    a = chain_states(transformed, u0, 50, np.random.default_rng(42))
    b = chain_states(transformed, u0, 50, np.random.default_rng(42))
    assert a.shape == (50, 2)
    np.testing.assert_array_equal(a, b)
    # no rows to fill: no step runs and nothing is drawn
    generator = np.random.default_rng(0)
    before = generator.bit_generator.state
    fill_chain(transformed, u0, np.empty((0, 2)), generator)
    assert generator.bit_generator.state == before


def test_half_normal_moments():
    # N(0,1) restricted to y >= 0: mean sqrt(2/pi), variance 1 - 2/pi
    spec = ProblemSpec(mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.0]))
    transformed = build_transform(spec)
    chain = chain_states(transformed, np.array([1.0]), 30_000, np.random.default_rng(5))
    draws = chain[:, 0]
    assert draws.min() >= -1e-9
    assert draws.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.025)
    assert draws.var() == pytest.approx(1 - 2 / np.pi, abs=0.025)


def test_unconstrained_chain_is_standard_normal():
    # one never-active constraint: the chain must reproduce N(0, sigma) exactly
    rng = np.random.default_rng(107)
    sigma = random_spd(rng, 2)
    spec = ProblemSpec(
        mu=np.zeros(2), sigma=sigma, A=np.array([[1.0, 0.0]]), b=np.array([1e6])
    )
    transformed = build_transform(spec)
    chain = chain_states(transformed, np.zeros(2), 40_000, np.random.default_rng(3))
    chain = chain @ transformed.B.T  # x = g + B u, g = mu = 0
    np.testing.assert_allclose(chain.mean(axis=0), 0.0, atol=4 * np.sqrt(sigma.max() / 4_000))
    np.testing.assert_allclose(np.cov(chain.T), sigma, rtol=0.15, atol=0.05 * sigma.max())


BOX_LOW, BOX_HIGH = np.array([-0.4, -1.8, 0.1]), np.array([1.6, 0.3, 2.2])


def small_box(seed=5):
    """A rotated 3-D box LOW <= R' x <= HIGH under N(0, I), its six rows
    scaled by random positive factors and shuffled. Returns the problem and
    R: the coordinates of w = R' x are independent truncated normals."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    A = np.vstack([rotation.T, -rotation.T])
    b = np.concatenate([-BOX_LOW, BOX_HIGH])
    scales, order = rng.uniform(0.5, 2.0, 6), rng.permutation(6)
    spec = ProblemSpec(
        mu=np.zeros(3), sigma=np.eye(3), A=(A * scales[:, None])[order], b=(b * scales)[order]
    )
    return spec, rotation


def ks_times_root_ess(w, lows=BOX_LOW, highs=BOX_HIGH):
    """(scores, ESS per 1000 steps), per coordinate j of w: the largest gap
    between its empirical CDF and (Phi(t) - Phi(low)) / (Phi(high) -
    Phi(low)), low and high the coordinate's bounds lows[j] and highs[j],
    times the root of its ESS; and that ESS per 1000 rows of w.

    A defect that also slows mixing shrinks the ESS and with it the score,
    so a test bounds both: the score above, the ESS below."""
    phi = np.vectorize(lambda t: 0.5 * (1.0 + math.erf(t / math.sqrt(2.0))))
    n = w.shape[0]
    ranks = np.arange(1, n + 1) / n
    scores = []
    ess = sample_stats(w).ess
    for j in range(w.shape[1]):
        low, high = phi(lows[j]), phi(highs[j])
        cdf = (phi(np.sort(w[:, j])) - low) / (high - low)
        gap = max((ranks - cdf).max(), (cdf - (ranks - 1.0 / n)).max())
        scores.append(gap * math.sqrt(ess[j]))
    return scores, ess * 1000.0 / n


def test_box_marginals_match_truncated_normal_cdfs(monkeypatch):
    # KS distance times root ESS: for iid draws, root n times the distance
    # exceeds 1.95 with probability 0.001. The real kernel reads 0.3-1.3 on
    # this box at 20k steps; theta drawn from one gap only reads 4 or more.
    # Each coordinate's ESS per 1000 steps read 236-271 at seeds 1-4; the
    # floor, about half that, fails a defect that keeps the scores low by
    # slowing the chain: a lazy chain, which keeps its state on 9 steps of
    # 10, keeps the law, and its scores read 0.3-1.8 and its ESS 11-27
    spec, rotation = small_box()
    transformed, u0, long = chain_setup(spec)
    assert long is None

    def scores(seed):
        chain = chain_states(transformed, u0, 20_000, np.random.default_rng(seed))
        return ks_times_root_ess((chain @ transformed.B.T + transformed.g) @ rotation)

    for seed in (1, 2, 3):
        score, ess = scores(seed)
        assert max(score) < 2.0, seed
        assert (ess >= 120.0).all(), (seed, ess)
    feasible_segments = elliptical_slice._feasible_segments
    for defect in (
        lambda *args: feasible_segments(*args)[:1],  # the first gap, [0, s1], only
        lambda *args: [max(feasible_segments(*args), key=lambda s: s[1] - s[0])],  # the largest
    ):
        monkeypatch.setattr(elliptical_slice, "_feasible_segments", defect)
        assert max(scores(1)[0]) > 2.0
    monkeypatch.undo()
    angle_at = elliptical_slice._angle_at

    def lazy(segments, u):  # theta = 0 where 1e6 u has a fraction below 0.9: 9 steps of 10
        return 0.0 if (u * 1e6) % 1.0 < 0.9 else angle_at(segments, u)

    monkeypatch.setattr(elliptical_slice, "_angle_at", lazy)
    assert (scores(1)[1] < 120.0).any()


def rotated_box(n=50, seed=23):
    """A randomly rotated 50-D box of 2n rows, each scaled by a random factor."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    scales = rng.uniform(0.5, 2.0, 2 * n)
    A = np.vstack([rotation, -rotation]) * scales[:, None]
    b = np.concatenate([rng.uniform(1.4, 1.6, n), rng.uniform(1.9, 2.1, n)]) * scales
    return ProblemSpec(mu=np.zeros(n), sigma=np.eye(n), A=A, b=b)


CHAIN_CASES = {
    # name: (problem, steps, check on the reference's per-step statistics)
    "pentagon_inequality": (lambda: pentagon_problem("inequality"), 10_000, None),
    "pentagon_both": (lambda: pentagon_problem("both"), 3_000, None),
    "rotated_box": (rotated_box, 2_000, lambda s, steps: s["active"] >= 10 * steps),
    # y >= -0.5: the row is active on most steps, and the feasible piece
    # through the state comes out as [0, s] and [e, 2 pi], so theta often
    # lands in the last gap, past the cut at the state
    "wrap_at_zero": (
        lambda: ProblemSpec(
            mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.5])
        ),
        5_000,
        lambda s, steps: s["wrap"] >= steps // 4,
    ),
    "no_active_row": (
        lambda: ProblemSpec(
            mu=np.zeros(2), sigma=np.eye(2), A=np.array([[1.0, 0.0]]), b=np.array([1e6])
        ),
        2_000,
        lambda s, steps: s["active"] == 0,
    ),
}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_run_chain_matches_reference_bit_for_bit(case):
    make, steps, check = CHAIN_CASES[case]
    spec = make()
    planned = plan(spec)
    transformed, u0 = planned.transformed, planned.start
    stats = {"active": 0, "wrap": 0, "abutting": 0}
    expected = _reference_chain(transformed, u0, steps, np.random.default_rng(29), stats)
    chain = chain_states(transformed, u0, steps, np.random.default_rng(29))
    assert np.array_equal(chain, expected)
    if check is not None:
        assert check(stats, steps), stats


def test_many_segments_chain_matches_reference_bit_for_bit():
    # Chains rarely see more than a few segments; numpy sums 8 or more
    # pairwise. The first nu is known from the seed, so the problem is built
    # around it: y0 orthogonal to nu and as long makes the first ellipse a
    # circle, which pokes out of all 16 sides of a polygon whose vertex
    # points at y0, leaving 16 feasible pieces. With sigma = I, u = y.
    sides = 16
    for seed in range(20):
        nu = np.random.default_rng(seed).standard_normal(2)
        y0 = np.array([-nu[1], nu[0]])
        normals = np.arctan2(y0[1], y0[0]) + np.pi * (1 + 2 * np.arange(sides)) / sides
        A = -np.column_stack([np.cos(normals), np.sin(normals)])
        b = np.full(sides, np.hypot(*nu) / 1.01)
        spec = ProblemSpec(mu=np.zeros(2), sigma=np.eye(2), A=A, b=b)
        transformed = build_transform(spec)
        # one more: the piece through the state is cut in two at theta = 0
        assert len(active_arcs(y0, nu, transformed.G, transformed.k).intervals) == sides + 1
        expected = _reference_chain(transformed, y0, 3, np.random.default_rng(seed))
        chain = chain_states(transformed, y0, 3, np.random.default_rng(seed))
        assert np.array_equal(chain, expected)


def test_active_arcs_match_reference_on_criterion_8_instances():
    rng = np.random.default_rng(401)  # the instances of criterion 8
    for _ in range(1_000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        H = rng.normal(size=(m, n))
        y = rng.normal(size=n)
        k = rng.uniform(0.05, 1.0, size=m) - H @ y
        nu = rng.normal(size=n)
        expected = _reference_intervals(H @ y, H @ nu, k)
        assert np.array_equal(active_arcs(y, nu, H, k).intervals, expected)


def test_sweep_matches_reference_on_abutting_pieces():
    # Forbidden arcs meet end to start only where their endpoints round to
    # the same float, so the rows are drawn from exact directions and
    # ratios (the grid family below), where that is common. A start equal
    # to the ends reached so far opens no gap in either sweep.
    rng = np.random.default_rng(31)
    stats = {"active": 0, "abutting": 0}
    for index in range(2_000):
        along_y, along_nu, k = _arc_instance("grid", rng)
        expected = _outcome(_reference_intervals, along_y, along_nu, k, stats)
        got = _outcome(_feasible_segments, along_y, along_nu, k)
        assert _same_outcome(got, expected), index
    assert stats["abutting"] > 0, stats


# Exact directions: arctan2 of these is 0, +-pi/4, +-pi/2, +-3pi/4 or +-pi,
# signed zeros included, and k = c * radius with c a power of two makes the
# ratio k / radius exactly c, so endpoints coincide, at 0 and 2 pi too
_GRID_DIRECTIONS = [
    (y, nu) for y in (1.0, 0.0, -0.0, -1.0) for nu in (1.0, 0.0, -0.0, -1.0) if y or nu
]
_GRID_RATIOS = (0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 2.0, -2.0)


def _arc_instance(family, rng):
    """(along_y, along_nu, k) for one instance of the family."""
    m = int(rng.integers(1, 121)) if rng.random() < 0.03 else int(rng.integers(1, 9))
    if family == "grid":
        rows = rng.integers(len(_GRID_DIRECTIONS), size=m)
        scale = rng.choice([0.5, 1.0, 2.0], size=m)
        along_y, along_nu = (np.array(_GRID_DIRECTIONS)[rows] * scale[:, None]).T.copy()
        return along_y, along_nu, rng.choice(_GRID_RATIOS, size=m) * np.hypot(along_y, along_nu)
    along_y, along_nu = rng.normal(size=(2, m))
    if family == "long_step":  # offsets slack - along_a, as a long step passes them
        return along_y, along_nu, rng.uniform(0.0, 1.0, m) - along_y
    if family == "wrap":  # some rows within the state check's tolerance of failing
        slack = rng.uniform(0.01, 1.0, m)
        near = rng.random(m) < 0.3
        slack[near] = rng.uniform(-SLACK_TOL, 0.0, np.count_nonzero(near))
        return along_y, along_nu, slack - along_y
    if rng.random() < 0.5:  # theta = 0 feasible, as on every chain step
        k = rng.uniform(0.01, 1.0, m) - along_y
    else:
        k = rng.normal(size=m)
    if family == "signed_zero":
        for values in (along_y, along_nu, k):
            values[rng.random(m) < 0.3] = rng.choice([0.0, -0.0])
    if family == "nan":
        (along_y, along_nu, k)[rng.integers(3)][rng.integers(m, size=2)] = np.nan
    return along_y, along_nu, k


def _outcome(find_segments, *args):
    """Segments as int64 bits (so -0.0 counts), or the exception's type and text."""
    try:
        segments = find_segments(*args)
    except EmptyArcSet as error:
        return type(error), str(error)
    return np.asarray(segments, dtype=float).reshape(-1, 2).view(np.int64)


def _same_outcome(got, expected):
    """Whether two _outcome results are the same error or the same bits."""
    if isinstance(got, tuple) or isinstance(expected, tuple):
        return isinstance(got, tuple) and isinstance(expected, tuple) and got == expected
    return got.shape == expected.shape and np.array_equal(got, expected)


def test_feasible_segments_match_the_frozen_sweep():
    rng = np.random.default_rng(211)
    stats = {"abutting": 0, "unclipped": 0}
    several, raised = 0, set()
    families = ["random", "grid", "signed_zero", "nan", "long_step", "wrap"]
    for index in range(21_000):
        family = families[index % len(families)]
        along_y, along_nu, k = _arc_instance(family, rng)
        with np.errstate(invalid="ignore"):
            expected = _outcome(_frozen_feasible_segments, along_y, along_nu, k, stats)
            got = _outcome(_feasible_segments, along_y, along_nu, k)
        if isinstance(expected, tuple):
            raised.add(expected)
        else:
            several += expected.shape[0] > 2
        assert _same_outcome(got, expected), (family, index)
    assert stats["abutting"] > 0 and stats["unclipped"] > 0 and several > 0, (stats, several)
    assert {message for _, message in raised} == {
        "a constraint excludes the entire ellipse",
        "constraint arcs intersect in a set of measure zero",
    }


# The thin-region chain: block steps in the Dikin ellipsoid's eigenbasis


def slab(sigma=None, seed=41, plane=False):
    """A rotated 3-D region: |w1| <= 1e-3, -1 <= w2 <= 2, w3 free, w = R' x.

    Its four rows are scaled by random positive factors. With plane, the
    equality w3 = 0.1 pins the free direction. Returns the problem and the
    rotation R, whose columns are the directions of w.
    """
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    r1, r2 = rotation[:, 0], rotation[:, 1]
    scales = np.exp(rng.uniform(-2.0, 2.0, 4))
    A = np.vstack([r1, -r1, r2, -r2]) * scales[:, None]
    b = np.array([1e-3, 1e-3, 1.0, 2.0]) * scales
    sigma = np.eye(3) if sigma is None else sigma(rotation)
    C, d = (rotation[:, 2:].T, [-0.1]) if plane else (None, None)
    return ProblemSpec(mu=np.zeros(3), sigma=sigma, A=A, b=b, C=C, d=d), rotation


SLAB_LOWS, SLAB_HIGHS = np.array([-1e-3, -1.0, -np.inf]), np.array([1e-3, 2.0, np.inf])


def chain_setup(spec):
    """The chain's latent map, its start and its number of long coordinates,
    as sample_constrained runs it. On a thin region the map and the start
    are in the Dikin eigenbasis R (B R, G R and R' u0); long is None for
    the plain chain."""
    planned = plan(spec)
    transformed, u0 = planned.transformed, planned.start
    axes = long_directions(transformed, u0)
    if axes is None:
        return transformed, u0, None
    R, long = axes
    return replace(transformed, B=transformed.B @ R, G=transformed.G @ R), R.T @ u0, long


def axis_counts(spec):
    """The numbers of long and of thin axes, (0, 0) for the plain chain."""
    transformed, _, long = chain_setup(spec)
    return (0, 0) if long is None else (long, transformed.G.shape[1] - long)


def normal_pdf(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def truncated_normal_moments(low, high):
    """Mean and variance of N(0, 1) restricted to [low, high]."""
    mass = 0.5 * (math.erf(high / math.sqrt(2.0)) - math.erf(low / math.sqrt(2.0)))
    mean = (normal_pdf(low) - normal_pdf(high)) / mass
    return mean, 1.0 + (low * normal_pdf(low) - high * normal_pdf(high)) / mass - mean**2


def test_long_directions_span_the_long_axes_of_the_slab():
    spec, rotation = slab()
    planned = plan(spec)
    transformed, u0 = planned.transformed, planned.start
    R, long = long_directions(transformed, u0)
    assert R.shape == (3, 3) and long == 2
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
    # the Dikin ellipsoid's semi-axis along column j of R is 1 / |D R_j|:
    # at least THIN on the first `long` columns, below it on the others
    D = transformed.G / (transformed.G @ u0 + transformed.k)[:, None]
    semi_axes = 1.0 / np.linalg.norm(D @ R, axis=0)
    assert (semi_axes[:long] >= THIN).all() and (semi_axes[long:] < THIN).all(), semi_axes
    # Sigma = I: the long directions of x, B R[:, :2], are w2 and w3, orthogonal to the thin w1
    P = transformed.B @ R[:, :long]
    np.testing.assert_allclose(rotation[:, 0] @ P, 0.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.svd(rotation[:, 1:].T @ P)[1], 1.0, atol=1e-9)
    # and the thin direction of x, B R[:, 2:], is w1
    np.testing.assert_allclose(np.abs(rotation[:, 0] @ transformed.B @ R[:, long:]), 1.0, atol=1e-9)


def test_long_directions_are_whitened_orthonormal():
    # with a correlated sigma, R is orthogonal and the directions of x it
    # gives, P = B R = L R, long ones first, are orthonormal under sigma^-1
    spec, _ = slab(sigma=lambda rotation: random_spd(np.random.default_rng(43), 3))
    planned = plan(spec)
    R, long = long_directions(planned.transformed, planned.start)
    assert long == 2
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)
    P = planned.transformed.B @ R
    np.testing.assert_allclose(P.T @ np.linalg.solve(spec.sigma, P), np.eye(3), atol=1e-10)


def test_long_chain_matches_truncated_normal_moments_and_beats_the_plain_chain():
    expected = [
        truncated_normal_moments(-1e-3, 1e-3),
        truncated_normal_moments(-1.0, 2.0),
        (0.0, 1.0),
    ]
    # on the plane w3 = 0.1, w3 is fixed and w1, w2 keep their laws (sigma = I)
    for plane, free in ((False, 3), (True, 2)):
        spec, rotation = slab(plane=plane)
        transformed, w0, long = chain_setup(spec)
        assert long == free - 1
        steps = 20_000
        chain = chain_states(transformed, w0, steps, np.random.default_rng(47), long)
        plain = chain_states(transformed, w0, steps, np.random.default_rng(47))
        chain = chain @ transformed.B.T + transformed.g
        plain = plain @ transformed.B.T + transformed.g
        if plane:
            np.testing.assert_allclose(chain @ rotation[:, 2], 0.1, atol=1e-12)
        w = chain @ rotation[:, :free]
        stats = sample_stats(w)
        centered = (w - stats.mean) ** 2
        var_se = centered.std(axis=0, ddof=1) / np.sqrt(stats.ess)
        for i, (mean, var) in enumerate(expected[:free]):
            assert abs(stats.mean[i] - mean) <= 4.0 * stats.mean_se[i], (i, stats.mean[i], mean)
            variance = stats.covariance[i, i]
            assert abs(variance - var) <= 4.0 * var_se[i], (i, variance, var)
        assert stats.ess.min() >= 5.0 * sample_stats(plain @ rotation[:, :free]).ess.min()


@pytest.mark.parametrize(
    "make, expected",
    [(lambda: slab()[0], (2, 1)), (rotated_box, (0, 0))],
    ids=["slab", "rotated_box"],
)
def test_long_direction_count_is_invariant_to_row_transformations(make, expected):
    # expected: the numbers of long and of thin axes
    spec = make()
    rng = np.random.default_rng(53)
    m = spec.m
    assert axis_counts(spec) == expected
    variants = {
        "scale 1e-6": np.full(m, 1e-6),
        "scale 1e6": np.full(m, 1e6),
        "scale random": np.exp(rng.uniform(-6.0, 6.0, m) * np.log(10.0)),
    }
    for name, scales in variants.items():
        scaled = ProblemSpec(spec.mu, spec.sigma, A=spec.A * scales[:, None], b=spec.b * scales)
        assert axis_counts(scaled) == expected, name
    permuted = rng.permutation(m)
    duplicated = np.concatenate([np.arange(m), rng.choice(m, size=m // 2, replace=False)])
    for rows in (permuted, duplicated):
        chosen = ProblemSpec(spec.mu, spec.sigma, A=spec.A[rows], b=spec.b[rows])
        assert axis_counts(chosen) == expected
    # a zero row with zero offset holds everywhere, with zero slack at y0
    A, b = np.vstack([spec.A, np.zeros(spec.n)]), np.append(spec.b, 0.0)
    assert axis_counts(ProblemSpec(spec.mu, spec.sigma, A=A, b=b)) == expected


def test_no_thin_direction_skips_the_eigendecomposition(monkeypatch):
    spec = rotated_box()
    planned = plan(spec)
    transformed, u0 = planned.transformed, planned.start
    D = transformed.G / (transformed.G @ u0 + transformed.k)[:, None]
    assert np.sum(D * D) <= 1.0 / THIN**2  # the trace bound holds on the box

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran although the trace proves no direction thin")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert long_directions(transformed, u0) is None


def test_every_direction_thin_keeps_the_plain_chain():
    # a cube of half-width 1e-3: every semi-axis is far below THIN
    A = np.vstack([np.eye(3), -np.eye(3)])
    spec = ProblemSpec(mu=np.zeros(3), sigma=np.eye(3), A=A, b=np.full(6, 1e-3))
    assert chain_setup(spec)[2] is None


def test_singular_sigma_takes_long_steps():
    # sigma of rank 2 leaves u two coordinates, w1 and w2 of x; the slab is
    # thin in w1 and long in w2, so one of the two is long
    spec, rotation = slab(sigma=lambda rotation: rotation @ np.diag([1.0, 1.0, 0.0]) @ rotation.T)
    transformed, _, long = chain_setup(spec)
    assert spec.factor.rank == 2 and transformed.B.shape == (3, 2)
    assert axis_counts(spec) == (1, 1)
    P = transformed.B[:, :long]  # B R: the long direction of x is w2
    np.testing.assert_allclose(np.abs(rotation[:, 1] @ P), 1.0, atol=1e-9)


class _FaultyRandom:
    """A generator whose first uniform of its `call`-th random(size) draw,
    the angle of the first step of block `call`, is `value` instead."""

    def __init__(self, seed, value, call=0):
        self._rng = np.random.default_rng(seed)
        self._value, self._call = value, call
        self.standard_normal = self._rng.standard_normal

    def random(self, size):
        draws = self._rng.random(size)
        if self._call == 0:
            draws[0] = self._value
        self._call -= 1
        return draws


@pytest.mark.parametrize("value", [-1e3, -np.inf], ids=["violating", "nan"])
def test_corrupted_state_raises_on_a_long_step(value):
    # a draw far below [0, 1) puts step 0's angle, a thin step's, a thousand
    # total measures off the arcs, so the state that step 1, a long step,
    # starts from is corrupted; -inf puts the angle at -inf, where cos and
    # sin are undefined
    spec, _ = slab()
    transformed, w0, long = chain_setup(spec)
    with pytest.raises(NumericalBreakdown, match="corrupted"):
        chain_states(transformed, w0, 2, _FaultyRandom(59, value), long)
    if value == -np.inf:  # an infinite angle raises on the step that draws it
        with pytest.raises(NumericalBreakdown, match="corrupted"):
            chain_states(transformed, w0, 1, _FaultyRandom(59, value), long)
    else:  # the same first step passes with one step only: nothing checks its output
        single = chain_states(transformed, w0, 1, _FaultyRandom(59, value), long)
        assert single.shape == (1, 3)


def test_an_infinite_angle_raises_on_a_long_step():
    # step 1, a long step, opens block 1: its uniform is the first of call 1
    spec, _ = slab()
    transformed, w0, long = chain_setup(spec)
    with pytest.raises(NumericalBreakdown, match="corrupted"):
        chain_states(transformed, w0, 2, _FaultyRandom(59, -np.inf, call=1), long)
    # so the angle raises, not a state check: no later step checks step 1's
    # output, and a finite angle as far off passes
    off = chain_states(transformed, w0, 2, _FaultyRandom(59, -1e3, call=1), long)
    assert off.shape == (2, 3)


def test_long_chain_even_steps_use_the_thin_axis_draws():
    # on the pentagon (two long and two thin coordinates) step 0 is a thin
    # step: it draws one normal vector and one uniform and moves coordinate
    # 2 alone, along nu's coordinate 2, over the slack of the others
    transformed, w0, long = chain_setup(pentagon_problem("inequality"))
    assert long == 2 and w0.size == 4
    first = chain_states(transformed, w0, 1, np.random.default_rng(61), long)
    rng = np.random.default_rng(61)
    (nu,), (r,) = rng.standard_normal((1, 4)), rng.random(1)
    G, k = transformed.G, transformed.k
    thin = np.eye(4)[2]
    rest = w0 - w0[2] * thin
    arcs = active_arcs(w0[2] * thin, nu[2] * thin, G, G @ rest + k).intervals
    theta = _angle_at(arcs.tolist(), float(np.sum(arcs[:, 1] - arcs[:, 0])) * r)
    expected = rest + thin * (w0[2] * math.cos(theta) + nu[2] * math.sin(theta))
    np.testing.assert_allclose(first[0], expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "make", [lambda: slab()[0], lambda: pentagon_problem("inequality")], ids=["slab", "pentagon"]
)
def test_each_step_moves_only_its_block(make):
    # even step i moves the thin coordinate long + (i // 2) mod t alone and
    # odd steps [0, long) alone: every other coordinate keeps its bits, and
    # each moved one changes
    transformed, w0, long = chain_setup(make())
    dimension = w0.size
    chain = chain_states(transformed, w0, 400, np.random.default_rng(61), long)
    assert (chain @ transformed.G.T + transformed.k).min() >= -SLACK_TOL
    for i, (before, after) in enumerate(zip(np.vstack([w0, chain]), chain)):
        block = [long + (i // 2) % (dimension - long)] if i % 2 == 0 else range(long)
        moved = before != after
        assert moved[list(block)].all() and np.count_nonzero(moved) == len(block), (i, moved)


def test_slab_marginals_match_truncated_normal_cdfs(monkeypatch):
    # the thin-region kernel on the slab: w1 is N(0, 1) truncated to
    # [-1e-3, 1e-3], w2 to [-1, 2], and w3 is N(0, 1). KS distance times
    # root ESS, as on the box, with its bound of 2.0: the real kernel reads
    # 0.5-1.3 at 20k steps (seeds 1-8), theta drawn from one gap only about
    # 6. The ESS per 1000 steps of w1, w2 and w3 read 471-497, 246-309 and
    # 147-179 at seeds 1-4, and each has a floor of about half its least:
    # block steps that add nu sin(theta) unmasked, over the whole state,
    # leave w3 a random walk whose variance reads 1.3-3.1, but its ESS
    # reads about 1 and keeps its score under 2.0
    spec, rotation = slab()
    transformed, w0, long = chain_setup(spec)
    assert long == 2

    def scores(seed):
        chain = chain_states(transformed, w0, 20_000, np.random.default_rng(seed), long)
        x = chain @ transformed.B.T + transformed.g
        return ks_times_root_ess(x @ rotation, SLAB_LOWS, SLAB_HIGHS)

    for seed in (1, 2, 3, 4):
        score, ess = scores(seed)
        assert max(score) < 2.0, seed
        assert (ess >= [240.0, 120.0, 70.0]).all(), (seed, ess)
    feasible_segments = elliptical_slice._feasible_segments
    # theta drawn from the first gap, [0, s1], only
    monkeypatch.setattr(elliptical_slice, "_feasible_segments", lambda *a: feasible_segments(*a)[:1])
    assert max(scores(1)[0]) > 2.0


@pytest.mark.parametrize(
    "make", [lambda: slab()[0], lambda: pentagon_problem("inequality")], ids=["slab", "pentagon"]
)
def test_long_chain_matches_the_frozen_loop_bit_for_bit(make):
    transformed, w0, long = chain_setup(make())
    assert long is not None
    steps = 2_000
    expected = np.empty((steps, w0.size))
    _frozen_fill_chain(transformed, w0, expected, np.random.default_rng(67), long)
    chain = chain_states(transformed, w0, steps, np.random.default_rng(67), long)
    assert np.array_equal(chain, expected)
    # the per-arc reference, one step at a time, takes the same path
    stats = {"active": 0, "wrap": 0, "abutting": 0}
    reference = _reference_chain(transformed, w0, steps, np.random.default_rng(67), stats, long)
    assert np.array_equal(chain, reference)
    assert stats["active"] >= steps, stats
    # with a burn-in and thinning, over 3 * 700 + 101 steps
    expected = np.empty((700, w0.size))
    _frozen_fill_chain(transformed, w0, expected, np.random.default_rng(71), long, 101, 3)
    rows = np.empty_like(expected)
    fill_chain(transformed, w0, rows, np.random.default_rng(71), long, burn_in=101, thin=3)
    assert np.array_equal(rows, expected)


def test_thin_steps_lift_the_pentagon_chains_ess():
    # the same 20k-step call made a minimum ESS of 758 when its even steps
    # were full-ellipse steps
    outcome = sample_constrained(pentagon_problem("inequality"), 20_000, 1)
    assert outcome.report.long_directions == 2
    assert sample_stats(outcome.samples).ess.min() >= 2 * 758


# The block schedule: a chain is a prefix of any longer one with its seed,
# and it draws exactly the documented blocks


PREFIX_CHAINS = {
    # name: (problem, whether the chain alternates long steps)
    "rotated_box": (rotated_box, False),
    "pentagon_both": (lambda: pentagon_problem("both"), False),
    "slab": (lambda: slab()[0], True),
    "pentagon": (lambda: pentagon_problem("inequality"), True),
}
PREFIX_LENGTHS = [1, 2, 3, 63, 64, 65, 127, 1000]


@pytest.mark.parametrize("name", list(PREFIX_CHAINS))
def test_a_shorter_chain_is_a_prefix_of_a_longer_one(name):
    make, alternates = PREFIX_CHAINS[name]
    transformed, w0, long = chain_setup(make())
    assert (long is not None) == alternates
    full = chain_states(transformed, w0, 2_000, np.random.default_rng(73), long)
    for n in PREFIX_LENGTHS:
        chain = chain_states(transformed, w0, n, np.random.default_rng(73), long)
        assert np.array_equal(chain, full[:n]), n
    # with a burn-in and thinning, the kept states are a prefix too
    rows = np.empty((2_000, w0.size))
    fill_chain(transformed, w0, rows, np.random.default_rng(79), long, 37, 3)
    for n in PREFIX_LENGTHS:
        part = np.empty((n, w0.size))
        fill_chain(transformed, w0, part, np.random.default_rng(79), long, 37, 3)
        assert np.array_equal(part, rows[:n]), n


def _draw_the_schedule(rng, steps, dimension):
    """Draw what the documented blocks of a chain of `steps` steps draw:
    one normal vector per step, then one uniform per step."""
    for _, size in _schedule(steps):
        rng.standard_normal((size, dimension))
        rng.random(size)


@pytest.mark.parametrize("name", list(PREFIX_CHAINS))
@pytest.mark.parametrize("rows, burn_in, thin", [(1, 0, 1), (64, 0, 1), (700, 101, 3)])
def test_a_chain_draws_the_documented_blocks(name, rows, burn_in, thin):
    transformed, w0, long = chain_setup(PREFIX_CHAINS[name][0]())
    generator, reference = np.random.default_rng(83), np.random.default_rng(83)
    fill_chain(transformed, w0, np.empty((rows, w0.size)), generator, long, burn_in, thin)
    _draw_the_schedule(reference, burn_in + rows * thin, w0.size)
    assert generator.bit_generator.state == reference.bit_generator.state


def test_the_schedule_doubles_to_the_cap():
    sizes = [size for _, size in _schedule(10 * DRAW_BLOCK)]
    doubling = [2**i for i in range(DRAW_BLOCK.bit_length() - 1)]
    assert sizes[: len(doubling)] == doubling
    assert set(sizes[len(doubling) :]) == {DRAW_BLOCK}
    assert [tuple(block) for block in doubling_blocks(10 * DRAW_BLOCK, DRAW_BLOCK)] == _schedule(
        10 * DRAW_BLOCK
    )
