import math

import numpy as np
import pytest

from lingauss.elliptical_slice import (
    DRAW_BLOCK,
    SLACK_TOL,
    THIN,
    ArcSet,
    _angle_at,
    _check_state,
    _feasible_segments,
    _intersect,
    active_arcs,
    fill_chain,
    long_directions,
)
from lingauss.errors import EmptyArcSet, NumericalBreakdown
from lingauss.fixtures import pentagon_problem
from lingauss.linalg import doubling_blocks
from lingauss.problem import ProblemSpec
from lingauss.sampler import plan
from lingauss.stats import sample_stats
from lingauss.transform import build_transform

from conftest import random_spd


# Reference: the per-arc slice step that the chain replaced, kept verbatim in
# arithmetic apart from running on u ~ N(0, I_k) under G u + k >= 0. The
# chain must reproduce its output bit for bit.


def _reference_wrap_arc(start, end):
    shift = np.floor((start + np.pi) / (2.0 * np.pi)) * (2.0 * np.pi)
    start -= shift
    end -= shift
    if end <= np.pi:
        return [(start, end)]
    return [(-np.pi, end - 2.0 * np.pi), (start, np.pi)]


def _reference_intersect(pieces, needed, stats=None):
    events = []
    for start, end in pieces:
        events.append((start, 1))
        events.append((end, -1))
    events.sort(key=lambda event: (event[0], -event[1]))
    segments = []
    cover = 0
    previous = -np.pi
    for angle, delta in events:
        if cover == needed and angle > previous:
            if stats is not None and segments and segments[-1][1] == previous:
                stats["touching"] += 1  # kept apart, as the sweep keeps them
            segments.append((previous, angle))
        cover += delta
        previous = angle
    return segments


def _reference_intervals(along_y, along_nu, k, stats=None):
    radius = np.hypot(along_y, along_nu)
    inactive = k >= radius
    if np.any(~inactive & (k <= -radius)):
        raise EmptyArcSet("a constraint excludes the entire ellipse")
    active = ~inactive
    if not active.any():
        return np.array([[-np.pi, np.pi]])
    phase = np.arctan2(along_nu[active], along_y[active])
    half_width = np.arccos(np.clip(-k[active] / radius[active], -1.0, 1.0))
    pieces = []
    for mid, half in zip(phase, half_width):
        pieces.extend(_reference_wrap_arc(mid - half, mid + half))
    if stats is not None:
        stats["active"] += int(active.sum())
        stats["crossing"] += len(pieces) - int(active.sum())
    segments = _reference_intersect(pieces, int(active.sum()))
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


def _reference_chain(transformed, u0, n_steps, rng, stats=None):
    H, k = transformed.G, transformed.k
    y = np.asarray(u0, dtype=float)
    out = np.empty((n_steps, y.size))
    for start, size in _schedule(n_steps):
        nus = rng.standard_normal((size, y.size))
        along_nus = nus @ H.T
        uniforms = rng.random(size)
        for j in range(min(size, n_steps - start)):
            if H.shape[0]:
                along_y = H @ y
                assert float((along_y + k).min()) >= -SLACK_TOL
                intervals = _reference_intervals(along_y, along_nus[j], k, stats)
            else:
                intervals = np.array([[-np.pi, np.pi]])
            total = sum((intervals[:, 1] - intervals[:, 0]).tolist())
            theta = _reference_sample(intervals, total * uniforms[j])
            y = y * math.cos(theta) + nus[j] * math.sin(theta)
            out[start + j] = y
    return out


# Frozen: the sweep as it stood before it merged sorted start and end
# lists, verbatim in arithmetic apart from the names, the `stats` counters
# and the merge of touching pieces, which the sweep no longer makes
# (_angle_at and _check_state did not change), and the draw and
# the chain loop as they stood when the draws moved into blocks, run on
# u ~ N(0, I_k) under G u + k >= 0, with long directions Q for P and Q'
# for M. The arc code and the chains must reproduce them bit for bit.


def _frozen_intersect(events, needed, stats=None):
    events.sort()
    segments = []
    cover = 0
    previous = -np.pi
    for angle, step in events:
        if cover == needed and angle > previous:
            if stats is not None and segments and segments[-1][1] == previous:
                stats["touching"] += 1  # kept apart, as the sweep keeps them
            segments.append([previous, angle])
        cover -= step
        previous = angle
    return segments


def _frozen_feasible_segments(along_y, along_nu, k, stats=None):
    radius = np.hypot(along_y, along_nu)
    active = ~(k >= radius)  # k >= radius: the whole circle satisfies row i
    needed = np.count_nonzero(active)
    if not needed:
        return [[-np.pi, np.pi]]
    neg_k, radius = -k[active], radius[active]
    if np.count_nonzero(neg_k >= radius):  # k <= -radius
        raise EmptyArcSet("a constraint excludes the entire ellipse")
    phase = np.arctan2(along_nu[active], along_y[active])
    half_width = np.arccos(neg_k / radius)
    start = phase - half_width
    end = phase + half_width
    shift = np.floor((start + np.pi) / (2.0 * np.pi)) * (2.0 * np.pi)
    start = start - shift
    end = end - shift
    events = []
    crossing = 0
    for s, e in zip(start.tolist(), end.tolist()):
        if e > np.pi:
            e -= 2.0 * np.pi
            crossing += 1
        events += ((s, -1), (e, 1))
    if crossing:
        events += ((-np.pi, -crossing), (np.pi, crossing))
        if stats is not None:
            stats["crossing"] += 1
    segments = _frozen_intersect(events, needed, stats)
    if not segments:
        raise EmptyArcSet("constraint arcs intersect in a set of measure zero")
    return segments


def _frozen_draw_angle(segments, u):
    total = sum([end - start for start, end in segments])
    return _angle_at(segments, total * u)


def _frozen_fill_chain(transformed, u0, rows, rng, long=None, burn_in=0, thin=1):
    y = np.asarray(u0, dtype=float)
    H, k = transformed.G, transformed.k
    has_rows = H.shape[0] > 0
    dimension = y.size
    if long is not None:
        P, M = long, long.T
        HP, width = H @ P, P.shape[1]
    kept = 0
    keep = burn_in
    steps = burn_in + len(rows) * thin
    for start, size in _schedule(steps):
        block = range(start, start + size)
        full = [i for i in block if long is None or i % 2 == 0]
        nus = rng.standard_normal((len(full), dimension))
        along_nus = nus @ H.T
        if long is not None:
            zs = rng.standard_normal((size - len(full), width))
            along_zs = zs @ HP.T
        uniforms = rng.random(size).tolist()
        full_row = long_row = 0
        for i in block[: steps - start]:
            u = uniforms[i - start]
            if long is not None and i % 2:
                slack = H @ y + k
                _check_state(slack)
                a = M @ y
                along_a = HP @ a
                theta = _frozen_draw_angle(
                    _frozen_feasible_segments(along_a, along_zs[long_row], slack - along_a), u
                )
                y = y + P @ (a * (math.cos(theta) - 1.0) + zs[long_row] * math.sin(theta))
                long_row += 1
            else:
                if has_rows:
                    along_y = H @ y
                    _check_state(along_y + k)
                    segments = _frozen_feasible_segments(along_y, along_nus[full_row], k)
                else:
                    segments = [[-np.pi, np.pi]]
                theta = _frozen_draw_angle(segments, u)
                y = y * math.cos(theta) + nus[full_row] * math.sin(theta)
                full_row += 1
            if i == keep:
                rows[kept] = y
                kept += 1
                keep += thin


def chain_states(transformed, u0, n_steps, rng, long=None):
    """The n_steps states after u0, one per row: fill_chain over a new array."""
    rows = np.empty((n_steps, np.size(u0)))
    fill_chain(transformed, u0, rows, rng, long)
    return rows


def member(intervals, theta):
    """Whether each theta lies in one of the closed intervals."""
    intervals = np.asarray(intervals)
    theta = np.asarray(theta)[..., None]
    return np.any((intervals[:, 0] <= theta) & (theta <= intervals[:, 1]), axis=-1)


def grid_feasible_mask(y, nu, H, k, n_grid=10_000):
    """Brute-force feasibility of theta over an even grid of the circle."""
    theta = -np.pi + 2 * np.pi * np.arange(n_grid) / n_grid
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
    rng = np.random.default_rng(97)
    for _ in range(200):
        y, nu, H, k = random_feasible_instance(rng)
        assert member(active_arcs(y, nu, H, k).intervals, 0.0)


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
    with pytest.raises(EmptyArcSet):
        active_arcs([0.3], [0.4], H, k)


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
    # y >= -0.5: the feasible arc is wider than pi, so most arcs cross the seam
    "seam": (
        lambda: ProblemSpec(
            mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.5])
        ),
        5_000,
        lambda s, steps: s["crossing"] >= steps // 4,
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
    stats = {"active": 0, "crossing": 0}
    expected = _reference_chain(transformed, u0, steps, np.random.default_rng(29), stats)
    chain = chain_states(transformed, u0, steps, np.random.default_rng(29))
    assert np.array_equal(chain, expected)
    if check is not None:
        assert check(stats, steps), stats


def test_no_rows_chain_matches_reference_bit_for_bit():
    spec = ProblemSpec(mu=np.zeros(3), sigma=random_spd(np.random.default_rng(5), 3))
    transformed = build_transform(spec)
    expected = _reference_chain(transformed, np.ones(3), 500, np.random.default_rng(3))
    chain = chain_states(transformed, np.ones(3), 500, np.random.default_rng(3))
    assert np.array_equal(chain, expected)


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
        # one more when a segment straddles the seam at +-pi
        assert len(active_arcs(y0, nu, transformed.G, transformed.k).intervals) >= sides
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
    # Arcs computed from finite projections never abut exactly, so touching
    # pieces, which neither sweep merges, are made here from endpoints drawn
    # from a coarse grid, where shared endpoints are common; split rows are
    # given as _feasible_segments gives them to the sweep: a start, an end
    # and one more seam crossing.
    grid = np.linspace(-np.pi, np.pi, 9)[1:-1]
    rng = np.random.default_rng(31)
    stats = {"touching": 0}
    for _ in range(2_000):
        needed = int(rng.integers(1, 5))
        pieces, starts, ends, crossing = [], [], [], 0
        for _ in range(needed):
            a, b = np.sort(rng.choice(grid, size=2))
            if rng.random() < 0.5:  # one piece [a, b], a point when a == b
                pieces.append((a, b))
                starts.append(float(a))
                ends.append(float(b))
            else:  # a seam-crossing arc [-pi, a] and [b, pi], abutting when a == b
                pieces += [(-np.pi, a), (b, np.pi)]
                starts.append(float(b))
                ends.append(float(a))
                crossing += 1
        expected = np.asarray(_reference_intersect(pieces, needed, stats)).reshape(-1, 2)
        segments = _intersect(starts, ends, crossing, needed)
        assert np.array_equal(np.asarray(segments).reshape(-1, 2), expected)
    assert stats["touching"] > 0


# Exact directions: arctan2 of these is 0, +-pi/4, +-pi/2, +-3pi/4 or +-pi,
# signed zeros included, and k = c * radius with c a power of two makes the
# ratio -k / radius exactly -c, so endpoints coincide and meet the seam
_GRID_DIRECTIONS = [
    (y, nu) for y in (1.0, 0.0, -0.0, -1.0) for nu in (1.0, 0.0, -0.0, -1.0) if y or nu
]
_GRID_RATIOS = (0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 2.0, -2.0)
# Endpoints of the sweep family: multiples of pi / 4, with both zeros
_GRID_ANGLES = [np.pi * i / 4 for i in range(-4, 5)] + [-0.0]


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


def _sweep_instance(rng):
    """The frozen sweep's events and the new sweep's lists for grid endpoints.

    Finite projections never give pieces that touch, so the sweep is fed
    directly: a row is one piece [a, b], or an arc split at the seam, whose
    pieces [-pi, a] and [b, pi] touch when a == b.
    """
    needed = int(rng.integers(1, 6))
    events, starts, ends, crossing = [], [], [], 0
    for _ in range(needed):
        a, b = sorted(rng.choice(len(_GRID_ANGLES), size=2).tolist(), key=_GRID_ANGLES.__getitem__)
        a, b = _GRID_ANGLES[a], _GRID_ANGLES[b]
        if rng.random() < 0.5 and -np.pi < a and b < np.pi:
            a, b = b, a  # start b, end a: the arc crosses the seam
            crossing += 1
        events += ((a, -1), (b, 1))
        starts.append(a)
        ends.append(b)
    if crossing:
        events += ((-np.pi, -crossing), (np.pi, crossing))
    return events, (starts, ends, crossing, needed), needed


def _outcome(find_segments, *args):
    """Segments as int64 bits (so -0.0 counts), or the exception's type and text."""
    try:
        segments = find_segments(*args)
    except EmptyArcSet as error:
        return type(error), str(error)
    return np.asarray(segments, dtype=float).reshape(-1, 2).view(np.int64)


def test_feasible_segments_match_the_frozen_sweep():
    rng = np.random.default_rng(211)
    stats = {"touching": 0, "crossing": 0}
    several, raised = 0, set()
    families = ["random", "grid", "signed_zero", "nan", "long_step", "sweep"]
    for index in range(21_000):
        family = families[index % len(families)]
        if family == "sweep":
            events, args, needed = _sweep_instance(rng)
            expected = _outcome(_frozen_intersect, events, needed, stats)
            got = _outcome(_intersect, *args)
        else:
            along_y, along_nu, k = _arc_instance(family, rng)
            with np.errstate(invalid="ignore"):
                expected = _outcome(_frozen_feasible_segments, along_y, along_nu, k, stats)
                got = _outcome(_feasible_segments, along_y, along_nu, k, -k)
        if isinstance(expected, tuple):
            raised.add(expected)
        elif family == "nan":
            # the frozen sweep sorts NaN endpoints among the others and can
            # return pieces; a row with a NaN arc now leaves no angle to draw
            assert got == (EmptyArcSet, "constraint arcs intersect in a set of measure zero")
            continue
        else:
            several += expected.shape[0] > 1
        assert isinstance(got, tuple) == isinstance(expected, tuple), (family, index)
        if isinstance(got, tuple):
            assert got == expected, (family, index)
        else:
            assert got.shape == expected.shape and np.array_equal(got, expected), (family, index)
    assert stats["touching"] > 0 and stats["crossing"] > 0 and several > 0, (stats, several)
    assert {message for _, message in raised} == {
        "a constraint excludes the entire ellipse",
        "constraint arcs intersect in a set of measure zero",
    }


# Long steps along the Dikin ellipsoid's long axes


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


def chain_setup(spec):
    """The latent map, the chain's start u0 and its long directions, from plan."""
    planned = plan(spec)
    transformed, u0 = planned.transformed, planned.start
    return transformed, u0, long_directions(transformed, u0)


def long_count(spec):
    return 0 if (long := chain_setup(spec)[2]) is None else long.shape[1]


def normal_pdf(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def truncated_normal_moments(low, high):
    """Mean and variance of N(0, 1) restricted to [low, high]."""
    mass = 0.5 * (math.erf(high / math.sqrt(2.0)) - math.erf(low / math.sqrt(2.0)))
    mean = (normal_pdf(low) - normal_pdf(high)) / mass
    return mean, 1.0 + (low * normal_pdf(low) - high * normal_pdf(high)) / mass - mean**2


def test_long_directions_span_the_long_axes_of_the_slab():
    spec, rotation = slab()
    transformed, u0, long = chain_setup(spec)
    assert long.shape == (3, 2)
    np.testing.assert_allclose(long.T @ long, np.eye(2), atol=1e-12)
    # Sigma = I: the long directions of x, B Q, are w2 and w3, orthogonal to the thin w1
    P = transformed.B @ long
    np.testing.assert_allclose(rotation[:, 0] @ P, 0.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.svd(rotation[:, 1:].T @ P)[1], 1.0, atol=1e-9)


def test_long_directions_are_whitened_orthonormal():
    # with a correlated sigma, Q is orthonormal and its directions of x,
    # P = B Q = L Q, are orthonormal under sigma^-1: P' sigma^-1 P = I
    spec, _ = slab(sigma=lambda rotation: random_spd(np.random.default_rng(43), 3))
    transformed, _, long = chain_setup(spec)
    P = transformed.B @ long
    np.testing.assert_allclose(P.T @ np.linalg.solve(spec.sigma, P), np.eye(2), atol=1e-10)
    np.testing.assert_allclose(long.T @ long, np.eye(2), atol=1e-10)


def test_long_chain_matches_truncated_normal_moments_and_beats_the_plain_chain():
    expected = [
        truncated_normal_moments(-1e-3, 1e-3),
        truncated_normal_moments(-1.0, 2.0),
        (0.0, 1.0),
    ]
    # on the plane w3 = 0.1, w3 is fixed and w1, w2 keep their laws (sigma = I)
    for plane, free in ((False, 3), (True, 2)):
        spec, rotation = slab(plane=plane)
        transformed, u0, long = chain_setup(spec)
        assert long.shape[1] == free - 1
        steps = 20_000
        chain = chain_states(transformed, u0, steps, np.random.default_rng(47), long)
        plain = chain_states(transformed, u0, steps, np.random.default_rng(47))
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
    "make, expected", [(lambda: slab()[0], 2), (rotated_box, 0)], ids=["slab", "rotated_box"]
)
def test_long_direction_count_is_invariant_to_row_transformations(make, expected):
    spec = make()
    rng = np.random.default_rng(53)
    m = spec.m
    assert long_count(spec) == expected
    variants = {
        "scale 1e-6": np.full(m, 1e-6),
        "scale 1e6": np.full(m, 1e6),
        "scale random": np.exp(rng.uniform(-6.0, 6.0, m) * np.log(10.0)),
    }
    for name, scales in variants.items():
        scaled = ProblemSpec(spec.mu, spec.sigma, A=spec.A * scales[:, None], b=spec.b * scales)
        assert long_count(scaled) == expected, name
    permuted = rng.permutation(m)
    duplicated = np.concatenate([np.arange(m), rng.choice(m, size=m // 2, replace=False)])
    for rows in (permuted, duplicated):
        chosen = ProblemSpec(spec.mu, spec.sigma, A=spec.A[rows], b=spec.b[rows])
        assert long_count(chosen) == expected
    # a zero row with zero offset holds everywhere, with zero slack at y0
    A, b = np.vstack([spec.A, np.zeros(spec.n)]), np.append(spec.b, 0.0)
    assert long_count(ProblemSpec(spec.mu, spec.sigma, A=A, b=b)) == expected


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
    transformed, u0, long = chain_setup(spec)
    assert spec.factor.rank == 2 and transformed.B.shape == (3, 2)
    assert long.shape == (2, 1)
    P = transformed.B @ long  # the long direction of x is w2
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
    # a draw far below [0, 1) puts step 0's angle a thousand total measures
    # off the arcs, so the state that step 1, a long step, starts from is
    # corrupted; -inf puts the angle at -inf, where cos and sin are undefined
    spec, _ = slab()
    transformed, u0, long = chain_setup(spec)
    with pytest.raises(NumericalBreakdown, match="corrupted"):
        chain_states(transformed, u0, 2, _FaultyRandom(59, value), long)
    if value == -np.inf:  # an infinite angle raises on the step that draws it
        with pytest.raises(NumericalBreakdown, match="corrupted"):
            chain_states(transformed, u0, 1, _FaultyRandom(59, value), long)
    else:  # the same first step passes with one step only: nothing checks its output
        single = chain_states(transformed, u0, 1, _FaultyRandom(59, value), long)
        assert single.shape == (1, 3)


def test_an_infinite_angle_raises_on_a_long_step():
    # step 1, a long step, opens block 1: its uniform is the first of call 1
    spec, _ = slab()
    transformed, u0, long = chain_setup(spec)
    with pytest.raises(NumericalBreakdown, match="corrupted"):
        chain_states(transformed, u0, 2, _FaultyRandom(59, -np.inf, call=1), long)
    # so the angle raises, not a state check: no later step checks step 1's
    # output, and a finite angle as far off passes
    off = chain_states(transformed, u0, 2, _FaultyRandom(59, -1e3, call=1), long)
    assert off.shape == (2, 3)


def test_long_chain_even_steps_use_the_full_step_draws():
    # step 0 is a full step: it takes the same draws and lands where the plain chain does
    spec, _ = slab()
    transformed, u0, long = chain_setup(spec)
    first = chain_states(transformed, u0, 1, np.random.default_rng(61), long)
    assert np.array_equal(first, chain_states(transformed, u0, 1, np.random.default_rng(61)))
    chain = chain_states(transformed, u0, 400, np.random.default_rng(61), long)
    assert (chain @ transformed.G.T + transformed.k).min() >= -SLACK_TOL
    # the long steps move only along the columns of Q
    step = chain[1::2] - chain[0:-1:2]
    residual = step - step @ long @ long.T
    assert np.abs(residual).max() <= 1e-12


@pytest.mark.parametrize(
    "make", [lambda: slab()[0], lambda: pentagon_problem("inequality")], ids=["slab", "pentagon"]
)
def test_long_chain_matches_the_frozen_loop_bit_for_bit(make):
    transformed, u0, long = chain_setup(make())
    assert long is not None
    steps = 2_000
    expected = np.empty((steps, u0.size))
    _frozen_fill_chain(transformed, u0, expected, np.random.default_rng(67), long)
    chain = chain_states(transformed, u0, steps, np.random.default_rng(67), long)
    assert np.array_equal(chain, expected)
    # with a burn-in and thinning, over 3 * 700 + 101 steps
    expected = np.empty((700, u0.size))
    _frozen_fill_chain(transformed, u0, expected, np.random.default_rng(71), long, 101, 3)
    rows = np.empty_like(expected)
    fill_chain(transformed, u0, rows, np.random.default_rng(71), long, burn_in=101, thin=3)
    assert np.array_equal(rows, expected)


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
    transformed, u0, long = chain_setup(make())
    assert (long is not None) == alternates
    full = chain_states(transformed, u0, 2_000, np.random.default_rng(73), long)
    for n in PREFIX_LENGTHS:
        chain = chain_states(transformed, u0, n, np.random.default_rng(73), long)
        assert np.array_equal(chain, full[:n]), n
    # with a burn-in and thinning, the kept states are a prefix too
    rows = np.empty((2_000, u0.size))
    fill_chain(transformed, u0, rows, np.random.default_rng(79), long, 37, 3)
    for n in PREFIX_LENGTHS:
        part = np.empty((n, u0.size))
        fill_chain(transformed, u0, part, np.random.default_rng(79), long, 37, 3)
        assert np.array_equal(part, rows[:n]), n


def _draw_the_schedule(rng, steps, dimension, width=None):
    """Draw what the documented blocks of a chain of `steps` steps draw."""
    for start, size in _schedule(steps):
        if width is None:
            rng.standard_normal((size, dimension))
        else:
            full = sum(1 for i in range(start, start + size) if i % 2 == 0)
            rng.standard_normal((full, dimension))
            rng.standard_normal((size - full, width))
        rng.random(size)


@pytest.mark.parametrize("name", list(PREFIX_CHAINS))
@pytest.mark.parametrize("rows, burn_in, thin", [(1, 0, 1), (64, 0, 1), (700, 101, 3)])
def test_a_chain_draws_the_documented_blocks(name, rows, burn_in, thin):
    transformed, u0, long = chain_setup(PREFIX_CHAINS[name][0]())
    generator, reference = np.random.default_rng(83), np.random.default_rng(83)
    fill_chain(transformed, u0, np.empty((rows, u0.size)), generator, long, burn_in, thin)
    width = None if long is None else long.shape[1]
    _draw_the_schedule(reference, burn_in + rows * thin, u0.size, width)
    assert generator.bit_generator.state == reference.bit_generator.state


def test_the_schedule_doubles_to_the_cap():
    sizes = [size for _, size in _schedule(10 * DRAW_BLOCK)]
    doubling = [2**i for i in range(DRAW_BLOCK.bit_length() - 1)]
    assert sizes[: len(doubling)] == doubling
    assert set(sizes[len(doubling) :]) == {DRAW_BLOCK}
    assert [tuple(block) for block in doubling_blocks(10 * DRAW_BLOCK, DRAW_BLOCK)] == _schedule(
        10 * DRAW_BLOCK
    )
