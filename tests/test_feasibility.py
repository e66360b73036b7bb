import numpy as np
import pytest
from scipy.optimize import linprog

import lingauss.feasibility
import lingauss.sampler
import lingauss.simplex
from lingauss.errors import DegenerateRegion, LinGaussError, NumericalBreakdown
from lingauss.feasibility import (
    FEAS_TOL,
    FeasibilityResult,
    classify_region,
    find_feasible_point,
    max_slack_model,
)
from lingauss.linalg import unit_rows
from lingauss.problem import ProblemSpec
from lingauss.sampler import POINT_TOL
from lingauss.simplex import solve_lp
from lingauss.transform import build_transform
from test_simplex import reference_phase_one, reference_phase_two

KINDS = {"impossible": "infeasible", "point_mass": "point_mass", "samples": "full_dimensional"}


def planned_region(H, k):
    """(kind, plan) of {x : H x + k >= 0} under N(0, I), where x is the
    LPs' y: the plan's verdict, named as find_feasible_point names a
    region's kind. An empty interior is settled only here, by the rounds
    that add its implicit equalities to the equality rows."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = H.shape[1]
    planned = lingauss.sampler.plan(ProblemSpec(mu=np.zeros(n), sigma=np.eye(n), A=H, b=k))
    return KINDS[planned.status], planned


def reference_radius(H, k, cap=1.0):
    """Chebyshev radius via scipy: max s s.t. H y + k >= s * rownorm, s <= cap."""
    m, n = H.shape
    norms = np.linalg.norm(H, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-H, norms[:, None]])
    result = linprog(
        c,
        A_ub=np.vstack([A_ub, np.eye(n + 1)[-1]]),
        b_ub=np.concatenate([k, [cap]]),
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    assert result.status == 0
    return -result.fun


def grid_classification(H, k, lo=-3.0, hi=3.0, steps=301):
    """Brute-force 2-D classification on a grid: fraction and extent of feasible cells."""
    axis = np.linspace(lo, hi, steps)
    xx, yy = np.meshgrid(axis, axis)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    feasible = np.all(points @ H.T + k >= -1e-12, axis=1)
    return points[feasible]


def test_infeasible_pair():
    H = np.array([[1.0], [-1.0]])
    k = np.array([-1.0, 0.0])  # y >= 1 and y <= 0
    result = find_feasible_point(H, k)
    assert result.kind == "infeasible"
    assert result.point is None


def test_point_mass_pair():
    H = np.array([[1.0], [-1.0]])
    k = np.array([0.0, 0.0])  # y >= 0 and y <= 0: both rows carry a multiplier
    result = find_feasible_point(H, k)
    assert result.kind == "empty_interior" and result.tight.tolist() == [0, 1]
    assert result.point is None and result.lp_solves == 1
    kind, planned = planned_region(H, k)  # the equations y = 0 fix the point
    assert kind == "point_mass" and planned.report.feasibility == "point_mass"
    assert planned.report.lp_solves == 1
    np.testing.assert_allclose(planned.point, [0.0], atol=1e-9)


def test_point_mass_2d_corner():
    H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    k = np.array([-2.0, 2.0, 1.0, -1.0])  # y1 = 2, y2 = -1
    # the slack LP's multipliers rest on one opposite pair, which fixes a
    # line; a second round's LP on that line finds the other pair
    assert find_feasible_point(H, k).tight.size == 2
    kind, planned = planned_region(H, k)
    assert kind == "point_mass"
    assert planned.report.lp_solves == 2
    np.testing.assert_allclose(planned.point, [2.0, -1.0], atol=1e-9)


def test_full_dimensional_box():
    H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    k = np.array([2.0, 3.0, 2.0, 3.0])  # -2 <= y <= 3 in both coordinates
    result = find_feasible_point(H, k)
    assert result.kind == "full_dimensional"
    assert result.chebyshev_radius == pytest.approx(1.0, abs=1e-9)  # capped
    slack = H @ result.point + k
    assert slack.min() >= 1e-7  # strictly interior


def test_degenerate_flat_region_raises():
    # y1 pinned to 0, y2 still free on [0, 5]: on the line y1 = 0 the rows
    # 0 <= y2 <= 5 leave an interior
    H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    k = np.array([0.0, 0.0, 0.0, 5.0])
    assert find_feasible_point(H, k).tight.tolist() == [0, 1]
    with pytest.raises(DegenerateRegion, match="2 implicit equalities leave it 1-dimensional"):
        planned_region(H, k)


def test_degenerate_unbounded_line_raises():
    # y1 pinned to 0, y2 unbounded: on the line y1 = 0 no row is left
    H = np.array([[1.0, 0.0], [-1.0, 0.0]])
    k = np.array([0.0, 0.0])
    with pytest.raises(DegenerateRegion, match="2 implicit equalities leave it 1-dimensional"):
        planned_region(H, k)


def test_radius_matches_reference_on_random_polytopes():
    rng = np.random.default_rng(71)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        H = rng.normal(size=(m, n))
        center = rng.normal(size=n)
        margin = rng.uniform(0.05, 1.5)
        k = margin * np.linalg.norm(H, axis=1) - H @ center  # ball of radius margin fits
        result = find_feasible_point(H, k)
        assert result.kind == "full_dimensional"
        assert result.chebyshev_radius == pytest.approx(
            reference_radius(H, k), abs=1e-6
        )


def test_returned_point_is_strictly_interior():
    rng = np.random.default_rng(73)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        H = rng.normal(size=(m, n))
        center = rng.normal(size=n)
        k = rng.uniform(0.05, 1.5) * np.linalg.norm(H, axis=1) - H @ center
        result = find_feasible_point(H, k)
        norms = np.linalg.norm(H, axis=1)
        normalized_slack = ((H @ result.point + k) / norms).min()
        assert normalized_slack >= 1e-6 * result.chebyshev_radius - 1e-12


def test_start_point_stays_near_origin_on_narrow_cone(pentagon_inequality):
    transformed = build_transform(pentagon_inequality)
    result = find_feasible_point(transformed.H, transformed.k)
    assert result.kind == "full_dimensional"
    assert result.chebyshev_radius == pytest.approx(1.0, abs=1e-6)  # capped optimum
    # the slack-1 face of this cone only exists ~3e4 away from the origin, where
    # the slack program's vertex lies (|y|_1 about 6.3e4); the start point that
    # continues from that vertex must leave it for the knee near the origin
    cost, G, h, _ = max_slack_model(*unit_rows(transformed.H, transformed.k))
    vertex = solve_lp(cost, G, h).x[:-1]
    assert np.abs(vertex).sum() > 1e4
    assert np.abs(result.point).sum() < 1.0  # about 0.04
    assert (transformed.H @ result.point + transformed.k > 0.0).all()
    norms = np.linalg.norm(transformed.H, axis=1)
    assert ((transformed.H @ result.point + transformed.k) / norms).min() > 1e-6


def test_the_radius_never_passes_its_cap(pentagon_inequality):
    # the slack program's optimum s* = shift - objective can round an ulp
    # past the cap s <= 1: the pentagon's read 1 + 2^-52
    transformed = build_transform(pentagon_inequality)
    for classify in (find_feasible_point, classify_region):
        assert classify(transformed.H, transformed.k).chebyshev_radius <= 1.0


def test_cheap_full_slack_is_kept():
    # half-line y >= 0: the capped optimum slack 1 is reachable at |y| = 1
    result = find_feasible_point(np.array([[1.0]]), np.array([0.0]))
    assert result.kind == "full_dimensional"
    assert result.chebyshev_radius == pytest.approx(1.0, abs=1e-9)
    assert result.point[0] == pytest.approx(1.0, abs=1e-6)


def test_grid_confirms_classification_2d():
    cases = [
        (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, 0.0]), "infeasible"),
        (
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([-1.0, 1.0, -1.0, 1.0]),
            "point_mass",
        ),
        (
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([1.0, 2.0, 1.0, 2.0]),
            "full_dimensional",
        ),
    ]
    for H, k, expected in cases:
        feasible_points = grid_classification(H, k)
        if expected == "infeasible":
            assert feasible_points.shape[0] == 0
            assert find_feasible_point(H, k).kind == "infeasible"
        elif expected == "point_mass":
            assert feasible_points.shape[0] >= 1
            spread = feasible_points.max(axis=0) - feasible_points.min(axis=0)
            assert spread.max() < 0.05
            kind, planned = planned_region(H, k)
            assert kind == "point_mass"
            np.testing.assert_allclose(planned.point, feasible_points.mean(axis=0), atol=0.05)
        else:
            assert feasible_points.shape[0] > 100  # a genuinely 2-D patch
            assert find_feasible_point(H, k).kind == "full_dimensional"


def test_model_builders_shapes():
    H = np.array([[1.0, -1.0], [0.5, 2.0]])
    k = np.array([0.3, -0.7])
    cost, G, h, shift = max_slack_model(H, k)
    assert G.shape == (3, 3)  # two rows plus the cap row
    assert cost.shape == (6,) and h.shape == (3,)  # two columns per variable y1, y2, t
    # t = s - shift with shift = min(min k, 1): every right-hand side is at
    # most 0, so the origin is feasible, and the slack column is -1 throughout
    assert shift == -0.7 and (h <= 0.0).all() and h[1] == 0.0
    np.testing.assert_array_equal(G[:, -1], -1.0)
    for k in (np.array([2.0, 3.0]), np.array([1e16, 1.0 + 2**-52]), np.array([-1e300, 1e300])):
        cost, G, h, shift = max_slack_model(H, k)
        assert shift == min(k.min(), 1.0) and (h <= 0.0).all()


def test_classification_always_reaches_a_verdict():
    # the max-slack program is feasible and bounded for every input, so any
    # system gets a verdict; infeasible verdicts agree with an independent
    # zero-violation LP, and returned points satisfy every row
    H = np.array([[1.0, -1.0], [0.5, 2.0]])
    k = np.array([0.3, -0.7])
    assert find_feasible_point(H, k).kind == "full_dimensional"
    rng = np.random.default_rng(79)
    kinds = set()
    for _ in range(60):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        H = rng.normal(size=(m, n))
        k = rng.normal(size=m)
        result = find_feasible_point(H, k)
        kinds.add(result.kind)
        reference = linprog(
            np.zeros(n), A_ub=-H, b_ub=k, bounds=[(None, None)] * n, method="highs"
        )
        assert (result.kind == "infeasible") == (reference.status == 2)
        if result.kind != "infeasible":
            assert (H @ result.point + k).min() >= -1e-9
    assert kinds == {"infeasible", "full_dimensional"}


def test_zero_row_with_negative_offset_is_infeasible():
    # 0 y1 + 0 y2 - 1 >= 0 fails for every y, whatever the other rows say
    result = find_feasible_point(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([-1.0, 0.5]))
    assert result.kind == "infeasible"


def test_zero_row_with_nonnegative_offset_is_dropped():
    H = np.array([[0.0, 0.0], [1.0, 0.0]])
    result = find_feasible_point(H, np.array([1.0, 0.5]))
    assert result.kind == "full_dimensional"
    assert result.chebyshev_radius == pytest.approx(1.0, abs=1e-9)
    without = find_feasible_point(H[1:], np.array([0.5]))
    assert np.array_equal(result.point, without.point)
    assert result.chebyshev_radius == without.chebyshev_radius
    assert (H @ result.point + np.array([1.0, 0.5])).min() > 1e-7


def test_all_zero_rows_leave_the_whole_space():
    result = find_feasible_point(np.zeros((2, 3)), np.array([0.0, 2.0]))
    assert result.kind == "full_dimensional"
    assert result.chebyshev_radius == pytest.approx(1.0, abs=1e-9)


def test_slack_within_tolerance_but_violation_above_it_is_infeasible():
    # x1 >= 0.3 and x1 <= 0.3 - gap on the plane x2 = 0.2. sigma correlates
    # x1 with the tightly held x2, so H = A F has rows of norm 90: the slack
    # optimum, a distance in y, is about -gap / 180, within FEAS_TOL. The
    # tight rows become the equations x1 = 0.3 and x1 = 0.3 - gap, which the
    # equality tolerance 1e-8 then decides, in x
    sigma = np.array([[1.0, 0.009], [0.009, 1e-4]])
    verdicts = {}
    for gap in (5e-8, 5e-9):
        spec = ProblemSpec(
            mu=np.zeros(2),
            sigma=sigma,
            A=[[1.0, 0.0], [-1.0, 0.0]],
            b=[-0.3, 0.3 - gap],
            C=[[0.0, 1.0]],
            d=[-0.2],
        )
        transformed = build_transform(spec)
        assert np.linalg.norm(transformed.H, axis=1) == pytest.approx(90.0, rel=1e-3)
        assert find_feasible_point(transformed.H, transformed.k).kind == "empty_interior"
        verdicts[gap] = lingauss.sampler.plan(spec)
        assert verdicts[gap].report.lp_solves == 1
    empty, pinned = verdicts[5e-8], verdicts[5e-9]
    assert empty.status == "impossible" and empty.report.feasibility == "infeasible"
    assert empty.reason == "the inequalities' implicit equalities have no solution"
    assert pinned.status == "point_mass" and pinned.report.feasibility == "point_mass"
    np.testing.assert_allclose(pinned.point, [0.3, 0.2], rtol=0, atol=POINT_TOL)
    # a gap of 1.5e-9 with sigma = I and no plane: y >= 0 and 1e3 y <= -1.5e-6,
    # whose least-squares point misses each row by 7.5e-10
    kind, planned = planned_region(np.array([[1e3], [-1e3]]), np.array([0.0, -1.5e-6]))
    assert kind == "point_mass"
    assert planned.point[0] == pytest.approx(-7.5e-10, abs=1e-15)


def test_point_mass_among_redundant_rows():
    # y = (1, -2) pinned by two opposite pairs plus slack rows and a duplicate
    H = np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [0.0, -1.0]]
    )
    k = np.array([-1.0, 1.0, 2.0, -2.0, 5.0, -2.0])
    kind, planned = planned_region(H, k)
    assert kind == "point_mass"
    np.testing.assert_allclose(planned.point, [1.0, -2.0], atol=1e-9)


def test_rotated_box_around_the_origin_takes_few_pivots():
    # 50-D box [-lo, hi] in rotated coordinates, each row scaled, around the
    # origin (480 pivots when every row carried an artificial column)
    rng = np.random.default_rng(103)
    n = 50
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    H = np.vstack([q, -q]) * rng.uniform(0.5, 2.0, 2 * n)[:, None]
    k = rng.uniform(1.0, 2.0, 2 * n) * np.linalg.norm(H, axis=1)
    result = find_feasible_point(H, k)
    assert result.kind == "full_dimensional"
    assert result.chebyshev_radius == pytest.approx(reference_radius(H, k), abs=1e-9)
    assert 0 < result.lp_pivots <= 40


SQUARE = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


@pytest.mark.parametrize(
    "H, k, kind",
    [
        ([[1.0], [-1.0]], [-1.0, 0.0], "infeasible"),
        ([[0.0], [1.0]], [-1.0, 0.5], "infeasible"),  # decided before any LP
        (SQUARE, [-2.0, 2.0, 1.0, -1.0], "point_mass"),  # two rounds
        ([[1e3], [-1e3]], [0.0, -1.5e-6], "point_mass"),  # s* < 0, within FEAS_TOL
        (SQUARE, [-1.0, 3.0, 2.0, 3.0], "full_dimensional"),
    ],
)
def test_lp_pivots_counts_every_pivot(monkeypatch, H, k, kind):
    made = []
    pivot = lingauss.simplex._pivot

    def counted(*args):
        made.append(args[2:])
        return pivot(*args)

    monkeypatch.setattr(lingauss.simplex, "_pivot", counted)
    got, planned = planned_region(H, k)
    assert got == kind
    assert planned.report.lp_pivots == len(made)


def test_a_round_that_fixes_no_new_direction_breaks_down(monkeypatch):
    # each round must lower the plane's dimension, which bounds the rounds;
    # tight rows that the plane already fixes would repeat the round forever
    def nothing_new(H, k):
        return FeasibilityResult("empty_interior", lp_solves=1, tight=np.zeros(0, dtype=int))

    monkeypatch.setattr(lingauss.sampler, "find_feasible_point", nothing_new)
    with pytest.raises(NumericalBreakdown, match="dimension"):
        planned_region(SQUARE, [1.0, 1.0, 1.0, 1.0])


def test_rejects_empty_or_mismatched_input():
    with pytest.raises(ValueError):
        find_feasible_point(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        find_feasible_point(np.ones((2, 2)), np.ones(3))


def test_result_dataclass_defaults():
    result = FeasibilityResult("infeasible")
    assert result.point is None and result.chebyshev_radius is None
    assert result.lp_pivots == 0


def count_programs(monkeypatch):
    """Count the programs find_feasible_point runs: whole solves and
    continued phase 2s, as FeasibilityResult.lp_solves does."""
    made = []
    for name in ("solve_lp", "phase_two"):
        real = getattr(lingauss.feasibility, name)

        def counted(*args, _real=real, _name=name):
            made.append(_name)
            return _real(*args)

        monkeypatch.setattr(lingauss.feasibility, name, counted)
    return made


CORNER_SLACK_BELOW_ZERO = (  # a point mass whose s* rounds to -1.1e-16
    [[0.3, -1.3], [0.9, 0.4], [-1.2, 0.9]],
    [1.1700000000000002, -0.36000000000000004, -0.81],
)


@pytest.mark.parametrize(
    "H, k, kind, solves",
    [
        (SQUARE, [-1.0, 3.0, 2.0, 3.0], "full_dimensional", 2),  # slack LP, start's phase 2
        ([[1.0], [-1.0]], [-1.0, 0.0], "infeasible", 1),  # s* < -tol
        ([[0.0], [1.0]], [-1.0, 0.5], "infeasible", 0),  # a constant row decides
        ([[1.0], [-1.0]], [0.0, 0.0], "point_mass", 1),  # s* = 0, both rows tight
        (*CORNER_SLACK_BELOW_ZERO, "point_mass", 1),  # all three rows tight
        (SQUARE, [-2.0, 2.0, 1.0, -1.0], "point_mass", 2),  # one opposite pair a round
        ([[1e3], [-1e3]], [0.0, -1.5e-6], "point_mass", 1),  # a gap within FEAS_TOL
    ],
)
def test_lp_solves_counts_every_program(monkeypatch, H, k, kind, solves):
    made = count_programs(monkeypatch)
    got, planned = planned_region(H, k)
    assert got == kind
    assert planned.report.lp_solves == len(made) == solves


def test_classify_region_is_the_verdict_without_the_start_program(monkeypatch):
    rng = np.random.default_rng(131)
    kinds = set()
    for trial in range(60):
        n = int(rng.integers(1, 5))
        H = rng.normal(size=(int(rng.integers(n + 1, 3 * n + 3)), n))
        k = rng.normal(size=H.shape[0]) + (0.5 if trial % 3 else -0.5)
        if trial % 5 == 0:  # an opposite pair makes an empty interior
            H[1], k[1] = -H[0], -k[0]
        whole = find_feasible_point(H, k)
        made = count_programs(monkeypatch)
        verdict = classify_region(H, k)
        monkeypatch.undo()
        kinds.add(verdict.kind)
        assert made == ["solve_lp"] and verdict.lp_solves == 1
        assert verdict.kind == whole.kind
        assert verdict.chebyshev_radius == whole.chebyshev_radius
        assert np.array_equal(verdict.tight, whole.tight) or verdict.tight is whole.tight is None
        if verdict.kind == "full_dimensional":
            assert whole.lp_solves == 2 and verdict.lp_pivots <= whole.lp_pivots
            unit = H / np.linalg.norm(H, axis=1)[:, None]
            slack = unit @ verdict.point + k / np.linalg.norm(H, axis=1)
            assert slack.min() >= verdict.chebyshev_radius - 1e-9
    assert kinds == {"infeasible", "empty_interior", "full_dimensional"}


def test_a_flat_region_places_no_start_point(monkeypatch):
    # x1 = 0 as two inequalities and |x_i| <= 1 otherwise, rotated: the first
    # round's slack program finds the pair tight, and the second round's,
    # on the plane x1 = 0, finds an interior, so the region is flat and
    # raises; no program places a start point that nothing would use
    n = 10
    rows = np.vstack([np.eye(n), -np.eye(n)])
    offsets = np.r_[0.0, np.ones(n - 1), 0.0, np.ones(n - 1)]
    rotation, _ = np.linalg.qr(np.random.default_rng(127).normal(size=(n, n)))
    made = count_programs(monkeypatch)
    with pytest.raises(DegenerateRegion, match="2 implicit equalities leave it 9-dimensional"):
        planned_region(rows @ rotation.T, offsets)
    assert made == ["solve_lp", "solve_lp"]


# The classifier as it was before the slack LP's multipliers could certify a
# point mass, kept verbatim apart from its names: every empty interior ran
# phase 1 and the 2n range LPs, and every full-dimensional region solved the
# start point's program afresh, with a phase 1 of its own. Its programs,
# the slack program among them, posed as they were then (s itself, with the
# rows' norms taken again as its column) and over variables whose origin
# need not be feasible, run on the full-tableau reference of
# tests/test_simplex.py, with its phase 1; on programs whose origin is
# feasible it makes the package kernel's pivots and bits.


def reference_solve(c, G, h, nonneg=None):
    """The reference's phase 1 and phase 2, as a whole solve: (solution or
    None if infeasible, pivots)."""
    start, pivots = reference_phase_one(G, h, nonneg=nonneg)
    if start is None:
        return None, pivots
    solution = reference_phase_two(start, c)
    return solution, pivots + solution.pivots


def reference_max_slack_model(H, k):
    """(cost, G, h) of  max s  s.t.  H y + k >= s * rownorm(H),  s <= 1,
    posed as min -s: -1 on s+ and +1 on s-, 0 on y."""
    m, n = H.shape
    cost = np.zeros(2 * n + 2)  # columns y1+, y1-, ..., yn+, yn-, s+, s-
    cost[-2:] = -1.0, 1.0
    G = np.zeros((m + 1, n + 1))  # rows [H_i, -|H_i|], then the cap's [0, -1]
    G[:m, :n] = H
    G[:m, n] = -np.linalg.norm(H, axis=1)
    G[m, n] = -1.0
    return cost, G, np.append(-k, -1.0)


def reference_pull_in(H, k, radius):
    """Interior start point with slack priced against distance from the origin.

    min  sum|y| - weight * s   s.t.   H y + k >= s * rownorm(H),
                                      radius * 1e-6 <= s <= radius
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
    solution, pivots = reference_solve(c, G, h, nonneg=np.ones(2 * n + 1, dtype=bool))
    if solution is None or solution.status != "optimal":
        return None, pivots
    return solution.x[:n] - solution.x[n : 2 * n], pivots


def reference_coordinate_range(start, n, i):
    """(low, high, pivots): the extent of coordinate i over the region, entries
    None if unbounded, and the pivots of its two phase 2s."""
    bounds = []
    pivots = 0
    for sign in (1.0, -1.0):
        c = np.zeros(2 * n)  # y_i's two columns
        c[2 * i : 2 * i + 2] = sign, -sign
        solution = reference_phase_two(start, c)
        pivots += solution.pivots
        bounds.append(None if solution.status == "unbounded" else sign * solution.objective)
    return bounds[0], bounds[1], pivots


def reference_find_feasible_point(H, k) -> FeasibilityResult:
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

    slack, pivots = reference_solve(*reference_max_slack_model(H, k))
    if slack.status != "optimal":  # feasible and capped by construction
        raise NumericalBreakdown(f"slack program ended {slack.status}; expected optimal")
    radius = -slack.objective
    if radius < -FEAS_TOL:
        return FeasibilityResult("infeasible", lp_pivots=pivots)
    if radius > FEAS_TOL:
        point, pull_pivots = reference_pull_in(H, k, radius)
        if point is None:  # roundoff starved the follow-up program; keep the vertex
            point = slack.x[:n]
        return FeasibilityResult(
            "full_dimensional", point, float(radius), lp_pivots=pivots + pull_pivots
        )

    # empty interior: point mass or flat region?
    start, start_pivots = reference_phase_one(H, -k)
    pivots += start_pivots
    if start is None:  # |s*| <= FEAS_TOL, yet phase 1 leaves a violation above it
        return FeasibilityResult("infeasible", lp_pivots=pivots)
    for i in range(n):
        low, high, range_pivots = reference_coordinate_range(start, n, i)
        pivots += range_pivots
        if low is None or high is None:
            raise DegenerateRegion(
                f"feasible region has empty interior yet coordinate {i + 1} is unbounded"
            )
        if high - low > FEAS_TOL:
            raise DegenerateRegion(
                "feasible region has empty interior but positive extent "
                f"{high - low:.3e} along coordinate {i + 1}"
            )
    return FeasibilityResult("point_mass", slack.x[:n], lp_pivots=pivots)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def pinning_rows(rng, n, extra):
    """n + 1 rows that positively span R^n, as the benchmark's point masses
    are built, and `extra` rows that hold the point with room to spare."""
    tight = rng.standard_normal((n, n))
    tight = np.vstack([tight, -(rng.uniform(0.5, 1.5, n) @ tight)])
    loose = rng.standard_normal((extra, n))
    return tight, loose


def disguised(rng, H, k):
    """The same region: duplicated rows, positive row scales, shuffled rows."""
    copies = rng.integers(0, H.shape[0], size=int(rng.integers(0, 4)))
    H, k = np.vstack([H, H[copies]]), np.concatenate([k, k[copies]])
    scale = 10.0 ** rng.uniform(-3.0, 3.0, H.shape[0])
    order = rng.permutation(H.shape[0])
    return (H * scale[:, None])[order], (k * scale)[order]


def point_mass_region(rng, n, shift=0.0):
    """A point pinned by n + 1 rows among slack rows; shift moves every
    pinning row outward by that distance (inward when negative)."""
    p = rng.uniform(-1.0, 1.0, n)
    tight, loose = pinning_rows(rng, n, int(rng.integers(0, 2 * n)))
    gaps = rng.uniform(0.5, 2.0, loose.shape[0]) * np.linalg.norm(loose, axis=1)
    k = np.concatenate(
        [-tight @ p + shift * np.linalg.norm(tight, axis=1), -loose @ p + gaps]
    )
    return disguised(rng, np.vstack([tight, loose]), k)


def corner_region(rng, n):
    """A corner pinned by opposite pairs of rows along rotated axes, so the
    slack LP's optimum is degenerate and its multipliers need not reach
    every tight row."""
    axes = orthogonal(rng, n) if rng.random() < 0.5 else np.eye(n)
    p = rng.uniform(-2.0, 2.0, n)
    H = np.vstack([axes, -axes])
    return disguised(rng, H, -H @ p)


def flat_region(rng, n, free):
    """`free` rotated coordinates left open, the others pinned by pairs: an
    unbounded line or flat, or, boxed in, a bounded one."""
    axes = orthogonal(rng, n)
    p = rng.uniform(-1.0, 1.0, n)
    pinned = axes[free:]
    H, k = np.vstack([pinned, -pinned]), np.concatenate([-pinned @ p, pinned @ p])
    if rng.random() < 0.5:  # box the free directions in
        side = axes[:free]
        H = np.vstack([H, side, -side])
        k = np.concatenate([k, -side @ p + 1.0, side @ p + 1.0])
    return disguised(rng, H, k)


def random_region(rng, n):
    """Random rows and offsets: full-dimensional or infeasible."""
    m = int(rng.integers(n + 1, 4 * n))
    return rng.standard_normal((m, n)), rng.normal(size=m)


def reference_regions():
    rng = np.random.default_rng(131)
    regions = [("gap", np.array([[1e3], [-1e3]]), np.array([0.0, -1.5e-6]))]
    for delta in (-2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9):
        regions.append(("gap", np.array([[1e3], [-1e3]]), np.array([0.0, 1e3 * delta])))
    for _ in range(12):
        for n in range(2, 13):
            regions.append(("point mass", *point_mass_region(rng, n)))
    for _ in range(40):
        regions.append(("corner", *corner_region(rng, int(rng.integers(2, 7)))))
    for _ in range(40):
        n = int(rng.integers(2, 8))
        regions.append(("flat", *flat_region(rng, n, int(rng.integers(1, n)))))
    for _ in range(60):
        shift = rng.uniform(-2.0, 2.0) * FEAS_TOL
        regions.append(("sliver", *point_mass_region(rng, int(rng.integers(2, 9)), shift)))
    for _ in range(40):
        regions.append(("random", *random_region(rng, int(rng.integers(1, 7)))))
    return regions


def outcome(classify, H, k):
    try:
        return classify(H, k)
    except LinGaussError as exc:
        return type(exc)


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def pull_in_objective(H, k, radius, y):
    """sum|y| - 4n s at y, with s as large as the unit rows and the radius allow."""
    H, k = unit_rows(H, k)
    return np.abs(y).sum() - 4.0 * H.shape[1] * min((H @ y + k).min(), radius)


# The gaps and slivers of reference_regions lie within 2 FEAS_TOL of a class
# boundary. There the slack LP no longer decides alone: its empty interior
# becomes equations, which EQUALITY_TOL and POINT_TOL settle. These regions,
# by index, were empty or flat for the frozen classifier and are point masses.
WAS_INFEASIBLE = (0, 2, 223, 225, 227, 230, 233, 242, 252, 262, 278)
WAS_DEGENERATE = (5, 231, 232, 234, 235, 236, 237, 243, 245, 246, 247, 249, 250)
WAS_DEGENERATE += (257, 259, 260, 264, 266, 267, 269, 274)


def test_certificate_keeps_every_verdict_of_the_frozen_classifier():
    # Outside the band every verdict is the frozen classifier's. A point mass
    # is now the solution of the equations its tight rows make, not the
    # slack LP's vertex, so it agrees to POINT_TOL, after at most n rounds
    # of one program each. A full-dimensional region keeps its radius to
    # roundoff (6.7e-16 at most here): the slack program is now posed in
    # t = s - shift, with a slack column of exact -1s. Its start point now
    # continues from the slack optimum instead of solving its program
    # afresh, so it may reach another optimal vertex by other roundoff: it
    # must be strictly interior, as good by the program's objective, and
    # take no more pivots.
    regions = reference_regions()
    assert len(regions) >= 300
    taken = {"point": 0, "raised": 0, "full": 0, "infeasible": 0}
    pivots = {"got": 0, "want": 0}
    for index, (family, H, k) in enumerate(regions):
        want = outcome(reference_find_feasible_point, H, k)
        got = outcome(planned_region, H, k)
        if index in WAS_INFEASIBLE + WAS_DEGENERATE:
            assert family in ("gap", "sliver")
            assert want is DegenerateRegion if index in WAS_DEGENERATE else want.kind == "infeasible"
            kind, planned = got
            assert kind == "point_mass", index
            slack = (H @ planned.point + k) / np.linalg.norm(H, axis=1)
            assert slack.min() >= -POINT_TOL, index
            continue
        if isinstance(want, type):
            assert got is want, family
            taken["raised"] += 1
            continue
        assert not isinstance(got, type), (family, got)
        kind, planned = got
        assert kind == want.kind, (index, family)
        if kind == "infeasible":
            taken["infeasible"] += 1
        elif kind == "point_mass":
            taken["point"] += 1
            np.testing.assert_allclose(planned.point, want.point, rtol=0, atol=POINT_TOL)
            assert planned.report.lp_solves <= H.shape[1], family
            pivots["got"] += planned.report.lp_pivots
            pivots["want"] += want.lp_pivots
        else:
            taken["full"] += 1
            got = find_feasible_point(H, k)
            assert got.chebyshev_radius == pytest.approx(want.chebyshev_radius, abs=1e-12), family
            assert (H @ got.point + k > 0.0).all(), family
            radius = got.chebyshev_radius
            objective = pull_in_objective(H, k, radius, got.point)
            frozen = pull_in_objective(H, k, radius, want.point)
            assert objective == pytest.approx(frozen, rel=1e-9), family
            assert got.lp_pivots <= want.lp_pivots, family
    assert taken["point"] >= 150
    assert taken["raised"] >= 20
    assert taken["full"] >= 20
    assert taken["infeasible"] >= 10
    assert pivots["got"] < 0.35 * pivots["want"]  # 2096 against 7271


def test_a_translated_region_keeps_its_verdict_and_radius():
    # k += H c moves each region by -c, and the slack program's shift,
    # min(min k, 1) over the unit rows, grows with |c|: the verdict must
    # stay, and the radius within 1e-9 (1 + |c|). A region whose optimum
    # s* lies within roundoff, 1e-14 (1 + |c|), of +-FEAS_TOL sits on the
    # threshold itself, where roundoff of any size decides (the gaps of
    # +-2e-9, whose s* is +-FEAS_TOL): its verdict is not compared
    rng = np.random.default_rng(151)
    kinds, edges = set(), 0
    for family, H, k in reference_regions():
        want = find_feasible_point(H, k)
        cost, G, h, shift = max_slack_model(*unit_rows(H, k))
        optimum = shift - solve_lp(cost, G, h).objective
        for size in (1.0, 1e2, 1e4):
            c = rng.normal(size=H.shape[1])
            c *= size / np.linalg.norm(c)
            got = find_feasible_point(H, k + H @ c)
            if abs(abs(optimum) - FEAS_TOL) <= 1e-14 * (1.0 + size):
                edges += 1
                continue
            assert got.kind == want.kind, (family, size)
            kinds.add(got.kind)
            if want.kind == "full_dimensional":
                radius = pytest.approx(want.chebyshev_radius, abs=1e-9 * (1.0 + size))
                assert got.chebyshev_radius == radius, (family, size)
                # the start point holds slack on every unit row, however far
                # the region lies from the origin
                unit_H, unit_k = unit_rows(H, k + H @ c)
                assert (unit_H @ got.point + unit_k).min() > 0.0, (family, size)
    assert kinds == {"infeasible", "empty_interior", "full_dimensional"}
    assert 6 <= edges <= 12  # the two gaps at +-FEAS_TOL at each size, 5 slivers at 1e4


def test_certified_multipliers_balance_the_rows():
    rng = np.random.default_rng(137)
    for n in range(2, 13):
        H, k = point_mass_region(rng, n)
        result = find_feasible_point(H, k)
        H, k = unit_rows(H, k)
        cost, G, h, _ = max_slack_model(H, k)
        multipliers = solve_lp(cost, G, h).multipliers
        assert multipliers[-1] == 0.0  # the cap s <= 1 is slack
        assert abs(multipliers.sum() - 1.0) <= 1e-12
        assert np.abs(H.T @ multipliers[:-1]).max() <= 1e-12
        assert result.kind == "empty_interior"
        assert result.tight.tolist() == np.flatnonzero(multipliers[:-1] > FEAS_TOL).tolist()
        assert result.tight.size > n  # they positively span R^n


@pytest.mark.parametrize("angle", [1e-8, 1e-6])
def test_nearly_parallel_pinning_rows_fall_back(monkeypatch, angle):
    # rows at +-angle from e1 and -e1 pin one point, which the frozen
    # classifier found by its range LPs. Now the slack LP's multipliers make
    # all three rows equations, and the plane's EQUALITY_TOL decides: at 1e-6
    # they fix the point; at 1e-8 the two angled rows are parallel within it,
    # so they fix only the line y1 = 0.4, on which no row bounds y2: a flat
    H = np.array([[np.cos(angle), np.sin(angle)], [np.cos(angle), -np.sin(angle)], [-1.0, 0.0]])
    k = -H @ np.array([0.4, -0.7])
    made = count_programs(monkeypatch)
    assert outcome(reference_find_feasible_point, H, k).kind == "point_mass"
    if angle < 1e-7:
        with pytest.raises(DegenerateRegion, match="3 implicit equalities leave it 1-dimensional"):
            planned_region(H, k)
    else:
        kind, planned = planned_region(H, k)
        assert kind == "point_mass"
        np.testing.assert_allclose(planned.point, [0.4, -0.7], rtol=0, atol=1e-9)
    assert len(made) == 1


def test_singular_sigma_point_mass_is_certified_in_the_support_basis(monkeypatch):
    # sigma has rank 2: the LPs run in plan's basis of range(sigma), where
    # four rows pin one point of mu + range(sigma); its three tight rows,
    # taken on that subspace, fix it
    rng = np.random.default_rng(139)
    axes = orthogonal(rng, 3)
    sigma = axes @ np.diag([1.0, 2.0, 0.0]) @ axes.T
    mu = rng.normal(size=3)
    tight, loose = pinning_rows(rng, 2, 1)
    A = np.vstack([tight, loose]) @ axes[:, :2].T + np.outer(rng.normal(size=4), axes[:, 2])
    point = mu + axes[:, :2] @ np.array([0.3, -0.4])
    b = -A @ point
    b[-1] += 1.0
    spec = ProblemSpec(mu=mu, sigma=0.5 * (sigma + sigma.T), A=A, b=b)
    made = count_programs(monkeypatch)
    planned = lingauss.sampler.plan(spec)
    assert planned.status == "point_mass" and planned.report.feasibility == "point_mass"
    assert planned.report.lp_solves == len(made) == 1
    np.testing.assert_allclose(planned.point, point, atol=1e-9)


def test_singular_sigma_corner_takes_its_implicit_equalities_on_the_support():
    # sigma has rank 2 and opposite pairs pin a corner of mu + range(sigma),
    # one pair a round. The rows' parts along sigma's null space differ, so
    # taken whole, a pair would fix a direction that holds no mass, and the
    # plane's Gram would be singular
    rng = np.random.default_rng(149)
    axes = orthogonal(rng, 3)
    sigma = axes @ np.diag([1.0, 2.0, 0.0]) @ axes.T
    mu = rng.normal(size=3)
    point = mu + axes[:, :2] @ np.array([0.3, -0.4])
    on_support = np.vstack([axes[:, :2].T, -axes[:, :2].T])
    A = on_support + np.outer(rng.normal(size=4), axes[:, 2])
    spec = ProblemSpec(mu=mu, sigma=0.5 * (sigma + sigma.T), A=A, b=-A @ point)
    planned = lingauss.sampler.plan(spec)
    assert planned.status == "point_mass"
    assert planned.report.lp_solves == 2
    np.testing.assert_allclose(planned.point, point, atol=1e-9)


def test_equality_plane_point_mass_is_a_point_mass(monkeypatch):
    # rows that pin a point of the plane x3 = 0.5. The LPs run on the latent
    # y in R^3, where the plane's normal stays free (H = A F, and F y does
    # not see it), so the region in y is a line: the frozen classifier's
    # range LPs found it unbounded. Its tight rows, joined to the plane,
    # fix the point
    A = np.array([[1.0, 0.2, 0.7], [-0.3, 1.0, -0.2], [-0.9, -1.4, 0.4]])
    spec = ProblemSpec(
        mu=np.zeros(3),
        sigma=np.eye(3),
        A=A,
        b=-A @ np.array([0.2, -0.1, 0.5]),
        C=[[0.0, 0.0, 1.0]],
        d=[-0.5],
    )
    made = count_programs(monkeypatch)
    planned = lingauss.sampler.plan(spec)
    assert planned.status == "point_mass" and planned.report.feasibility == "point_mass"
    assert planned.report.equality == "infinite"
    assert planned.report.lp_solves == len(made) == 1
    np.testing.assert_allclose(planned.point, [0.2, -0.1, 0.5], rtol=0, atol=POINT_TOL)
    sampled = lingauss.sampler.sample_constrained(spec, 5, 1)
    assert sampled.status == "point_mass" and np.array_equal(sampled.point, planned.point)
    transformed = build_transform(spec)
    with pytest.raises(DegenerateRegion):
        reference_find_feasible_point(transformed.H, transformed.k)
