import numpy as np
import pytest
from scipy.optimize import linprog

import lingauss.simplex
from lingauss.errors import DegenerateRegion
from lingauss.feasibility import FeasibilityResult, find_feasible_point, max_slack_model
from lingauss.transform import build_transform


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
    k = np.array([0.0, 0.0])  # y >= 0 and y <= 0
    result = find_feasible_point(H, k)
    assert result.kind == "point_mass"
    np.testing.assert_allclose(result.point, [0.0], atol=1e-9)


def test_point_mass_2d_corner():
    H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    k = np.array([-2.0, 2.0, 1.0, -1.0])  # y1 = 2, y2 = -1
    result = find_feasible_point(H, k)
    assert result.kind == "point_mass"
    np.testing.assert_allclose(result.point, [2.0, -1.0], atol=1e-9)


def test_full_dimensional_box():
    H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    k = np.array([2.0, 3.0, 2.0, 3.0])  # -2 <= y <= 3 in both coordinates
    result = find_feasible_point(H, k)
    assert result.kind == "full_dimensional"
    assert result.chebyshev_radius == pytest.approx(1.0, abs=1e-9)  # capped
    slack = H @ result.point + k
    assert slack.min() >= 1e-7  # strictly interior


def test_degenerate_flat_region_raises():
    # y1 pinned to 0, y2 still free on [0, 5]: empty interior, positive extent
    H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    k = np.array([0.0, 0.0, 0.0, 5.0])
    with pytest.raises(DegenerateRegion):
        find_feasible_point(H, k)


def test_degenerate_unbounded_line_raises():
    # y1 pinned to 0, y2 unbounded
    H = np.array([[1.0, 0.0], [-1.0, 0.0]])
    k = np.array([0.0, 0.0])
    with pytest.raises(DegenerateRegion):
        find_feasible_point(H, k)


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
    # the slack-1 face of this cone only exists ~3e4 away from the origin; the
    # start point must not chase it
    assert np.linalg.norm(result.point) < 10.0
    norms = np.linalg.norm(transformed.H, axis=1)
    assert ((transformed.H @ result.point + transformed.k) / norms).min() > 1e-6


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
            result = find_feasible_point(H, k)
            assert result.kind == "point_mass"
            np.testing.assert_allclose(result.point, feasible_points.mean(axis=0), atol=0.05)
        else:
            assert feasible_points.shape[0] > 100  # a genuinely 2-D patch
            assert find_feasible_point(H, k).kind == "full_dimensional"


def test_model_builders_shapes():
    H = np.array([[1.0, -1.0], [0.5, 2.0]])
    k = np.array([0.3, -0.7])
    slack = max_slack_model(H, k)
    assert slack.G.shape == (3, 3)  # two rows plus the cap row


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
    # y >= 0 and 1e3 y <= -1.5e-6, a gap of 1.5e-9 in y: the slack optimum
    # -7.5e-10 of the rows scaled to unit norm is within tolerance of zero,
    # but no y comes within 1.5e-9 of both rows, so the range probe's
    # phase 1 finds the region empty
    result = find_feasible_point(np.array([[1e3], [-1e3]]), np.array([0.0, -1.5e-6]))
    assert result.kind == "infeasible"


def test_point_mass_among_redundant_rows():
    # y = (1, -2) pinned by two opposite pairs plus slack rows and a duplicate
    H = np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [0.0, -1.0]]
    )
    k = np.array([-1.0, 1.0, 2.0, -2.0, 5.0, -2.0])
    result = find_feasible_point(H, k)
    assert result.kind == "point_mass"
    np.testing.assert_allclose(result.point, [1.0, -2.0], atol=1e-9)


def test_rotated_box_around_the_origin_takes_few_pivots():
    # 50-D box [-lo, hi] in rotated coordinates, each row scaled: the origin
    # satisfies all 100 rows, so phase 1 starts feasible (480 pivots when every
    # row carried an artificial column)
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
        (SQUARE, [-2.0, 2.0, 1.0, -1.0], "point_mass"),
        ([[1e3], [-1e3]], [0.0, -1.5e-6], "infeasible"),  # the range probe's phase 1 finds none
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
    result = find_feasible_point(np.array(H), np.array(k))
    assert result.kind == kind
    assert result.lp_pivots == len(made)


def test_rejects_empty_or_mismatched_input():
    with pytest.raises(ValueError):
        find_feasible_point(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        find_feasible_point(np.ones((2, 2)), np.ones(3))


def test_result_dataclass_defaults():
    result = FeasibilityResult("infeasible")
    assert result.point is None and result.chebyshev_radius is None
    assert result.lp_pivots == 0
