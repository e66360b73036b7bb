import numpy as np
import pytest

from lingauss.elliptical_slice import (
    ArcSet,
    ChainState,
    active_arcs,
    ess_step,
    run_chain,
)
from lingauss.errors import EmptyArcSet, NumericalBreakdown
from lingauss.linalg import factor_covariance
from lingauss.problem import ProblemSpec
from lingauss.transform import build_transform

from conftest import random_spd


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
        member = np.array([arcs.contains(t) for t in theta])
        # grid points can straddle an arc boundary; allow one-cell mismatches
        disagreements = np.flatnonzero(member != feasible)
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
        assert active_arcs(y, nu, H, k).contains(0.0)


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
    intervals = np.array([[-2.0, -1.0], [0.5, 1.5]])
    arcs = ArcSet(intervals)
    assert arcs.total_measure == pytest.approx(2.0)
    rng = np.random.default_rng(7)
    draws = np.array([arcs.sample(rng.uniform(0, arcs.total_measure)) for _ in range(4_000)])
    assert all(arcs.contains(t) for t in draws)
    in_first = ((draws >= -2.0) & (draws <= -1.0)).mean()
    assert in_first == pytest.approx(0.5, abs=0.05)  # uniform across the union


def test_ess_step_preserves_feasibility_and_counts():
    rng = np.random.default_rng(103)
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=random_spd(rng, 2),
        A=np.array([[1.0, 0.0], [0.0, 1.0]]),
        b=np.array([0.5, 0.5]),
    )
    transformed = build_transform(spec)
    factor = factor_covariance(spec.sigma)
    state = ChainState(np.array([0.0, 0.0]), np.random.default_rng(11))
    for expected_count in range(1, 301):
        state = ess_step(state, transformed, factor)
        assert state.step_count == expected_count
        assert (transformed.H @ state.y + transformed.k).min() >= -1e-9


def test_corrupted_state_raises():
    spec = ProblemSpec(
        mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.0])
    )
    transformed = build_transform(spec)
    factor = factor_covariance(spec.sigma)
    state = ChainState(np.array([-1.0]), np.random.default_rng(0))  # violates y >= 0
    with pytest.raises(NumericalBreakdown, match="corrupted"):
        ess_step(state, transformed, factor)


def test_run_chain_shape_and_determinism():
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=np.eye(2),
        A=np.array([[1.0, 0.0]]),
        b=np.array([1.0]),
    )
    transformed = build_transform(spec)
    factor = factor_covariance(spec.sigma)
    y0 = np.array([0.0, 0.0])
    a = run_chain(transformed, factor, y0, 50, np.random.default_rng(42))
    b = run_chain(transformed, factor, y0, 50, np.random.default_rng(42))
    assert a.shape == (50, 2)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        run_chain(transformed, factor, y0, 0, np.random.default_rng(0))


def test_half_normal_moments():
    # N(0,1) restricted to y >= 0: mean sqrt(2/pi), variance 1 - 2/pi
    spec = ProblemSpec(mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.0]))
    transformed = build_transform(spec)
    factor = factor_covariance(spec.sigma)
    chain = run_chain(transformed, factor, np.array([1.0]), 30_000, np.random.default_rng(5))
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
    factor = factor_covariance(sigma)
    chain = run_chain(transformed, factor, np.zeros(2), 40_000, np.random.default_rng(3))
    np.testing.assert_allclose(chain.mean(axis=0), 0.0, atol=4 * np.sqrt(sigma.max() / 4_000))
    np.testing.assert_allclose(np.cov(chain.T), sigma, rtol=0.15, atol=0.05 * sigma.max())
