import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import special_ortho_group

import lingauss.sampler
import lingauss.transform
from lingauss.elliptical_slice import fill_chain
from lingauss.errors import DegenerateRegion
from lingauss.fixtures import pentagon_problem
from lingauss.linalg import BLOCK_ELEMENTS
from lingauss.feasibility import find_feasible_point
from lingauss.oracles import conditional_direct_sample, rejection_sample
from lingauss.problem import ProblemSpec
from lingauss.sampler import plan, sample_constrained
from lingauss.stats import compare_stats, sample_stats
from lingauss.transform import build_transform

from conftest import random_spd
from test_elliptical_slice import chain_setup, rotated_box, slab


def test_unconstrained_recipe():
    rng = np.random.default_rng(59)
    sigma = random_spd(rng, 3)
    mu = np.array([1.0, -2.0, 0.5])
    spec = ProblemSpec(mu=mu, sigma=sigma)
    outcome = sample_constrained(spec, 50_000, np.random.default_rng(1))
    assert outcome.status == "samples"
    assert outcome.report.recipe == "unconstrained"
    assert outcome.report.chain_steps == 0
    np.testing.assert_allclose(
        outcome.samples.mean(axis=0), mu, atol=5 * np.sqrt(sigma.max() / 50_000)
    )
    np.testing.assert_allclose(np.cov(outcome.samples.T), sigma, rtol=0.1, atol=0.05 * sigma.max())


def test_equality_only_recipe(pentagon_equality):
    outcome = sample_constrained(pentagon_equality, 20_000, np.random.default_rng(2))
    assert outcome.status == "samples"
    assert outcome.report.recipe == "equality-only"
    assert outcome.report.equality == "infinite"
    assert outcome.report.chain_steps == 0
    residual = outcome.samples @ pentagon_equality.C.T + pentagon_equality.d
    assert np.abs(residual).max() < 1e-8


def test_inequality_only_recipe(pentagon_inequality):
    outcome = sample_constrained(pentagon_inequality, 5_000, np.random.default_rng(3))
    assert outcome.status == "samples"
    assert outcome.report.recipe == "inequality-only"
    assert outcome.report.feasibility == "full_dimensional"
    assert outcome.report.chebyshev_radius > 0
    assert outcome.report.chain_steps == 5_000
    slack = outcome.samples @ pentagon_inequality.A.T + pentagon_inequality.b
    assert slack.min() >= -1e-6


def test_combined_recipe(pentagon_both):
    outcome = sample_constrained(pentagon_both, 5_000, np.random.default_rng(4))
    assert outcome.status == "samples"
    assert outcome.report.recipe == "equality-and-inequality"
    assert outcome.report.equality == "infinite"
    assert outcome.report.feasibility == "full_dimensional"
    residual = outcome.samples @ pentagon_both.C.T + pentagon_both.d
    assert np.abs(residual).max() < 1e-8
    slack = outcome.samples @ pentagon_both.A.T + pentagon_both.b
    assert slack.min() >= -1e-6


def test_unique_equality_point_mass():
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=np.eye(2),
        C=np.array([[1.0, 0.0], [0.0, 1.0]]),
        d=np.array([-1.0, -2.0]),
    )
    outcome = sample_constrained(spec, 10, np.random.default_rng(5))
    assert outcome.status == "point_mass"
    np.testing.assert_allclose(outcome.point, [1.0, 2.0], atol=1e-10)


def test_unique_equality_conflicting_inequality_is_impossible():
    spec = ProblemSpec(
        mu=np.zeros(1),
        sigma=np.eye(1),
        C=np.array([[1.0]]),
        d=np.array([-1.0]),  # x = 1
        A=np.array([[-1.0]]),
        b=np.array([0.0]),  # x <= 0
    )
    outcome = sample_constrained(spec, 10, np.random.default_rng(6))
    assert outcome.status == "impossible"
    assert "inequalit" in outcome.reason


def test_inconsistent_equalities_impossible():
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=np.eye(2),
        C=np.array([[1.0, 0.0], [1.0, 0.0]]),
        d=np.array([0.0, 1.0]),
    )
    outcome = sample_constrained(spec, 10, np.random.default_rng(7))
    assert outcome.status == "impossible"
    assert outcome.report.equality == "no_solution"


def test_empty_inequality_region_impossible():
    spec = ProblemSpec(
        mu=np.zeros(1),
        sigma=np.eye(1),
        A=np.array([[1.0], [-1.0]]),
        b=np.array([-1.0, 0.0]),  # x >= 1 and x <= 0
    )
    outcome = sample_constrained(spec, 10, np.random.default_rng(8))
    assert outcome.status == "impossible"
    assert outcome.report.feasibility == "infeasible"


def test_inequality_point_mass():
    spec = ProblemSpec(
        mu=np.array([0.3]),
        sigma=np.eye(1),
        A=np.array([[1.0], [-1.0]]),
        b=np.array([-0.7, 0.7]),  # x >= 0.7 and x <= 0.7
    )
    outcome = sample_constrained(spec, 10, np.random.default_rng(9))
    assert outcome.status == "point_mass"
    np.testing.assert_allclose(outcome.point, [0.7], atol=1e-8)


def test_report_counts_lp_pivots(pentagon_both, pentagon_equality):
    outcome = sample_constrained(pentagon_both, 10, np.random.default_rng(10))
    transformed = build_transform(pentagon_both)
    expected = find_feasible_point(transformed.H, transformed.k).lp_pivots
    assert expected > 0
    assert outcome.report.lp_pivots == expected
    direct = sample_constrained(pentagon_equality, 10, np.random.default_rng(10))
    assert direct.report.lp_pivots == 0  # no inequality, no LP


def test_burn_in_and_thin_change_output_but_not_count(pentagon_both):
    plain = sample_constrained(pentagon_both, 400, np.random.default_rng(10))
    shaped = sample_constrained(
        pentagon_both, 400, np.random.default_rng(10), burn_in=50, thin=3
    )
    assert shaped.samples.shape == plain.samples.shape == (400, 4)
    assert shaped.report.chain_steps == 50 + 400 * 3
    assert not np.array_equal(shaped.samples, plain.samples)


def test_multiple_chains_split_counts_and_need_integer_seed(pentagon_both):
    outcome = sample_constrained(pentagon_both, 401, 123, chains=4)
    assert outcome.samples.shape == (401, 4)
    assert outcome.report.chains == 4
    assert outcome.report.chain_steps == 401
    # only the chains with a sample to draw run, and the report counts those
    outcome = sample_constrained(pentagon_problem("inequality"), 2, 5, chains=4)
    assert (outcome.report.chains, outcome.report.chain_steps) == (2, 2)
    with pytest.raises(ValueError):
        sample_constrained(pentagon_both, 100, np.random.default_rng(0), chains=2)


def test_chain_seeding_is_deterministic(pentagon_both):
    a = sample_constrained(pentagon_both, 200, 77, chains=2)
    b = sample_constrained(pentagon_both, 200, 77, chains=2)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = sample_constrained(pentagon_both, 200, 78, chains=2)
    assert not np.array_equal(a.samples, c.samples)


def test_direct_recipes_ignore_burn_in(pentagon_equality):
    a = sample_constrained(pentagon_equality, 500, np.random.default_rng(11))
    b = sample_constrained(pentagon_equality, 500, np.random.default_rng(11), burn_in=100, thin=5)
    np.testing.assert_array_equal(a.samples, b.samples)


def singular_plane():
    """n = 4, rank(sigma) = 3 and one equality row: the law covers a plane of
    dimension k = 2, below n - r = 3."""
    rng = np.random.default_rng(83)
    rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    sigma = rotation @ np.diag([2.0, 1.0, 0.5, 0.0]) @ rotation.T
    return ProblemSpec(
        mu=rng.normal(size=4), sigma=0.5 * (sigma + sigma.T), C=[rng.normal(size=4)], d=[0.7]
    )


def singular_unconstrained():
    rng = np.random.default_rng(89)
    root = rng.normal(size=(3, 2))
    return ProblemSpec(mu=[1.0, -1.0, 0.5], sigma=root @ root.T)


DIRECT_PROBLEMS = {
    "pentagon_equality": (lambda: pentagon_problem("equality"), 2),
    "singular_unconstrained": (singular_unconstrained, 2),
    "tiny_singular_unconstrained": (
        lambda: ProblemSpec(mu=[1.0, 2.0, 3.0], sigma=1e-12 * np.diag([1.0, 2.0, 0.0])),
        2,
    ),
    "singular_plane": (singular_plane, 2),
}


@pytest.mark.parametrize("name", list(DIRECT_PROBLEMS))
def test_direct_draws_take_k_normals_each(name):
    make, k = DIRECT_PROBLEMS[name]
    spec = make()
    generator, reference = np.random.default_rng(97), np.random.default_rng(97)
    outcome = sample_constrained(spec, 1_000, generator)
    assert outcome.samples.shape == (1_000, spec.n)
    reference.standard_normal((1_000, k))
    assert generator.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("name", list(DIRECT_PROBLEMS))
def test_direct_draws_lie_on_the_plane_and_on_the_range_of_sigma(name):
    spec = DIRECT_PROBLEMS[name][0]()
    samples = sample_constrained(spec, 20_000, 101).samples
    scale = max(1.0, float(np.abs(samples).max()))
    if spec.p:
        residual = (samples @ spec.C.T + spec.d) / np.linalg.norm(spec.C, axis=1)
        assert np.abs(residual).max() <= 1e-10 * scale
    eigvals, eigvecs = np.linalg.eigh(spec.sigma)
    null = eigvecs[:, eigvals <= 1e-10 * eigvals[-1]]
    assert np.abs((samples - spec.mu) @ null).max(initial=0.0) <= 1e-10 * scale


@pytest.mark.parametrize("name", ["pentagon_equality", "singular_plane"])
def test_direct_draws_match_the_conditional_oracle(name):
    spec = DIRECT_PROBLEMS[name][0]()
    outcome = sample_constrained(spec, 200_000, 103)
    oracle = conditional_direct_sample(spec, 200_000, np.random.default_rng(107))
    report = compare_stats(
        sample_stats(outcome.samples, independent=True),
        sample_stats(oracle.samples, independent=True),
        sigma_level=4.0,
    )
    assert report.all_passed, report.to_text()


def test_pentagon_equality_marginals_match_the_conditional_normal_cdfs(monkeypatch):
    # pentagon_equality has no inequality row, so its samples are iid draws
    # of the normal law on its plane: mean mu - E (C mu + d) and covariance
    # sigma - E C sigma, E = sigma C' (C sigma C')^-1, from the raw problem.
    # Each coordinate's KS distance from Phi((t - mean_j) / sd_j), by
    # math.erf, times root n: iid draws exceed 1.95 with probability 0.001.
    # It reads 0.6-1.6 at seeds 1-3 (0.6-1.1 at seeds 4-5); the map's B
    # scaled by 1.05 reads 5.2-6.2, and g moved along the plane by 0.1 sd
    # of x1 about 18
    spec = pentagon_problem("equality")
    mu, sigma, C, d = spec.mu, spec.sigma, spec.C, spec.d
    E = sigma @ C.T @ np.linalg.inv(C @ sigma @ C.T)
    mean, covariance = mu - E @ (C @ mu + d), sigma - E @ C @ sigma
    sd = np.sqrt(np.diag(covariance))
    phi = np.vectorize(lambda t: 0.5 * (1.0 + math.erf(t / math.sqrt(2.0))))
    n = 200_000
    ranks = np.arange(1, n + 1) / n

    def scores(seed):
        x = sample_constrained(spec, n, seed).samples
        cdf = phi((np.sort(x, axis=0) - mean) / sd)
        above = (ranks[:, None] - cdf).max(axis=0)
        below = (cdf - (ranks - 1.0 / n)[:, None]).max(axis=0)
        return np.maximum(above, below) * math.sqrt(n)

    for seed in (1, 2, 3):
        assert scores(seed).max() < 2.0, seed
    build = lingauss.sampler.build_transform
    for defect in (
        lambda t: replace(t, B=1.05 * t.B),
        lambda t: replace(t, g=t.g + 0.1 * covariance[:, 0] / sd[0]),  # x1's mean by 0.1 sd
    ):
        monkeypatch.setattr(
            lingauss.sampler, "build_transform", lambda *a, _d=defect, **kw: _d(build(*a, **kw))
        )
        assert scores(1).max() > 2.0


@pytest.mark.parametrize(
    "sigma",
    [np.diag([1.0, 0.0]), np.zeros((2, 2))],
    ids=["equality_takes_the_last_dimension", "zero_sigma"],
)
def test_no_dimension_left_is_a_point_mass(sigma):
    if sigma.any():  # x2 = 2 from sigma, x1 = 0.5 from the equality
        spec = ProblemSpec(mu=[0.0, 2.0], sigma=sigma, C=[[1.0, 0.0]], d=[-0.5])
    else:
        spec = ProblemSpec(mu=[0.5, 2.0], sigma=sigma)
    planned = plan(spec)
    assert planned.status == "point_mass"
    np.testing.assert_allclose(planned.point, [0.5, 2.0], atol=1e-12)
    outcome = sample_constrained(spec, 10, 1)
    assert outcome.status == "point_mass"
    np.testing.assert_array_equal(outcome.point, planned.point)


def test_rotated_singular_sigma_leaves_no_dimension_on_the_plane():
    # sigma = R diag(1, 0) R' carries mass along R[:, 0] alone, and the plane
    # R[:, 0]' x = 0.5 fixes that direction: the law is the point 0.5 R[:, 0].
    # Roundoff lets a Cholesky factor of some of these sigmas succeed, which
    # counted rank 2 and left a line about 1e-8 wide to sample
    for seed in range(50):
        rotation = special_ortho_group.rvs(2, random_state=seed)
        sigma = rotation @ np.diag([1.0, 0.0]) @ rotation.T
        spec = ProblemSpec(mu=np.zeros(2), sigma=sigma, C=[rotation[:, 0]], d=[-0.5])
        planned = plan(spec)
        assert planned.status == "point_mass", seed
        np.testing.assert_allclose(planned.point, 0.5 * rotation[:, 0], atol=1e-12)


def test_argument_validation(pentagon_both):
    with pytest.raises(ValueError):
        sample_constrained(pentagon_both, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_constrained(pentagon_both, 10, np.random.default_rng(0), burn_in=-1)
    with pytest.raises(ValueError):
        sample_constrained(pentagon_both, 10, np.random.default_rng(0), thin=0)
    with pytest.raises(ValueError):
        sample_constrained(pentagon_both, 10, np.random.default_rng(0), chains=0)


def test_seconds_are_recorded(pentagon_both):
    outcome = sample_constrained(pentagon_both, 100, np.random.default_rng(12))
    assert outcome.report.seconds > 0.0
    assert 0.0 < outcome.report.plan_seconds < outcome.report.seconds


def test_plan_seconds_time_the_plan(pentagon_both, monkeypatch):
    real = lingauss.sampler.find_feasible_point

    def slow_find_feasible_point(*args):
        time.sleep(0.02)
        return real(*args)

    monkeypatch.setattr(lingauss.sampler, "find_feasible_point", slow_find_feasible_point)
    assert plan(pentagon_both).report.plan_seconds >= 0.02
    report = sample_constrained(pentagon_both, 10, 1).report
    assert 0.02 <= report.plan_seconds <= report.seconds


def test_report_counts_lp_solves(pentagon_inequality, pentagon_both, pentagon_equality):
    assert plan(pentagon_inequality).report.lp_solves == 2  # slack LP, start's phase 2
    assert sample_constrained(pentagon_both, 10, 1).report.lp_solves == 2
    assert plan(pentagon_equality).report.lp_solves == 0  # no inequality, no LP
    pinned = ProblemSpec(mu=[0.3], sigma=np.eye(1), A=[[1.0], [-1.0]], b=[-0.7, 0.7])
    assert plan(pinned).report.lp_solves == 1  # the multipliers certify x = 0.7
    empty = ProblemSpec(mu=[0.0], sigma=np.eye(1), A=[[1.0], [-1.0]], b=[-1.0, 0.0])
    assert plan(empty).report.lp_solves == 1


def count_generators(monkeypatch):
    made = []
    real = np.random.default_rng

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(lingauss.sampler.np.random, "default_rng", counted)
    return made


PLANNED_WITHOUT_DRAWS = {
    "impossible": ProblemSpec(mu=[0.0], sigma=np.eye(1), A=[[1.0], [-1.0]], b=[-1.0, 0.0]),
    "point_mass": ProblemSpec(mu=[0.3], sigma=np.eye(1), A=[[1.0], [-1.0]], b=[-0.7, 0.7]),
    "no_solution": ProblemSpec(mu=[0.0, 0.0], sigma=np.eye(2), C=[[1.0, 0.0]] * 2, d=[0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(PLANNED_WITHOUT_DRAWS))
def test_verdicts_without_draws_build_no_generator(monkeypatch, name):
    made = count_generators(monkeypatch)
    outcome = sample_constrained(PLANNED_WITHOUT_DRAWS[name], 10, 3, chains=4)
    assert outcome.status != "samples"
    assert made == []


def test_only_the_chains_that_run_get_a_generator(
    monkeypatch, pentagon_inequality, pentagon_equality
):
    made = count_generators(monkeypatch)
    sample_constrained(pentagon_inequality, 2, 5, chains=4)
    assert made == [(5,), (6,)]
    made.clear()
    sample_constrained(pentagon_equality, 10, 5, chains=4)  # direct draws use chain 0's
    assert made == [(5,)]


@pytest.mark.parametrize(
    "rng, chains",
    [(-1, 1), (-3, 2), (1.5, 1), ("7", 1), (None, 1), (np.random.default_rng(0), 2)],
    ids=["negative", "negative_chains", "float", "string", "none", "generator_chains"],
)
def test_bad_seeds_raise_before_any_lp(monkeypatch, pentagon_both, rng, chains):
    def no_plan(spec):
        raise AssertionError("plan ran")

    monkeypatch.setattr(lingauss.sampler, "plan", no_plan)
    with pytest.raises(ValueError):
        sample_constrained(pentagon_both, 10, rng, chains=chains)


def test_chain_seconds_sum_the_time_in_fill_chain(pentagon_both, pentagon_equality, monkeypatch):
    outcome = sample_constrained(pentagon_both, 100, np.random.default_rng(12))
    assert 0.0 < outcome.report.chain_seconds <= outcome.report.seconds
    direct = sample_constrained(pentagon_equality, 100, np.random.default_rng(12))
    assert direct.report.chain_seconds == 0.0  # no chain ran
    # each chain's call is timed and the times add up
    real = lingauss.sampler.fill_chain

    def slow_fill_chain(*args):
        real(*args)
        time.sleep(0.02)

    monkeypatch.setattr(lingauss.sampler, "fill_chain", slow_fill_chain)
    report = sample_constrained(pentagon_both, 30, 12, chains=3).report
    assert 0.06 <= report.chain_seconds <= report.seconds


def plain_chain_samples(spec, n, seed):
    """The samples of the full-step chain alone, from the start point of plan."""
    planned = plan(spec)
    latent = np.empty((n, planned.transformed.B.shape[1]))
    fill_chain(planned.transformed, planned.start, latent, np.random.default_rng(seed))
    return mapped_in_blocks(planned.transformed, latent)


def singular_slab():
    """The slab of rank-2 sigma: no variance along its free direction w3."""
    return slab(sigma=lambda rotation: rotation @ np.diag([1.0, 1.0, 0.0]) @ rotation.T)[0]


def test_report_counts_long_directions(pentagon_inequality, pentagon_both, pentagon_equality):
    assert sample_constrained(pentagon_inequality, 10, 1).report.long_directions == 2
    assert sample_constrained(pentagon_both, 10, 1).report.long_directions == 0
    assert sample_constrained(pentagon_equality, 10, 1).report.long_directions == 0
    assert sample_constrained(slab()[0], 10, 1).report.long_directions == 2
    # on the plane w3 = 0.1 only w2 is long: the map onto the plane discards w3
    assert sample_constrained(slab(plane=True)[0], 10, 1).report.long_directions == 1
    # a singular sigma keeps only w1 and w2, of which w2 is long
    spec = singular_slab()
    outcome = sample_constrained(spec, 20_000, 1)
    assert outcome.report.long_directions == 1
    rejection = rejection_sample(spec, 5_000_000, np.random.default_rng(2))
    assert rejection.accepted >= 2_000
    report = compare_stats(
        sample_stats(outcome.samples),
        sample_stats(rejection.samples, independent=True),
        sigma_level=4.0,
    )
    assert report.all_passed, report.to_text()


@pytest.mark.parametrize(
    "make", [rotated_box, lambda: pentagon_problem("both")], ids=["box", "pentagon_both"]
)
def test_regions_without_thin_directions_keep_the_plain_chain(make):
    spec = make()
    outcome = sample_constrained(spec, 2_000, 67)
    assert outcome.report.long_directions == 0
    assert np.array_equal(outcome.samples, plain_chain_samples(spec, 2_000, 67))


def test_singular_sigma_samples_with_long_steps():
    spec = singular_slab()
    outcome = sample_constrained(spec, 500, 71)
    assert outcome.report.long_directions == 1
    assert np.array_equal(outcome.samples, stacked_samples(spec, 500, 71))
    assert not np.array_equal(outcome.samples, plain_chain_samples(spec, 500, 71))


def test_singular_sigma_chain_stays_on_the_support_of_the_prior():
    # sigma = diag(1, 0) pins x2 = 0; the rows leave 0.5 <= x1 <= 2/3 there
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=np.diag([1.0, 0.0]),
        A=[[1.0, 0.0], [-0.3, 1.0], [-3.0, -1.0]],
        b=[-0.5, 1.0, 2.0],
    )
    outcome = sample_constrained(spec, 3_000, 1)
    assert outcome.status == "samples"
    assert np.abs(outcome.samples[:, 1]).max() <= 1e-12
    assert (outcome.samples[:, 0] >= 0.5).all() and (outcome.samples[:, 0] <= 2 / 3).all()


def test_sigma_is_factored_once_per_spec(pentagon_both, pentagon_equality, monkeypatch):
    box = rotated_box()
    specs = [pentagon_both, pentagon_equality, box, ProblemSpec(mu=[0.0], sigma=[[1.0]])]

    def refused(*args, **kwargs):
        raise AssertionError("factor_covariance called on an existing spec")

    for name, module in list(sys.modules.items()):
        if name.startswith("lingauss") and hasattr(module, "factor_covariance"):
            monkeypatch.setattr(module, "factor_covariance", refused)
    for spec in specs:
        assert sample_constrained(spec, 10, 1).status == "samples"
    assert rejection_sample(box, 10, np.random.default_rng(1)).proposals == 10


def test_equality_system_is_classified_once(pentagon_both, monkeypatch):
    calls = []
    classify = lingauss.transform.classify_equality_system

    def counted(*args, **kwargs):
        calls.append(1)
        return classify(*args, **kwargs)

    monkeypatch.setattr("lingauss.transform.classify_equality_system", counted)
    monkeypatch.setattr("lingauss.sampler.classify_equality_system", counted)
    sample_constrained(pentagon_both, 10, 1)
    assert len(calls) == 1


# Verdicts do not depend on how the rows of either block are written

VERDICT_SYSTEMS = {
    "full_dimensional": (
        dict(
            mu=[0.3, -0.2, 0.1],
            sigma=np.eye(3),
            A=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            b=[1.0, 1.0, 0.0],
            C=[[1.0, 1.0, 1.0]],
            d=[-0.5],
        ),
        "samples",
    ),
    "large_offset": (  # x1 = 3e8 beside x2 = x3, on x2 >= -1
        dict(
            mu=[0.0, 0.0, 0.0],
            sigma=np.eye(3),
            A=[[0.0, 1.0, 0.0]],
            b=[1.0],
            C=[[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]],
            d=[-3e8, 0.0],
        ),
        "samples",
    ),
    "infeasible": (  # x1 >= 1 and x1 <= 0
        dict(
            mu=[0.0, 0.0],
            sigma=np.eye(2),
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
            b=[-1.0, 0.0, 2.0],
        ),
        "impossible",
    ),
    "point_mass": (  # x = (1, -2) pinned by two opposite pairs, plus a slack row
        dict(
            mu=[0.0, 0.0],
            sigma=np.eye(2),
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
            b=[-1.0, 1.0, 2.0, -2.0, 5.0],
        ),
        "point_mass",
    ),
    "flat": (  # x1 = 0, 0 <= x2 <= 5
        dict(
            mu=[0.0, 0.0],
            sigma=np.eye(2),
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, 0.0, 0.0, 5.0],
        ),
        "degenerate",
    ),
    "plane_point_mass": (  # three rows pin x = (0.2, -0.1, 0.5) on the plane x3 = 0.5
        dict(
            mu=[0.0, 0.0, 0.0],
            sigma=np.eye(3),
            A=[[1.0, 0.2, 0.7], [-0.3, 1.0, -0.2], [-0.9, -1.4, 0.4]],
            b=[-0.53, 0.26, -0.16],
            C=[[0.0, 0.0, 1.0]],
            d=[-0.5],
        ),
        "point_mass",
    ),
    "plane_flat": (  # x1 + 0.5 x3 = 0.25 on the plane x3 = 0.5, -1 <= x2 <= 1
        dict(
            mu=[0.0, 0.0, 0.0],
            sigma=np.eye(3),
            A=[[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
            b=[-0.25, 0.25, 1.0, 1.0],
            C=[[0.0, 0.0, 1.0]],
            d=[-0.5],
        ),
        "degenerate",
    ),
    "sigma_point_mass": (  # sigma pins x2 = 2 and the equality x1 = 0.5: rank(sigma) = r
        dict(
            mu=[0.0, 2.0],
            sigma=np.diag([1.0, 0.0]),
            A=[[0.0, 1.0]],
            b=[-1.0],
            C=[[1.0, 0.0]],
            d=[-0.5],
        ),
        "point_mass",
    ),
    "unique_violating": (  # the equalities pin x = (1, 2), which misses x1 >= 1.5
        dict(
            mu=[0.0, 0.0],
            sigma=np.eye(2),
            A=[[1.0, 0.0], [0.0, 1.0]],
            b=[-1.5, 0.0],
            C=[[1.0, 1.0], [1.0, -1.0]],
            d=[-3.0, 1.0],
        ),
        "impossible",
    ),
}


# each maps a block's row count and a generator to (row index, positive row scale)
ROW_TRANSFORMATIONS = {
    "scale 1e-10": lambda count, rng: (np.arange(count), np.full(count, 1e-10)),
    "scale 1e10": lambda count, rng: (np.arange(count), np.full(count, 1e10)),
    "scale random": lambda count, rng: (np.arange(count), 10.0 ** rng.uniform(-6.0, 6.0, count)),
    "permute": lambda count, rng: (rng.permutation(count), np.ones(count)),
    "duplicate": lambda count, rng: (
        np.concatenate([np.arange(count), rng.integers(0, count, count)]),
        np.ones(2 * count),
    ),
}


def transform_rows(arrays, transformation, rng):
    """arrays with the rows of both constraint blocks picked and scaled."""
    changed = dict(arrays)
    for left, right in (("A", "b"), ("C", "d")):
        if arrays.get(left) is not None:
            index, scale = transformation(len(arrays[right]), rng)
            changed[left] = np.asarray(arrays[left])[index] * scale[:, None]
            changed[right] = np.asarray(arrays[right])[index] * scale
    return changed


def verdict(spec):
    try:
        outcome = sample_constrained(spec, 20, 3)
    except DegenerateRegion:
        return "degenerate", None
    return outcome.status, outcome.point


@pytest.mark.parametrize("name", sorted(VERDICT_SYSTEMS))
def test_verdicts_are_invariant_to_row_scaling_permutation_and_duplication(name):
    arrays, expected = VERDICT_SYSTEMS[name]
    status, point = verdict(ProblemSpec(**arrays))
    assert status == expected
    rng = np.random.default_rng(79)
    for label, transformation in ROW_TRANSFORMATIONS.items():
        got, got_point = verdict(ProblemSpec(**transform_rows(arrays, transformation, rng)))
        assert got == expected, label
        if point is not None:
            np.testing.assert_allclose(got_point, point, atol=1e-8, err_msg=label)


# ... and neither does the law of the samples. A permutation moves the LP
# start point by roundoff, which a chain amplifies until its path is another
# one, so the chains are compared in law, each with a seed of its own.

IN_LAW_SYSTEMS = {
    "pentagon_inequality": (lambda: pentagon_problem("inequality"), 20_000),
    "rotated_box": (lambda: rotated_box(n=10), 15_000),
}


@pytest.mark.parametrize("name", sorted(IN_LAW_SYSTEMS))
def test_sample_law_is_invariant_to_row_scaling_permutation_and_duplication(name):
    make, steps = IN_LAW_SYSTEMS[name]
    spec = make()
    arrays = dict(mu=spec.mu, sigma=spec.sigma, A=spec.A, b=spec.b)
    reference = sample_stats(sample_constrained(spec, steps, 5).samples)
    rng = np.random.default_rng(113)
    for seed, label in enumerate(("scale random", "permute", "duplicate"), start=6):
        changed = ProblemSpec(**transform_rows(arrays, ROW_TRANSFORMATIONS[label], rng))
        stats = sample_stats(sample_constrained(changed, steps, seed).samples)
        report = compare_stats(reference, stats, sigma_level=4.0)
        assert report.all_passed, f"{label}\n{report.to_text()}"


# A frozen reference for the outputs: whole chains of u, each mapped on its
# own in the blocks that keep a shorter chain a prefix of a longer one, then
# stacked; and direct draws as one (n_samples, k) array of u, mapped in the
# same blocks. sample_constrained writes every sample into one array
# instead, and must return the same bits.


def mapped_in_blocks(transformed, latent):
    """g + B u for each row u of one chain, the rows taken in blocks of 1, 2,
    4, ... rows up to BLOCK_ELEMENTS elements of x, the last padded with zero
    rows to its full size."""
    cap = max(1, BLOCK_ELEMENTS // transformed.B.shape[0])
    mapped, start, size = [], 0, 1
    while start < len(latent):
        size = min(size, cap)
        rows = latent[start : start + size]
        block = np.zeros((size, latent.shape[1]))
        block[: len(rows)] = rows
        mapped.append((block @ transformed.B.T)[: len(rows)] + transformed.g)
        start += size
        size *= 2
    return np.vstack(mapped)


def stacked_samples(spec, n_samples, seed, burn_in=0, thin=1, chains=1):
    planned = plan(spec)
    transformed = planned.transformed
    k = transformed.B.shape[1]
    if spec.m == 0:
        draws = np.random.default_rng(seed).standard_normal((n_samples, k))
        return mapped_in_blocks(transformed, draws)
    transformed, start, long = chain_setup(spec)
    base, extra = divmod(n_samples, chains)
    parts = []
    for i in range(chains):
        count = base + (1 if i < extra else 0)
        if count:
            latent = np.empty((burn_in + count * thin, k))
            generator = np.random.default_rng(seed + i)
            fill_chain(transformed, start, latent, generator, long)
            parts.append(mapped_in_blocks(transformed, latent[burn_in::thin]))
    return np.vstack(parts)


def singular_sigma_region():
    rng = np.random.default_rng(137)
    rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    sigma = rotation @ np.diag([2.0, 1.0, 0.5, 0.0]) @ rotation.T
    box = np.vstack([np.eye(4), -np.eye(4)])
    return ProblemSpec(mu=np.zeros(4), sigma=0.5 * (sigma + sigma.T), A=box, b=np.ones(8))


STACKED_CASES = {
    "pentagon_inequality": (lambda: pentagon_problem("inequality"), 3_000, {}),
    "pentagon_both": (
        lambda: pentagon_problem("both"),
        100,
        dict(chains=3, burn_in=7, thin=3),
    ),
    "pentagon_both_many_blocks": (lambda: pentagon_problem("both"), 10_001, {}),
    "rotated_box": (rotated_box, 2_001, {}),
    "equality_only": (lambda: pentagon_problem("equality"), 20_001, {}),
    "one_draw": (lambda: pentagon_problem("equality"), 1, {}),
    "unconstrained": (singular_unconstrained, 5_000, {}),
    "singular_sigma": (singular_sigma_region, 1_000, {}),
    "fewer_samples_than_chains": (
        lambda: pentagon_problem("both"),
        2,
        dict(chains=4, burn_in=3, thin=2),
    ),
}


@pytest.mark.parametrize("name", list(STACKED_CASES))
def test_samples_equal_the_stacked_assembly(name):
    make, n_samples, kwargs = STACKED_CASES[name]
    spec = make()
    outcome = sample_constrained(spec, n_samples, 31, **kwargs)
    assert np.array_equal(outcome.samples, stacked_samples(spec, n_samples, 31, **kwargs))


def box_on_a_plane():
    """The rotated 100-D box of 200 rows cut by one equality row: the latent
    map multiplies every sample by a 100 x 100 projector."""
    box = rotated_box(n=100)
    C = np.random.default_rng(139).normal(size=(1, 100))
    return ProblemSpec(mu=box.mu, sigma=box.sigma, A=box.A, b=box.b, C=C, d=[0.0])


@pytest.mark.parametrize("chains", [1, 3])
def test_fewer_samples_are_a_prefix_of_each_chain(chains):
    # a BLAS product can round a row differently with the number of rows it
    # spans; each chain's rows are mapped in blocks whose shapes depend only
    # on the row's place in that chain, so chain i's first samples do not
    # depend on how many the call asks for
    spec = box_on_a_plane()
    full = sample_constrained(spec, 2_000, 5, chains=chains).samples
    starts = np.cumsum([0] + lingauss.sampler._split_counts(2_000, chains))
    for m in (1, 5, 60, 700):
        outcome = sample_constrained(spec, m, 5, chains=chains)
        counts = lingauss.sampler._split_counts(m, outcome.report.chains)
        for chain, rows in enumerate(np.split(outcome.samples, np.cumsum(counts)[:-1])):
            assert np.array_equal(rows, full[starts[chain] : starts[chain] + len(rows)]), (m, chain)


def normal_on_a_plane():
    """A 100-D normal on a 98-D plane: direct draws of k = 98 normals each."""
    rng = np.random.default_rng(149)
    root = rng.normal(size=(100, 100))
    return ProblemSpec(
        mu=rng.normal(size=100),
        sigma=root @ root.T / 100,
        C=rng.normal(size=(2, 100)),
        d=rng.normal(size=2),
    )


def test_fewer_direct_draws_are_a_prefix():
    # the direct draws are mapped in the same position-shaped blocks as the
    # chains' rows, so a shorter call returns the longer call's first rows
    spec = normal_on_a_plane()
    full = sample_constrained(spec, 2_000, 3).samples
    for m in (1, 5, 60, 700):
        assert np.array_equal(sample_constrained(spec, m, 3).samples, full[:m]), m


def test_calls_in_threads_equal_the_same_calls_in_turn():
    # map_latent_rows keeps its block buffers between calls, one set per
    # thread: calls in other threads must not write into them. Direct draws
    # spend most of a call in the map; the lengths pad their last blocks
    # differently, and the chain on the cut box maps rows of k = 99
    spec = normal_on_a_plane()
    cases = [(spec, 700), (spec, 1_500), (spec, 61), (box_on_a_plane(), 100)]
    expected = [sample_constrained(spec, m, 3).samples for spec, m in cases]
    got = [[] for _ in cases]

    def run(i):
        spec, m = cases[i]
        for _ in range(20):
            got[i].append(sample_constrained(spec, m, 3).samples)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, samples in enumerate(got):
        assert len(samples) == 20, i
        assert all(np.array_equal(s, expected[i]) for s in samples), i


# The region and radius that a caller reads off build_transform: the LPs pose
# H y + k >= 0 in y, and the chain starts from a point strictly inside it

REGION_CASES = {
    "box": lambda: rotated_box(n=10),
    "plane_cut_box": box_on_a_plane,
    "pentagon_both": lambda: pentagon_problem("both"),
    "singular_sigma": singular_slab,
}


@pytest.mark.parametrize("name", list(REGION_CASES))
def test_report_radius_and_start_belong_to_the_latent_region(name):
    spec = REGION_CASES[name]()
    transformed = build_transform(spec)
    region = find_feasible_point(transformed.H, transformed.k)
    report = sample_constrained(spec, 10, 1).report
    planned = plan(spec)
    y0 = planned.transformed.B @ planned.start  # = F y0 of the LP start
    if spec.factor.rank == spec.n:  # the same LP on the same rows
        assert report.chebyshev_radius == region.chebyshev_radius
        # H F = H: the start has the LP point's slacks
        np.testing.assert_allclose(transformed.H @ y0, transformed.H @ region.point, atol=1e-10)
    else:  # the LPs run on range(sigma), which holds the slab's rows
        assert report.chebyshev_radius == pytest.approx(region.chebyshev_radius, rel=1e-12)
    assert (transformed.H @ y0 + transformed.k > 0.0).all()
    assert (transformed.G @ planned.start + transformed.k > 0.0).all()
