import numpy as np
import pytest
from scipy.stats import norm

from lingauss.oracles import conditional_direct_sample, rejection_sample
from lingauss.problem import ProblemSpec

from conftest import pentagon_plane_coords, pentagon_transform, random_spd


def conditional_moments(mu, sigma, C, d):
    """Textbook conditional moments of x ~ N(mu, sigma) given C x + d = 0."""
    gram_inv = np.linalg.inv(C @ sigma @ C.T)
    gain = sigma @ C.T @ gram_inv
    mean = mu - gain @ (C @ mu + d)
    cov = sigma - gain @ C @ sigma
    return mean, cov


def test_rejection_half_space_rate_and_support():
    # x1 >= 1 under N(0, I): acceptance probability is the normal tail
    spec = ProblemSpec(
        mu=np.zeros(2), sigma=np.eye(2), A=np.array([[1.0, 0.0]]), b=np.array([-1.0])
    )
    report = rejection_sample(spec, 200_000, np.random.default_rng(23))
    expected = norm.sf(1.0)
    se = np.sqrt(expected * (1 - expected) / 200_000)
    assert report.acceptance_rate == pytest.approx(expected, abs=4 * se)
    assert report.samples.shape[0] == report.accepted
    assert (spec.A @ report.samples.T + spec.b[:, None]).min() >= 0.0


def test_rejection_requires_inequalities_only():
    spec = ProblemSpec(
        mu=np.zeros(2), sigma=np.eye(2), C=np.array([[1.0, 0.0]]), d=np.array([0.0])
    )
    with pytest.raises(ValueError):
        rejection_sample(spec, 100, np.random.default_rng(0))


def test_rejection_counts_are_consistent():
    spec = ProblemSpec(
        mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.0])
    )
    report = rejection_sample(spec, 50_000, np.random.default_rng(29))
    assert report.proposals == 50_000
    assert report.acceptance_rate == pytest.approx(report.accepted / 50_000)
    assert report.acceptance_rate == pytest.approx(0.5, abs=0.02)


def test_conditional_matches_textbook_moments():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n))
        sigma = random_spd(rng, n)
        C = rng.normal(size=(p, n))
        d = -C @ rng.normal(size=n)
        mu = rng.normal(size=n)
        spec = ProblemSpec(mu=mu, sigma=sigma, C=C, d=d)
        report = conditional_direct_sample(spec, 50_000, np.random.default_rng(37))
        mean, cov = conditional_moments(mu, sigma, C, d)
        scale = np.sqrt(np.diag(cov).max())
        np.testing.assert_allclose(
            report.samples.mean(axis=0), mean, atol=5 * scale / np.sqrt(50_000) + 1e-9
        )
        np.testing.assert_allclose(
            np.cov(report.samples.T), cov, atol=6 * scale**2 * np.sqrt(2 / 50_000) + 1e-9
        )


def test_conditional_satisfies_equalities_exactly():
    rng = np.random.default_rng(41)
    sigma = random_spd(rng, 4)
    C = rng.normal(size=(2, 4))
    d = -C @ rng.normal(size=4)
    spec = ProblemSpec(mu=rng.normal(size=4), sigma=sigma, C=C, d=d)
    report = conditional_direct_sample(spec, 2_000, np.random.default_rng(43))
    residual = report.samples @ C.T + d
    assert np.abs(residual).max() < 1e-10
    assert report.accepted == report.proposals == 2_000


def test_conditional_requires_equalities():
    spec = ProblemSpec(mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(ValueError):
        conditional_direct_sample(spec, 100, np.random.default_rng(0))


def test_conditional_filter_keeps_only_feasible(pentagon_both):
    report = conditional_direct_sample(
        pentagon_both,
        20_000,
        np.random.default_rng(47),
        inequality_filter=(pentagon_both.A, pentagon_both.b),
    )
    assert report.proposals == 20_000
    assert report.accepted == report.samples.shape[0] < 20_000
    slack = report.samples @ pentagon_both.A.T + pentagon_both.b
    assert slack.min() >= 0.0
    residual = report.samples @ pentagon_both.C.T + pentagon_both.d
    assert np.abs(residual).max() < 1e-8


def test_plane_coordinates_flatten_the_equalities(pentagon_equality):
    vt = pentagon_transform()
    report = conditional_direct_sample(pentagon_equality, 200, np.random.default_rng(53))
    for x in report.samples[:20]:
        v1, v2 = pentagon_plane_coords(x, vt)
        full = vt.T @ x + vt.offset
        assert v1 == pytest.approx(full[0], abs=1e-10)
        assert v2 == pytest.approx(full[1], abs=1e-10)
        # the last two coordinates vanish on the constraint plane
        np.testing.assert_allclose(full[2:], 0.0, atol=1e-8)
