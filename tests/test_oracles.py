import numpy as np
import pytest
from scipy.stats import norm

from lingauss.errors import SingularEqualityGram
from lingauss.oracles import conditional_direct_sample, rejection_sample
from lingauss.problem import ProblemSpec
from lingauss.transform import build_transform, classify_equality_system

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


def rotated(diagonal, seed):
    """Q diag(diagonal) Q' for a random rotation Q."""
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(diagonal), len(diagonal))))
    sigma = rotation @ np.diag(diagonal) @ rotation.T
    return 0.5 * (sigma + sigma.T)


PLANE_CASES = {
    # two rows parallel within 1e-9 or 5e-9 are one equation at EQUALITY_TOL
    "parallel_1e-9": (np.eye(3), [[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]], [0.0, 0.0]),
    "parallel_5e-9": (np.eye(3), [[1.0, 0.0, 0.0], [1.0, 5e-9, 0.0]], [0.0, 0.0]),
    "zero_rows": (np.eye(3), np.zeros((2, 3)), [0.0, 0.0]),
    "singular_sigma": (rotated([2.0, 1.0, 0.0], 5), [[1.0, 1.0, 1.0]], [-3.0]),
}


@pytest.mark.parametrize("name", list(PLANE_CASES))
def test_conditional_draws_span_the_plane_of_the_transform(name):
    # the oracle's draws move in as many directions as the package's B has columns
    sigma, C, d = PLANE_CASES[name]
    spec = ProblemSpec(mu=[0.0, 1.0, 2.0], sigma=sigma, C=C, d=d)
    report = conditional_direct_sample(spec, 2_000, np.random.default_rng(59))
    centred = report.samples - report.samples.mean(axis=0)
    singular_values = np.linalg.svd(centred, compute_uv=False)
    span = int(np.count_nonzero(singular_values > 1e-6 * singular_values[0]))
    assert span == build_transform(spec).B.shape[1]
    plane = classify_equality_system(C, d)
    np.testing.assert_allclose(report.samples @ plane.rows.T + plane.offsets, 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "sigma, C",
    [
        (np.diag([1.0, 1.0, 0.0]), [[0.0, 0.0, 1.0]]),  # the row is sigma's null direction
        (np.diag([1.0, 0.0, 0.0]), [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),  # more rows than n
    ],
    ids=["row_in_null_space", "more_rows_than_coordinates"],
)
def test_conditional_refuses_a_plane_sigma_has_no_mass_across(sigma, C):
    spec = ProblemSpec(mu=np.zeros(3), sigma=sigma, C=C, d=np.zeros(len(C)))
    with pytest.raises(SingularEqualityGram):
        build_transform(spec)
    with pytest.raises(SingularEqualityGram):
        conditional_direct_sample(spec, 10, np.random.default_rng(0))
