import numpy as np
import pytest

from lingauss.errors import NotPSD, NotSymmetric
from lingauss.linalg import factor_covariance

from conftest import random_spd


def test_identity_factors_to_identity():
    result = factor_covariance(np.eye(3))
    assert result.dimension == 3
    assert result.rank == 3
    np.testing.assert_allclose(result.factor @ result.factor.T, np.eye(3), atol=1e-12)


def test_random_spd_factor_reproduces_sigma():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = rng.integers(1, 9)
        sigma = random_spd(rng, n)
        result = factor_covariance(sigma)
        assert result.rank == n
        np.testing.assert_allclose(result.factor @ result.factor.T, sigma, atol=1e-8)


def test_rank_deficient_psd_factor():
    rng = np.random.default_rng(7)
    root = rng.normal(size=(5, 2))
    sigma = root @ root.T  # rank 2 PSD
    result = factor_covariance(sigma)
    assert result.rank == 2
    np.testing.assert_allclose(result.factor @ result.factor.T, sigma, atol=1e-10)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_rank_is_relative_to_the_scale_of_sigma(scale):
    assert factor_covariance(scale * np.diag([1.0, 2.0, 0.0])).rank == 2


def test_marginally_indefinite_is_clamped():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    sigma = q @ np.diag([2.0, 1.0, 0.5, -1e-14]) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    result = factor_covariance(sigma)  # must not raise NotPSD
    assert result.rank in (3, 4)  # the near-zero eigenvalue may round either way
    np.testing.assert_allclose(result.factor @ result.factor.T, sigma, atol=1e-10)


def test_asymmetric_raises():
    with pytest.raises(NotSymmetric):
        factor_covariance(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_indefinite_raises():
    with pytest.raises(NotPSD):
        factor_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_validation_is_relative_to_the_scale_of_sigma(scale):
    with pytest.raises(NotPSD):  # an eigenvalue of -50 times the largest
        factor_covariance(scale * np.diag([1.0, -50.0]))
    with pytest.raises(NotSymmetric):  # an asymmetry of 50 times the diagonal
        factor_covariance(scale * np.array([[1.0, 50.0], [0.0, 1.0]]))
    result = factor_covariance(scale * np.diag([1.0, -1e-14]))  # roundoff, clamped
    assert result.rank == 1


def test_non_square_rejected():
    with pytest.raises(ValueError):
        factor_covariance(np.ones((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        factor_covariance(np.array([[1.0, np.nan], [np.nan, 1.0]]))
