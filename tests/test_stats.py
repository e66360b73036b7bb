import json

import numpy as np
import pytest

from lingauss.errors import DegenerateSamples
from lingauss.sampler import sample_constrained
from lingauss.stats import compare_stats, sample_stats

from test_elliptical_slice import rotated_box


def ar1(rng, n, rho, dim=1):
    """AR(1) chain with unit stationary variance per coordinate."""
    innovations = rng.normal(size=(n, dim)) * np.sqrt(1 - rho**2)
    out = np.empty((n, dim))
    out[0] = rng.normal(size=dim)
    for t in range(1, n):
        out[t] = rho * out[t - 1] + innovations[t]
    return out


# Frozen: the per-coordinate ESS as it stood before it ran in blocks of
# coordinates, verbatim apart from the names; the shift is taken here with
# numpy's mean. sample_stats must reproduce it to rounding.


def _frozen_geyer_ess(centered):
    n = centered.size
    if not centered.any():  # constant coordinate: no autocorrelation to estimate
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, nfft)
    # the power spectrum real**2 + imag**2, written over the spectrum itself
    power = spectrum.real
    power **= 2
    power += spectrum.imag**2
    spectrum.imag = 0.0
    autocov = np.fft.irfft(spectrum, nfft)[:n] / n
    if autocov[0] <= 0.0:
        return float(n)
    rho = autocov / autocov[0]
    tau = -1.0
    for lag in range(0, n - 1, 2):
        pair = rho[lag] + rho[lag + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(min(max(n / max(tau, 1e-12), 1.0), n))


def _frozen_ess(samples):
    n, dim = samples.shape
    first = samples[0]
    shift = (samples - first).mean(axis=0)
    ess = np.empty(dim)
    for j in range(dim):
        series = samples[:, j] - first[j]
        series -= shift[j]
        squared = series**2
        squared -= squared.mean()
        ess[j] = min(_frozen_geyer_ess(series), _frozen_geyer_ess(squared))
    return ess


def _mixed_columns(n, seed):
    """AR(1) with rho 0.9, iid, constant, and +-1.5 in equal numbers where n
    is even, so that the square of the centered column is constant."""
    rng = np.random.default_rng(seed)
    samples = np.empty((n, 4))
    samples[:, :1] = ar1(rng, n, 0.9)
    samples[:, 1] = rng.normal(size=n)
    samples[:, 2] = 3.0
    samples[:, 3] = rng.permutation(np.resize([1.5, -1.5], n))
    return samples


@pytest.mark.parametrize("n", [2, 3, 4, 5, 999, 1000, 1001, 4000, 20001])
def test_ess_matches_the_frozen_column_loop(n):
    samples = _mixed_columns(n, n)
    ess = sample_stats(samples).ess
    np.testing.assert_allclose(ess, _frozen_ess(samples), rtol=1e-12, atol=0)
    assert ess[2] == n
    if n % 2 == 0:  # mean 0: the centered column is +-1.5, its square constant
        assert samples[:, 3].sum() == 0.0


def test_a_nan_column_has_a_nan_ess():
    samples = _mixed_columns(1_000, 1)
    samples[500, 1] = np.nan
    ess = sample_stats(samples).ess
    assert np.isnan(ess[1]) and not np.isnan(ess[[0, 2, 3]]).any()
    np.testing.assert_allclose(ess, _frozen_ess(samples), rtol=1e-12, atol=0)


def test_ess_of_a_box_chain_matches_the_frozen_column_loop():
    samples = sample_constrained(rotated_box(), 1_000, 3).samples
    ess = sample_stats(samples).ess
    np.testing.assert_allclose(ess, _frozen_ess(samples), rtol=1e-12, atol=0)
    assert ess.shape == (50,) and (ess < 1_000).all()


def test_independent_inputs_report_full_ess():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(5_000, 3))
    stats = sample_stats(samples, independent=True)
    np.testing.assert_array_equal(stats.ess, [5_000.0] * 3)
    np.testing.assert_allclose(stats.mean, 0.0, atol=4 / np.sqrt(5_000))
    np.testing.assert_allclose(stats.covariance, np.eye(3), atol=0.12)
    np.testing.assert_allclose(
        stats.mean_se, np.sqrt(np.diag(stats.covariance) / 5_000), atol=1e-12
    )


def test_iid_ess_estimate_is_near_sample_count():
    rng = np.random.default_rng(3)
    stats = sample_stats(rng.normal(size=(20_000, 2)))
    assert np.all(stats.ess > 10_000)  # Geyer noise stays well above half


def test_ar1_ess_matches_theory():
    rho = 0.9
    theory = (1 - rho) / (1 + rho)  # ESS fraction for linear functionals
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(10):
        stats = sample_stats(ar1(rng, 40_000, rho))
        ratios.append(stats.ess[0] / 40_000)
    median = np.median(ratios)
    # the squared-series ESS can only pull the estimate down, so check a band
    assert theory / 3 < median < theory * 1.5


def test_slow_second_moments_reduce_ess():
    # signs flip independently (fast linear decorrelation) but magnitudes are
    # persistent, so the squared series decorrelates slowly
    rng = np.random.default_rng(7)
    n = 40_000
    magnitudes = np.abs(ar1(rng, n, 0.995))[:, 0]
    signs = rng.choice([-1.0, 1.0], size=n)
    series = signs * magnitudes
    stats = sample_stats(series)
    assert stats.ess[0] < n / 3


def test_constant_samples_raise():
    with pytest.raises(DegenerateSamples):
        sample_stats(np.ones((100, 2)))


def test_identical_rows_are_scanned_to_the_last():
    # 30k rows of 3 coordinates span several row blocks
    samples = np.ones((30_000, 3))
    samples[-1, 2] = 1.5
    stats = sample_stats(samples, independent=True)
    assert stats.covariance[2, 2] > 0.0
    series = np.full(70_000, 2.0)
    series[-1] = 3.0
    assert sample_stats(series).ess.shape == (1,)
    with pytest.raises(DegenerateSamples):
        sample_stats(np.full(70_000, 2.0))
    with pytest.raises(DegenerateSamples):
        sample_stats(np.full((30_000, 3), -4.0))


def test_equal_first_rows_do_not_raise():
    samples = np.ones((100, 2))
    samples[57, 1] = 2.0
    stats = sample_stats(samples, independent=True)
    np.testing.assert_allclose(stats.mean, [1.0, 1.01], rtol=1e-15)


@pytest.mark.parametrize("independent", [True, False])
def test_moments_far_from_the_origin(independent):
    # np.mean of the offset input itself is off by about 1e-6 here, so the
    # references take the offset out first; y - offset is exact in floats
    rng = np.random.default_rng(11)
    offset = 1e8
    y = rng.normal(size=(200_000, 3)) @ rng.normal(size=(3, 3)) + offset
    shifted = y - offset
    stats = sample_stats(y, independent=independent)
    reference = np.cov(shifted.T)
    spread = np.sqrt(np.diag(reference).max())
    atol = 1e-12 * spread + np.spacing(offset)
    np.testing.assert_allclose(stats.mean, offset + np.mean(shifted, axis=0), rtol=0, atol=atol)
    np.testing.assert_allclose(stats.covariance, reference, rtol=0, atol=1e-12 * spread**2)


def test_too_few_samples_raise():
    with pytest.raises(ValueError):
        sample_stats(np.ones((1, 2)))


def test_one_dimensional_input_is_promoted():
    rng = np.random.default_rng(9)
    stats = sample_stats(rng.normal(size=1_000), independent=True)
    assert stats.mean.shape == (1,)
    assert stats.covariance.shape == (1, 1)


def test_compare_same_distribution_passes():
    rng = np.random.default_rng(11)
    a = sample_stats(rng.normal(size=(30_000, 2)), independent=True)
    b = sample_stats(rng.normal(size=(30_000, 2)), independent=True)
    report = compare_stats(a, b, sigma_level=4.0)
    assert report.all_passed
    assert len(report.items) == 2 + 3  # two means, upper-triangle covariance


def test_compare_detects_shifted_mean():
    rng = np.random.default_rng(13)
    a = sample_stats(rng.normal(size=(30_000, 1)), independent=True)
    b = sample_stats(rng.normal(size=(30_000, 1)) + 0.2, independent=True)
    report = compare_stats(a, b, sigma_level=4.0)
    assert not report.all_passed
    failing = [item.label for item in report.items if not item.passed]
    assert "mean[1]" in failing


def test_compare_detects_inflated_covariance():
    rng = np.random.default_rng(15)
    a = sample_stats(rng.normal(size=(30_000, 1)), independent=True)
    b = sample_stats(rng.normal(size=(30_000, 1)) * 1.3, independent=True)
    report = compare_stats(a, b, sigma_level=4.0)
    assert not report.all_passed
    failing = [item.label for item in report.items if not item.passed]
    assert "cov[1,1]" in failing


def test_calibration_under_the_null():
    # many paired iid datasets: the 4-sigma test should essentially never fire
    rng = np.random.default_rng(17)
    cov = np.array([[2.0, 0.7], [0.7, 1.0]])
    factor = np.linalg.cholesky(cov)
    failures = 0
    for _ in range(100):
        a = rng.normal(size=(4_000, 2)) @ factor.T
        b = rng.normal(size=(4_000, 2)) @ factor.T
        report = compare_stats(
            sample_stats(a, independent=True),
            sample_stats(b, independent=True),
            sigma_level=4.0,
        )
        failures += 0 if report.all_passed else 1
    assert failures == 0


def test_compare_validates_inputs():
    rng = np.random.default_rng(19)
    a = sample_stats(rng.normal(size=(100, 2)), independent=True)
    b = sample_stats(rng.normal(size=(100, 3)), independent=True)
    with pytest.raises(ValueError):
        compare_stats(a, b)
    for level in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            compare_stats(a, a, sigma_level=level)


def test_report_renderings():
    rng = np.random.default_rng(21)
    a = sample_stats(rng.normal(size=(1_000, 2)), independent=True)
    b = sample_stats(rng.normal(size=(1_000, 2)), independent=True)
    report = compare_stats(a, b)
    text = report.to_text()
    assert "mean[1]" in text and "cov[2,2]" in text
    parsed = json.loads(report.to_json())
    assert parsed["all_passed"] == report.all_passed
    assert len(parsed["items"]) == 5
    assert report.max_z >= 0.0
