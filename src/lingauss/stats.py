"""Moment estimates with autocorrelation-aware standard errors.

The effective sample size per coordinate uses Geyer's initial positive
sequence: autocorrelations are summed in adjacent-lag pairs for as long as
the pair sums stay positive, which is a consistent, conservative truncation
for reversible chains. Each coordinate's ESS is the smaller of the value for
the coordinate series and for its centered square, because second moments
are part of every downstream comparison and decorrelate slower on slice
chains. Independent inputs skip the machinery and use the raw sample count.

The series are estimated in blocks of coordinates. A block is one
C-contiguous (c, n) array of centered coordinate series: one rfft and one
irfft of length nfft (the power of two at or above 2n - 1) along its rows
give every autocovariance of the block, with the power spectrum formed in
place. The block is then squared and centered in place and transformed
again. c is BLOCK_ELEMENTS // (2 nfft), so a block's padded series hold at
most half of BLOCK_ELEMENTS; where that is 0, a block is one series, and
the memory a long chain's statistics take grows with nfft alone, not with
the number of coordinates. The truncation is vectorised: the pair sums
rho[0:n-1:2] + rho[1:n:2] are kept up to their first nonpositive entry by
np.logical_and.accumulate along each row.

compare_stats checks two estimates against each other elementwise:
|a - b| <= sigma_level * sqrt(se_a^2 + se_b^2). Covariance-element standard
errors come from the Gaussian-theory formula
sqrt((s_ii s_jj + s_ij^2) / ess) with ess = min(ess_i, ess_j) -- a tolerance
heuristic rather than an estimator, but effective at the sigma levels used
here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamples
from .linalg import BLOCK_ELEMENTS, doubling_blocks


@dataclass(frozen=True)
class SampleStats:
    """Unbiased moments of a sample plus per-coordinate uncertainty.

    mean_se[i] = sqrt(covariance[i, i] / ess[i]).
    """

    n: int
    mean: np.ndarray
    covariance: np.ndarray
    mean_se: np.ndarray
    ess: np.ndarray


def _geyer_ess(block: np.ndarray, nfft: int) -> np.ndarray:
    """Effective sample size of each row of a C-contiguous (c, n) block of
    centered series via initial positive sums, with FFTs of length nfft."""
    n = block.shape[1]
    spectrum = np.fft.rfft(block, nfft, axis=1)
    # the power spectrum real**2 + imag**2, written over the spectrum itself
    power = spectrum.real
    power **= 2
    power += spectrum.imag**2
    spectrum.imag = 0.0
    autocov = np.fft.irfft(spectrum, nfft, axis=1)
    del spectrum, power  # freed before the pair sums: a long series' peak is here
    rho = autocov[:, :n]
    rho /= n
    variance = rho[:, 0].copy()
    # a constant series has no autocorrelation to estimate: its ESS is n
    constant = variance <= 0.0
    variance[constant] = 1.0
    rho /= variance[:, None]
    # lags (0, 1), (2, 3), ...: an even n's last pair is lags n - 2 and n - 1.
    # A NaN pair does not end the sum, so a NaN series has a NaN ESS.
    pairs = rho[:, 0 : n - 1 : 2] + rho[:, 1:n:2]
    initial = np.logical_and.accumulate(~(pairs <= 0.0), axis=1)
    tau = 2.0 * np.sum(pairs, axis=1, where=initial) - 1.0
    ess = np.clip(n / np.maximum(tau, 1e-12), 1.0, n)
    ess[constant] = n
    return ess


def sample_stats(samples, independent: bool = False) -> SampleStats:
    """Mean, covariance (ddof=1), per-coordinate ESS and mean standard errors.

    Set independent=True for sources known to be iid (direct draws, the
    rejection and conditional reference samplers); the ESS is then the
    sample count itself. The mean is row 0 plus the mean of the rows minus
    row 0, so its error is relative to the spread of the samples even far
    from the origin; the covariance takes a second pass over the centered
    rows. Both passes center one row block at a time in a reused buffer,
    over blocks of 1, 2, 4, ... rows up to about BLOCK_ELEMENTS elements
    (linalg.doubling_blocks), and the ESS series are built a block of
    columns at a time (see the module docstring), so no temporary is the
    size of the input. All-identical rows raise DegenerateSamples.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ValueError(f"samples must be 1-D or 2-D, got ndim={samples.ndim}")
    n, dim = samples.shape
    if n < 2:
        raise ValueError("need at least two samples for moment estimates")
    first = samples[0]
    blocks = [
        slice(start, min(start + size, n))
        for start, size in doubling_blocks(n, max(1, BLOCK_ELEMENTS // max(dim, 1)))
    ]
    # rows 0 and 1 differ on almost every input, so the full scan is rare
    if np.array_equal(samples[1], first) and all(
        (samples[block] == first).all() for block in blocks
    ):
        raise DegenerateSamples("all samples are identical; report a point mass instead")
    # Column sums as BLAS products, taken after shifting by row 0 so that
    # their rounding error scales with the spread of the samples, not with
    # their offset from the origin. Row 0 and the shift are repeated down a
    # block, so each subtraction runs as one contiguous loop rather than
    # dim elements at a time.
    size = max(block.stop - block.start for block in blocks)
    buffer = np.empty((size, dim))
    firsts = np.tile(first, (size, 1))
    ones = np.ones(size)
    total = np.zeros(dim)
    for block in blocks:
        count = block.stop - block.start
        rows = np.subtract(samples[block], firsts[:count], out=buffer[:count])
        total += ones[:count] @ rows
    shift = total / n
    mean = first + shift
    shifts = np.tile(shift, (size, 1))
    covariance = np.zeros((dim, dim))
    for block in blocks:
        count = block.stop - block.start
        rows = np.subtract(samples[block], firsts[:count], out=buffer[:count])
        rows -= shifts[:count]
        covariance += rows.T @ rows
    covariance /= n - 1
    covariance = 0.5 * (covariance + covariance.T)
    del buffer, firsts, shifts, ones  # the ESS pass needs its own memory
    if independent:
        ess = np.full(dim, float(n))
    else:
        # Covariance entries are compared too, and squared coordinates
        # decorrelate slower than the coordinates themselves on slice chains,
        # so take the more pessimistic of the two series per coordinate.
        nfft = 1 << (2 * n - 1).bit_length()
        width = max(1, BLOCK_ELEMENTS // (2 * nfft))
        series = np.empty((min(width, dim), n))
        ess = np.empty(dim)
        for start in range(0, dim, width):
            columns = slice(start, min(start + width, dim))
            block = series[: columns.stop - start]
            np.subtract(samples[:, columns].T, first[columns, None], out=block)
            block -= shift[columns, None]
            ess[columns] = _geyer_ess(block, nfft)
            block **= 2
            block -= block.mean(axis=1, keepdims=True)
            np.minimum(ess[columns], _geyer_ess(block, nfft), out=ess[columns])
    mean_se = np.sqrt(np.diag(covariance) / ess)
    return SampleStats(n=n, mean=mean, covariance=covariance, mean_se=mean_se, ess=ess)


@dataclass(frozen=True)
class ComparisonItem:
    label: str
    value_a: float
    value_b: float
    combined_se: float
    z: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    sigma_level: float
    items: tuple[ComparisonItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def max_z(self) -> float:
        return max(item.z for item in self.items)

    def to_text(self) -> str:
        lines = [
            f"{'element':<10} {'a':>13} {'b':>13} {'combined se':>12} {'z':>8}  verdict"
        ]
        for item in self.items:
            lines.append(
                f"{item.label:<10} {item.value_a:>13.6g} {item.value_b:>13.6g} "
                f"{item.combined_se:>12.4g} {item.z:>8.2f}  "
                f"{'ok' if item.passed else 'FAIL'}"
            )
        verdict = "agree" if self.all_passed else "DISAGREE"
        lines.append(
            f"{len(self.items)} elements at sigma level {self.sigma_level:g}: "
            f"{verdict} (max z = {self.max_z:.2f})"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "sigma_level": self.sigma_level,
                "all_passed": self.all_passed,
                "max_z": self.max_z,
                "items": [
                    {
                        "label": item.label,
                        "a": item.value_a,
                        "b": item.value_b,
                        "combined_se": item.combined_se,
                        "z": item.z,
                        "passed": item.passed,
                    }
                    for item in self.items
                ],
            },
            indent=2,
        )


def _covariance_se(stats: SampleStats, i: int, j: int) -> float:
    ess = float(min(stats.ess[i], stats.ess[j]))
    s = stats.covariance
    return math.sqrt((s[i, i] * s[j, j] + s[i, j] ** 2) / ess)


def _item(label, value_a, value_b, combined_se, sigma_level):
    difference = abs(value_a - value_b)
    if combined_se > 0.0:
        z = difference / combined_se
    else:
        z = 0.0 if difference == 0.0 else math.inf
    return ComparisonItem(
        label=label,
        value_a=float(value_a),
        value_b=float(value_b),
        combined_se=float(combined_se),
        z=float(z),
        passed=bool(difference <= sigma_level * combined_se),
    )


def compare_stats(a: SampleStats, b: SampleStats, sigma_level: float = 4.0) -> ComparisonReport:
    """Elementwise agreement of means and covariance entries (upper triangle)."""
    dim = a.mean.size
    if b.mean.size != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {b.mean.size}")
    if not (math.isfinite(sigma_level) and sigma_level > 0.0):
        raise ValueError("sigma_level must be finite and positive")
    items = []
    for i in range(dim):
        combined = math.hypot(a.mean_se[i], b.mean_se[i])
        items.append(_item(f"mean[{i + 1}]", a.mean[i], b.mean[i], combined, sigma_level))
    for i in range(dim):
        for j in range(i, dim):
            combined = math.hypot(_covariance_se(a, i, j), _covariance_se(b, i, j))
            items.append(
                _item(
                    f"cov[{i + 1},{j + 1}]",
                    a.covariance[i, j],
                    b.covariance[i, j],
                    combined,
                    sigma_level,
                )
            )
    return ComparisonReport(sigma_level=float(sigma_level), items=tuple(items))
