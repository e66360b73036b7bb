"""The benchmark's own effective-sample-size estimator.

Kept apart from the program's statistics layer so that a change there cannot
move the yardstick. Geyer's initial positive sequence: with rho_t the lag-t
autocorrelation, sum the pairs rho_2t + rho_2t+1 while they stay positive,
tau = -1 + 2 * (that sum), ESS = n / tau. The rate the benchmark reports is
the minimum over every coordinate x_j and its centred square (x_j - mean)^2,
as the project's roadmap defines it.
"""

from __future__ import annotations

import numpy as np

_COLUMNS_PER_FFT = 2  # bounds the FFT work arrays, which set the peak RSS otherwise


def geyer_ess(series: np.ndarray) -> np.ndarray:
    """ESS of each column of an (n, k) array of one chain's draws."""
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    n = series.shape[0]
    if n < 4:
        raise ValueError("need at least four draws to estimate an ESS")
    nfft = 1 << (2 * n - 1).bit_length()
    out = np.empty(series.shape[1])
    for lo in range(0, series.shape[1], _COLUMNS_PER_FFT):
        block = series[:, lo : lo + _COLUMNS_PER_FFT]
        centred = block - block.mean(axis=0)
        spectrum = np.fft.rfft(centred, nfft, axis=0)
        acov = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, nfft, axis=0)[:n]
        flat = acov[0] <= 0.0  # a constant column has no autocorrelation to estimate
        rho = acov / np.where(flat, 1.0, acov[0])
        pairs = rho[0 : n - 1 : 2] + rho[1:n:2]
        positive = np.logical_and.accumulate(pairs > 0.0, axis=0)
        tau = -1.0 + 2.0 * np.sum(pairs * positive, axis=0)
        out[lo : lo + block.shape[1]] = np.where(flat, n, n / np.maximum(tau, 1e-12))
    return out


def coordinate_ess(samples: np.ndarray, chains: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate ESS of x_j and of its centred square, summed over chains.

    `samples` holds `chains` equal-length chains back to back; each series
    is estimated per chain and the chains' ESS are added up.
    """
    samples = np.asarray(samples, dtype=float)
    n, dim = samples.shape
    if n % chains:
        raise ValueError(f"{n} draws do not split into {chains} equal chains")
    centred = samples - samples.mean(axis=0)
    total = np.zeros(2 * dim)
    for chain in np.split(centred, chains):
        total += geyer_ess(np.hstack([chain, chain**2]))
    return total[:dim], total[dim:]


def min_ess(samples: np.ndarray, chains: int = 1) -> float:
    """Minimum ESS over coordinates and centred squares."""
    return float(np.concatenate(coordinate_ess(samples, chains)).min())
