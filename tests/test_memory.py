"""Peak memory of a sampling call and of its statistics.

tracemalloc sees numpy's buffers, so the traced peak of a call, less the
bytes of the array it returns, is what the call held on top of its output.
That excess must stay under one fixed bound at N samples and at 4N: a call
that kept a second copy of its output, or a statistics pass that centered a
copy of its input, exceeds it at 4N. A long chain's ESS works on padded FFTs
of its whole length, so there the bound is per padded element instead.
"""

import tracemalloc

import numpy as np
import pytest

from lingauss.problem import ProblemSpec
from lingauss.sampler import sample_constrained
from lingauss.stats import sample_stats

from test_elliptical_slice import rotated_box
from test_stats import ar1

EXCESS_BOUND = 5 << 18  # bytes (1.25 MiB); 4N samples of 50 coordinates take 1.6 MB
N = 1_000


def traced(call):
    """The call's result and its traced peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wedge_on_a_plane():
    """N(0, I) in 50-D cut by three half-spaces and the plane x . 1 = 0."""
    rng = np.random.default_rng(127)
    return ProblemSpec(
        mu=np.zeros(50),
        sigma=np.eye(50),
        A=rng.normal(size=(3, 50)),
        b=np.ones(3),
        C=[np.ones(50)],
        d=[0.0],
    )


def direct_problem():
    """A 50-D normal on a 48-D plane: direct draws, k = 48 normals each."""
    rng = np.random.default_rng(131)
    root = rng.normal(size=(50, 50))
    return ProblemSpec(
        mu=rng.normal(size=50),
        sigma=root @ root.T / 50,
        C=rng.normal(size=(2, 50)),
        d=rng.normal(size=2),
    )


CALLS = {
    "one chain": (rotated_box, {}),
    "three chains, burn-in and thinning": (wedge_on_a_plane, dict(chains=3, burn_in=50, thin=2)),
    "direct": (direct_problem, {}),
}

_outputs = {}


def sampled(name, n):
    """The outcome of the named call for n samples and its traced peak."""
    if (name, n) not in _outputs:
        make, kwargs = CALLS[name]
        spec = make()
        _outputs[name, n] = traced(lambda: sample_constrained(spec, n, 17, **kwargs))
    return _outputs[name, n]


@pytest.mark.parametrize("name", list(CALLS))
@pytest.mark.parametrize("n", [N, 4 * N])
def test_a_sampling_call_holds_one_output_array(name, n):
    outcome, peak = sampled(name, n)
    assert outcome.samples.shape == (n, 50)
    assert peak - outcome.samples.nbytes <= EXCESS_BOUND


@pytest.mark.parametrize("name", ["one chain", "direct"])
@pytest.mark.parametrize("n", [N, 4 * N])
def test_sample_stats_centers_no_copy_of_its_input(name, n):
    outcome, _ = sampled(name, n)
    samples = outcome.samples
    independent = outcome.report.chain_steps == 0
    stats, peak = traced(lambda: sample_stats(samples, independent=independent))
    assert stats.n == n
    assert peak <= EXCESS_BOUND


def test_the_ess_of_a_long_chain_takes_one_padded_series_at_a_time():
    # pentagon's checked chain: 100k steps of 4 coordinates
    n = 100_000
    samples = ar1(np.random.default_rng(137), n, 0.9, dim=4)
    nfft = 1 << (2 * n - 1).bit_length()
    stats, peak = traced(lambda: sample_stats(samples))
    assert stats.ess.shape == (4,)
    # 5.39 MB; 5.98 MB while the moment passes' buffers outlived them
    assert peak <= 21 * nfft  # 5.5 MB
