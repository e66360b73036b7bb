"""Every input of the benchmark's three workloads, sampled by the program,
against outputs frozen in this file: the verdict, the feasibility kind,
the samples' shape or the error raised, and lp_pivots, the Chebyshev
radius, a point mass's point, and digests of the chain's start point and
of the samples. A change that moves a verdict, a pivot, a start point or a
chain fails here; one that moves them on purpose records the table again
and says so.

The verdicts, the feasibility kinds, the shapes and the errors are
compared on every host. The rest depends on the bits, and the bits depend
on numpy, on its BLAS, on the CPU features that both pick kernels by and
on the number of BLAS threads (a product over 100 columns rounds
differently on two threads than on one); lp_pivots follows them wherever a
tie between rounded entries decides a pivot. So those fields are compared
only in the environment they were recorded in and are skipped elsewhere,
a CI runner included.
"""

import hashlib
import importlib.util
import os
import platform
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from lingauss.errors import LinGaussError
from lingauss.problem import ProblemSpec
from lingauss.sampler import plan, sample_constrained


def load_workloads():
    """bench/workloads.py, which builds every input from numpy alone."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module

SAMPLES = 20  # per input, or the input's own count when that is smaller
RECORDED_IN = (
    "2.4.6",
    "scipy-openblas 0.3.31.188.0",
    "x86_64",
    "e905ca5f201d",
    (None, None, 2),
)


class Frozen(NamedTuple):
    status: str
    feasibility: str | None
    lp_pivots: int
    chebyshev_radius: str | None  # float.hex
    point: tuple[str, ...] | None  # float.hex of each coordinate
    start: str | None  # digest of plan(spec).start
    samples: tuple[tuple[int, ...], str] | None  # shape and digest


class Raises(NamedTuple):
    error: str
    message: str


FROZEN = {
    "pentagon_inequality": Frozen(
        "samples",
        "full_dimensional",
        14,
        "0x1.0000000000001p+0",
        None,
        "27bea5a39c482549",
        ((20, 4), "ae93c244e6359462"),
    ),
    "pentagon_equality": Frozen(
        "samples",
        None,
        0,
        None,
        None,
        None,
        ((20, 4), "34ac4cbee5d0f9e8"),
    ),
    "pentagon_combined": Frozen(
        "samples",
        "full_dimensional",
        6,
        "0x1.658e8010b9a0ep-3",
        None,
        "a2dbce8e9181fca3",
        ((20, 4), "b97c4ff1ef38d083"),
    ),
    "box": Frozen(
        "samples",
        "full_dimensional",
        14,
        "0x1.0000000000000p+0",
        None,
        "b5df68e25815eac2",
        ((20, 50), "6651e5e9817dcd38"),
    ),
    "full_15x60": Frozen(
        "samples",
        "full_dimensional",
        41,
        "0x1.d1c7d439cf6bcp-1",
        None,
        "8cc3e7d6ec432c11",
        ((1, 15), "ad07b8d4aca3e76a"),
    ),
    "infeasible_15x61": Frozen(
        "impossible",
        "infeasible",
        25,
        None,
        None,
        None,
        None,
    ),
    "full_20x80": Frozen(
        "samples",
        "full_dimensional",
        57,
        "0x1.8d3526e4e387ap-1",
        None,
        "133bea7fbf8d6fd7",
        ((1, 20), "8c83b23bab2b590e"),
    ),
    "infeasible_20x81": Frozen(
        "impossible",
        "infeasible",
        48,
        None,
        None,
        None,
        None,
    ),
    "point_mass_8x33": Frozen(
        "point_mass",
        "point_mass",
        13,
        None,
        (
            "-0x1.aa623bcb3b9f4p-1", "-0x1.5a69eddc3f11bp-2", "-0x1.6416e6df0b214p-3",
            "0x1.d1357cee9c793p-2", "0x1.d8a12b29688bep-1", "-0x1.3a063891c88b8p-5",
            "-0x1.c647292770e99p-2", "-0x1.b8124eaed9352p-3",
        ),
        None,
        None,
    ),
    "point_mass_10x41": Frozen(
        "point_mass",
        "point_mass",
        17,
        None,
        (
            "-0x1.ab59b64a026f1p-2", "-0x1.0ef7d676108fbp-2", "0x1.ca560511264c8p-1",
            "0x1.fea17044957dcp-3", "-0x1.8410b7b0be348p-3", "0x1.1f80b891a1466p-3",
            "-0x1.46085273bc2d7p-2", "-0x1.729bb39bfca80p-1", "0x1.78c6085aec86ap-2",
            "-0x1.4a19fb336df54p-1",
        ),
        None,
        None,
    ),
    "flat_10": Raises(
        "DegenerateRegion",
        "feasible region is flat: 2 implicit equalities leave it 9-dimensional, "
        "with an interior on that flat",
    ),
    "equalities_100x70": Frozen(
        "samples",
        "full_dimensional",
        19,
        "0x1.ffffffffffffep-1",
        None,
        "3493db6ac7e85965",
        ((1, 100), "8da82902f1159d07"),
    ),
    "equalities_no_solution": Frozen(
        "impossible",
        None,
        0,
        None,
        None,
        None,
        None,
    ),
    "equalities_unique": Frozen(
        "point_mass",
        None,
        0,
        None,
        (
            "0x1.7517584aa02dep-1", "0x1.df3ec064cf04cp-2", "-0x1.b7e697603dbcdp-2",
            "-0x1.70c47dc88d0e8p-1", "-0x1.a48ce9206949ap-1", "-0x1.421f5fc4b1ed2p-2",
            "0x1.51fbf49c6573cp-6", "-0x1.f61da453efc16p-3", "0x1.192ddd2510f18p-5",
            "0x1.a35eadc8f46c5p-5",
        ),
        None,
        None,
    ),
    "scaled_infeasible": Frozen(
        "impossible",
        "infeasible",
        2,
        None,
        None,
        None,
        None,
    ),
}


CASES = {case.name: case for make in load_workloads().WORKLOADS.values() for case in make(1)}


def environment():
    """numpy's version, its BLAS, the machine, a digest of the CPU features
    numpy reports, and what sets the number of BLAS threads, or None where
    numpy does not report them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, KeyError, TypeError):
        return None
    features = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
    return (
        np.__version__,
        f"{blas['name']} {blas['version']}",
        platform.machine(),
        hashlib.sha256(features.encode()).hexdigest()[:12],
        tuple(os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        + (os.cpu_count(),),
    )


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


def hexes(values):
    return None if values is None else tuple(float(v).hex() for v in values)


def test_every_workload_input_is_frozen():
    assert set(FROZEN) == set(CASES)


def outputs(name):
    """The input's outputs in the fields of Frozen, or the error it raises
    as a Raises."""
    case = CASES[name]
    spec = ProblemSpec(**case.arrays)
    n_samples = min(case.n_samples, SAMPLES)
    try:
        outcome = sample_constrained(spec, n_samples, case.seed, **case.kwargs)
    except LinGaussError as error:
        return Raises(type(error).__name__, str(error))
    planned = plan(spec)
    report = outcome.report
    radius = report.chebyshev_radius
    samples = outcome.samples
    return Frozen(
        outcome.status,
        report.feasibility,
        report.lp_pivots,
        None if radius is None else float(radius).hex(),
        hexes(outcome.point),
        None if planned.start is None else digest(planned.start),
        None if samples is None else (samples.shape, digest(samples)),
    )


def verdict(outputs):
    """The fields that do not depend on the bits."""
    if isinstance(outputs, Raises):
        return outputs
    shape = None if outputs.samples is None else outputs.samples[0]
    return outputs.status, outputs.feasibility, shape


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdicts_equal_the_frozen_ones(name):
    assert verdict(outputs(name)) == verdict(FROZEN[name])


@pytest.mark.parametrize("name", sorted(n for n, f in FROZEN.items() if isinstance(f, Frozen)))
def test_outputs_equal_the_frozen_ones(name):
    if environment() != RECORDED_IN:
        pytest.skip(
            f"bit-level outputs recorded in {RECORDED_IN}, not in {environment()}; "
            "the verdicts are compared everywhere"
        )
    assert outputs(name) == FROZEN[name]
