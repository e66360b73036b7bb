import json

import numpy as np
import pytest

from lingauss.fixtures import (
    PENTAGON_A,
    PENTAGON_B,
    PENTAGON_C,
    PENTAGON_D,
    PLANE_OFFSET,
    PLANE_T,
    pentagon_problem,
    write_pentagon_files,
)
from lingauss.problem import load_problem

from conftest import pentagon_transform


def test_variant_shapes():
    both = pentagon_problem("both")
    assert (both.n, both.m, both.p) == (4, 5, 2)
    assert pentagon_problem("inequality").p == 0
    assert pentagon_problem("equality").m == 0
    none = pentagon_problem("none")
    assert (none.m, none.p) == (0, 0)
    with pytest.raises(ValueError):
        pentagon_problem("bogus")


def test_constants_are_consistent():
    assert PENTAGON_A.shape == (5, 4)
    assert PENTAGON_B.shape == (5,)
    assert PENTAGON_C.shape == (2, 4)
    assert PENTAGON_D.shape == (2,)
    # the plane transform's last two rows are the equality system itself
    np.testing.assert_array_equal(PLANE_T[2:], PENTAGON_C)


def test_plane_transform_is_invertible():
    vt = pentagon_transform()
    det = np.linalg.det(vt.T)
    assert det == pytest.approx(-314.94, rel=1e-3)


def test_problem_is_well_posed():
    spec = pentagon_problem("both")
    eigenvalues = np.linalg.eigvalsh(spec.sigma)
    assert eigenvalues.min() > 0.0  # strictly positive definite
    assert np.linalg.matrix_rank(spec.C) == 2


def test_written_files_round_trip(tmp_path):
    paths = write_pentagon_files(tmp_path)
    names = sorted(path.name for path in paths)
    assert names == [
        "pentagon_combined.json",
        "pentagon_equality.json",
        "pentagon_inequality.json",
        "pentagon_transform.json",
    ]
    combined = load_problem(tmp_path / "pentagon_combined.json")
    np.testing.assert_array_equal(combined.A, PENTAGON_A)
    np.testing.assert_array_equal(combined.C, PENTAGON_C)
    inequality = load_problem(tmp_path / "pentagon_inequality.json")
    assert inequality.p == 0
    plane = json.loads((tmp_path / "pentagon_transform.json").read_text())
    np.testing.assert_array_equal(plane["T"], PLANE_T)
    np.testing.assert_array_equal(plane["offset"], PLANE_OFFSET)
