import json

import numpy as np
import pytest

from lingauss.errors import NotPSD, ProblemFormatError
from lingauss.problem import (
    ProblemSpec,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)


def minimal_doc():
    return {
        "n": 2,
        "mu": [0.5, -1.0],
        "sigma": [[2.0, 0.3], [0.3, 1.0]],
        "A": [[1.0, 0.0]],
        "b": [0.25],
        "C": [[1.0, 1.0]],
        "d": [-0.5],
    }


def test_from_dict_happy_path():
    spec = problem_from_dict(minimal_doc())
    assert (spec.n, spec.m, spec.p) == (2, 1, 1)
    np.testing.assert_array_equal(spec.mu, [0.5, -1.0])
    assert spec.A.shape == (1, 2)
    assert spec.C.shape == (1, 2)


def test_absent_blocks_normalize_to_empty():
    spec = ProblemSpec(mu=[0.0], sigma=[[1.0]])
    assert spec.A.shape == (0, 1)
    assert spec.b.shape == (0,)
    assert spec.C.shape == (0, 1)
    assert (spec.m, spec.p) == (0, 0)


@pytest.mark.parametrize("missing", ["n", "mu", "sigma"])
def test_missing_required_field(missing):
    doc = minimal_doc()
    del doc[missing]
    with pytest.raises(ProblemFormatError):
        problem_from_dict(doc)


def test_unknown_field_rejected():
    doc = minimal_doc()
    doc["extra"] = 1
    with pytest.raises(ProblemFormatError, match="extra"):
        problem_from_dict(doc)


def test_matrix_without_offset_rejected():
    doc = minimal_doc()
    del doc["b"]
    with pytest.raises(ProblemFormatError):
        problem_from_dict(doc)


def test_wrong_shapes_rejected():
    doc = minimal_doc()
    doc["A"] = [[1.0, 0.0, 0.0]]
    with pytest.raises((ProblemFormatError, ValueError)):
        problem_from_dict(doc)
    with pytest.raises(ValueError):
        ProblemSpec(mu=[0.0, 0.0], sigma=[[1.0]])


def test_indefinite_sigma_rejected():
    doc = minimal_doc()
    doc["sigma"] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(NotPSD):
        problem_from_dict(doc)


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        ProblemSpec(mu=[np.inf, 0.0], sigma=np.eye(2))
    with pytest.raises(ValueError):
        ProblemSpec(mu=[0.0, 0.0], sigma=np.eye(2), A=[[np.nan, 0.0]], b=[0.0])


def test_n_must_match_mu():
    doc = minimal_doc()
    doc["n"] = 3
    with pytest.raises((ProblemFormatError, ValueError)):
        problem_from_dict(doc)


@pytest.mark.parametrize("n", [True, False, 2.0])
def test_n_must_be_a_positive_integer(n):
    doc = minimal_doc()
    doc["n"] = n
    with pytest.raises(ProblemFormatError, match="positive integer"):
        problem_from_dict(doc)


def test_save_load_round_trip(tmp_path):
    spec = problem_from_dict(minimal_doc())
    path = tmp_path / "problem.json"
    save_problem(spec, path)
    loaded = load_problem(path)
    np.testing.assert_array_equal(loaded.mu, spec.mu)
    np.testing.assert_array_equal(loaded.sigma, spec.sigma)
    np.testing.assert_array_equal(loaded.A, spec.A)
    np.testing.assert_array_equal(loaded.b, spec.b)
    np.testing.assert_array_equal(loaded.C, spec.C)
    np.testing.assert_array_equal(loaded.d, spec.d)


def test_to_dict_omits_absent_blocks():
    doc = problem_to_dict(ProblemSpec(mu=[0.0], sigma=[[1.0]]))
    assert "A" not in doc and "C" not in doc
    assert doc["n"] == 1


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        load_problem(path)


def test_load_rejects_non_object_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ProblemFormatError):
        load_problem(path)
