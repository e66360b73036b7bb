import inspect
import json
import re

import numpy as np
import pytest

from lingauss import errors
from lingauss.cli import main
from lingauss.errors import LinGaussError, NumericalBreakdown
from lingauss.fixtures import write_pentagon_files
from lingauss.problem import ProblemSpec, load_problem, save_problem
from lingauss.sampler import plan


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("problems")
    write_pentagon_files(directory)
    return directory


def write_spec(path, **kwargs):
    save_problem(ProblemSpec(**kwargs), path)
    return str(path)


def test_fixtures_subcommand(tmp_path, capsys):
    code = main(["fixtures", "--name", "pentagon", "--out-dir", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 4
    assert (tmp_path / "pentagon_combined.json").exists()


def test_check_full_dimensional(problem_dir, capsys):
    code = main(["check", "--problem", str(problem_dir / "pentagon_combined.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "full-dimensional" in out
    assert "equality system: infinite" in out


def test_check_reports_linear_programs(problem_dir, tmp_path, capsys):
    assert main(["check", "--problem", str(problem_dir / "pentagon_inequality.json")]) == 0
    assert re.search(r"^linear programs: 2 \(\d+ pivots\)$", capsys.readouterr().out, re.M)
    path = write_spec(
        tmp_path / "pinned.json",
        mu=[0.0, 0.0],
        sigma=np.eye(2),
        A=[[1.0, 0.3], [-0.2, 1.0], [-0.8, -1.3]],
        b=[0.0, 0.0, 0.0],  # three rows that positively span R^2 pin the origin
    )
    assert main(["check", "--problem", path]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^linear programs: 1 \(\d+ pivots\)$", out, re.M)
    assert "point mass" in out
    assert main(["check", "--problem", str(problem_dir / "pentagon_equality.json")]) == 0
    assert "linear programs" not in capsys.readouterr().out  # no inequality, no LP


def test_sample_reports_linear_programs_and_set_up_time(problem_dir, tmp_path, capsys):
    problem = str(problem_dir / "pentagon_inequality.json")
    out = str(tmp_path / "draws.csv")
    assert main(["sample", "--problem", problem, "--n", "5", "--seed", "1", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert re.search(r"^linear programs: 2 \(\d+ pivots\)$", printed, re.M)
    assert re.search(r"^set-up: \d+\.\d\d ms$", printed, re.M)


def test_check_infeasible_exits_2(tmp_path, capsys):
    path = write_spec(
        tmp_path / "empty.json",
        mu=[0.0],
        sigma=[[1.0]],
        A=[[1.0], [-1.0]],
        b=[-1.0, 0.0],
    )
    code = main(["check", "--problem", path])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_check_point_mass(tmp_path, capsys):
    path = write_spec(
        tmp_path / "pinned.json",
        mu=[0.0, 0.0],
        sigma=np.eye(2),
        C=np.eye(2),
        d=[-1.0, -2.0],
    )
    code = main(["check", "--problem", path])
    assert code == 0
    assert "point mass" in capsys.readouterr().out
    # three rows pin a point of the plane x3 = 0.5: one LP, then the rows
    # that it finds tight fix the point with the plane
    path = write_spec(tmp_path / "plane.json", **AGREEMENT_CASES["plane_point_mass"][0])
    assert main(["check", "--problem", path]) == 0
    out = capsys.readouterr().out
    assert "point mass at [0.2, -0.1, 0.5]" in out
    assert re.search(r"^linear programs: 1 \(\d+ pivots\)$", out, re.M)


def test_sample_writes_csv(problem_dir, tmp_path, capsys):
    out = tmp_path / "draws.csv"
    code = main(
        [
            "sample",
            "--problem",
            str(problem_dir / "pentagon_combined.json"),
            "--n",
            "500",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,x4"
    assert len(lines) == 501
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert parsed.shape == (500, 4)
    printed = capsys.readouterr().out
    assert "recipe: equality-and-inequality" in printed
    assert "(burn-in 0, thin 1), full steps only" in printed


def test_sample_seed_reproducibility(problem_dir, tmp_path, capsys):
    args = [
        "sample",
        "--problem",
        str(problem_dir / "pentagon_inequality.json"),
        "--n",
        "300",
        "--seed",
        "42",
        "--chains",
        "2",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert "alternating one-axis thin steps and 2-direction long steps" in capsys.readouterr().out
    assert first.read_bytes() == second.read_bytes()


def test_sample_point_mass_rows(tmp_path, capsys):
    path = write_spec(
        tmp_path / "pinned.json",
        mu=[0.0, 0.0],
        sigma=np.eye(2),
        C=np.eye(2),
        d=[-1.0, -2.0],
    )
    out = tmp_path / "point.csv"
    code = main(["sample", "--problem", path, "--n", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[1] == lines[5]
    assert "point mass" in capsys.readouterr().out
    # the same bytes as writing the rows of np.tile(point, (5, 1)) one by one
    point = plan(load_problem(path)).point
    rows = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in np.tile(point, (5, 1)))
    assert out.read_bytes() == ("x1,x2\n" + rows).encode()


def test_sample_reports_the_chains_that_ran(problem_dir, tmp_path, capsys):
    args = ["sample", "--problem", str(problem_dir / "pentagon_inequality.json"), "--n", "3"]
    code = main(args + ["--seed", "5", "--chains", "4", "--out", str(tmp_path / "three.csv")])
    assert code == 0
    assert "chain steps: 3 across 3 chain(s)" in capsys.readouterr().out


def test_sample_prints_the_cost_of_a_chain_step(problem_dir, tmp_path, capsys):
    problem = str(problem_dir / "pentagon_inequality.json")
    args = ["sample", "--problem", problem, "--n", "200", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "draws.csv")]) == 0
    out = capsys.readouterr().out
    match = re.search(r"chain steps: 200 across 1 chain\(s\) at ([0-9.]+) us/step", out)
    assert match is not None, out
    assert float(match.group(1)) > 0.0


def pinned(violation):
    """x = (1, 2) pinned by the equalities; it misses x_1 >= 1 + violation."""
    return dict(
        mu=[0.0, 0.0],
        sigma=np.eye(2),
        A=[[1.0, 0.0]],
        b=[-1.0 - violation],
        C=np.eye(2),
        d=[-1.0, -2.0],
    )


def sigma_pinned(**inequalities):
    return dict(mu=[0.0, 2.0], sigma=np.diag([1.0, 0.0]), C=[[1.0, 0.0]], d=[-0.5], **inequalities)


def rotated_singular_gram():
    rotation, _ = np.linalg.qr(np.random.default_rng(102).normal(size=(3, 3)))
    sigma = rotation @ np.diag([1.0, 1.0, 0.0]) @ rotation.T
    return dict(mu=np.zeros(3), sigma=0.5 * (sigma + sigma.T), C=[rotation[:, 2]], d=[-0.5])


AGREEMENT_CASES = {
    "pentagon_inequality": (None, 0),
    "pentagon_equality": (None, 0),
    "pentagon_combined": (None, 0),
    # sigma carries no mass across the equality's direction
    "singular_gram": (dict(mu=[0.0, 0.0], sigma=np.diag([1.0, 0.0]), C=[[0.0, 1.0]], d=[-0.5]), 3),
    # x >= 1 and x <= 0 with both rows scaled by 1e-10
    "scaled_infeasible": (
        dict(mu=[0.0], sigma=[[1.0]], A=[[1e-10], [-1e-10]], b=[-1e-10, 0.0]),
        2,
    ),
    # x1 = 0 on 0 <= x2 <= 5
    "flat": (
        dict(
            mu=[0.0, 0.0],
            sigma=np.eye(2),
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, 0.0, 0.0, 5.0],
        ),
        3,
    ),
    # three rows pin x = (0.2, -0.1, 0.5) on the plane x3 = 0.5
    "plane_point_mass": (
        dict(
            mu=[0.0, 0.0, 0.0],
            sigma=np.eye(3),
            A=[[1.0, 0.2, 0.7], [-0.3, 1.0, -0.2], [-0.9, -1.4, 0.4]],
            b=[-0.53, 0.26, -0.16],
            C=[[0.0, 0.0, 1.0]],
            d=[-0.5],
        ),
        0,
    ),
    # x1 + 0.5 x3 = 0.25 on the plane x3 = 0.5, -1 <= x2 <= 1
    "plane_flat": (
        dict(
            mu=[0.0, 0.0, 0.0],
            sigma=np.eye(3),
            A=[[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
            b=[-0.25, 0.25, 1.0, 1.0],
            C=[[0.0, 0.0, 1.0]],
            d=[-0.5],
        ),
        3,
    ),
    # sigma pins x2 = 0, so x2 >= 1 has no prior mass
    "outside_sigma_range": (
        dict(mu=[0.0, 0.0], sigma=np.diag([1.0, 0.0]), A=[[0.0, 1.0]], b=[-1.0]),
        2,
    ),
    "unique_point_violated": (pinned(2e-8), 2),
    "unique_point_within_tolerance": (pinned(5e-9), 0),
    # rank(sigma) = 1 = r: x1 = 0.5 from the equality, x2 = 2 from sigma
    "sigma_point_mass": (sigma_pinned(), 0),
    "sigma_point_mass_inside": (sigma_pinned(A=[[0.0, 1.0]], b=[-1.0]), 0),
    "sigma_point_mass_violated": (sigma_pinned(A=[[0.0, 1.0]], b=[-3.0]), 2),
    # sigma = Q diag(1, 1, 0) Q' and the row Q[:, 2]': a Gram of 1e-17, not 0
    "rotated_singular_gram": (rotated_singular_gram(), 3),
}

# what decided each infeasible verdict, as both commands word it
REASONS = {
    "scaled_infeasible": "negative maximum slack",
    "outside_sigma_range": "fails wherever the law has mass",
    "unique_point_violated": "fails wherever the law has mass",
    "sigma_point_mass_violated": "fails wherever the law has mass",
}


@pytest.mark.parametrize("name", list(AGREEMENT_CASES))
def test_check_and_sample_agree(problem_dir, tmp_path, capsys, name):
    arrays, expected = AGREEMENT_CASES[name]
    if arrays is None:
        path = str(problem_dir / f"{name}.json")
    else:
        path = write_spec(tmp_path / f"{name}.json", **arrays)
    assert main(["check", "--problem", path]) == expected
    check_err = capsys.readouterr().err
    out = str(tmp_path / "draws.csv")
    assert main(["sample", "--problem", path, "--n", "3", "--seed", "1", "--out", out]) == expected
    sample_err = capsys.readouterr().err
    if expected == 2:  # the same verdict in the same words
        assert check_err.startswith("infeasible: ")
        assert check_err == sample_err
        assert REASONS[name] in check_err


def test_sample_infeasible_exits_2(tmp_path, capsys):
    path = write_spec(
        tmp_path / "empty.json",
        mu=[0.0],
        sigma=[[1.0]],
        A=[[1.0], [-1.0]],
        b=[-1.0, 0.0],
    )
    code = main(["sample", "--problem", path, "--n", "10", "--seed", "1"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_malformed_problem_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code = main(["sample", "--problem", str(path), "--n", "10", "--seed", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("sigma", {"a": 1}), ("mu", [0.0, {"a": 1}]), ("A", [[1.0, {"a": 1}]]), ("b", {"a": 1})],
    ids=["sigma", "mu entry", "A entry", "b"],
)
def test_an_object_where_a_number_belongs_exits_1(tmp_path, capsys, field, value):
    doc = {"n": 2, "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]], "A": [[1.0, 0.0]], "b": [1.0]}
    doc[field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--problem", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err, err


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["check", "--problem", str(tmp_path / "missing.json")])
    assert code == 1
    capsys.readouterr()


def test_degenerate_region_exits_3(tmp_path, capsys):
    # x1 pinned to an interval of measure zero, x2 free on [0, 5]
    path = write_spec(
        tmp_path / "flat.json",
        mu=[0.0, 0.0],
        sigma=np.eye(2),
        A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        b=[0.0, 0.0, 0.0, 5.0],
    )
    code = main(["sample", "--problem", path, "--n", "10", "--seed", "1"])
    assert code == 3
    assert "DegenerateRegion" in capsys.readouterr().err


PACKAGE_ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, LinGaussError)
]


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_every_package_error_exits_1_or_3(monkeypatch, capsys, error):
    def failing_load(path):
        raise error("stubbed failure")

    monkeypatch.setattr("lingauss.cli.load_problem", failing_load)
    code = main(["check", "--problem", "stub.json"])
    err = capsys.readouterr().err
    if error in (errors.ProblemFormatError, errors.NotSymmetric, errors.NotPSD):
        assert (code, err) == (1, "error: stubbed failure\n")
    else:  # a numerical failure names its class
        assert (code, err) == (3, f"{error.__name__}: stubbed failure\n")


def test_numerical_breakdown_exits_3(problem_dir, tmp_path, monkeypatch, capsys):
    def broken_chain(*args, **kwargs):
        raise NumericalBreakdown("chain state violates a constraint; the state is corrupted")

    monkeypatch.setattr("lingauss.sampler.fill_chain", broken_chain)
    code = main(
        [
            "sample",
            "--problem",
            str(problem_dir / "pentagon_inequality.json"),
            "--n",
            "10",
            "--seed",
            "1",
            "--out",
            str(tmp_path / "never.csv"),
        ]
    )
    assert code == 3
    assert "NumericalBreakdown" in capsys.readouterr().err


def test_compare_agrees_rejection(problem_dir, tmp_path, capsys):
    code = main(
        [
            "compare",
            "--problem",
            str(problem_dir / "pentagon_inequality.json"),
            "--n",
            "30000",
            "--seed",
            "3",
            "--oracle",
            "rejection",
            "--proposals",
            "2000000",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "agree" in out


def test_compare_conditional_agrees_on_rows_parallel_within_1e9(tmp_path, capsys):
    # the two rows are one equation at EQUALITY_TOL, for the sampler and the oracle alike
    problem = write_spec(
        tmp_path / "near_parallel.json",
        mu=[0.0, 1.0, 2.0],
        sigma=np.eye(3),
        C=[[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]],
        d=[0.0, 0.0],
    )
    argv = ["compare", "--problem", problem, "--n", "20000", "--seed", "1"]
    code = main(argv + ["--oracle", "conditional"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "agree" in out


def test_compare_json_output(problem_dir, capsys):
    code = main(
        [
            "compare",
            "--problem",
            str(problem_dir / "pentagon_equality.json"),
            "--n",
            "20000",
            "--seed",
            "5",
            "--oracle",
            "conditional",
            "--json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    payload = json.loads(out)  # stdout must hold the JSON document and nothing else
    assert payload["all_passed"] is True
    assert len(payload["items"]) == 4 + 10  # means plus upper triangle


def test_compare_disagreement_exits_4(problem_dir, capsys):
    code = main(
        [
            "compare",
            "--problem",
            str(problem_dir / "pentagon_equality.json"),
            "--n",
            "5000",
            "--seed",
            "5",
            "--oracle",
            "conditional",
            "--sigma",
            "0.001",
        ]
    )
    assert code == 4
    assert "DISAGREE" in capsys.readouterr().out


def test_compare_oracle_problem_mismatch_exits_1(problem_dir, capsys):
    code = main(
        [
            "compare",
            "--problem",
            str(problem_dir / "pentagon_equality.json"),
            "--n",
            "100",
            "--seed",
            "1",
            "--oracle",
            "rejection",
        ]
    )
    assert code == 1
    capsys.readouterr()
    code = main(
        [
            "compare",
            "--problem",
            str(problem_dir / "pentagon_inequality.json"),
            "--n",
            "100",
            "--seed",
            "1",
            "--oracle",
            "conditional",
        ]
    )
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value",
    [("--sigma", "0"), ("--sigma", "-1"), ("--sigma", "nan"), ("--sigma", "inf")]
    + [("--proposals", "0"), ("--n", "1")],
)
def test_compare_rejects_a_bad_flag_before_sampling(problem_dir, capsys, monkeypatch, flag, value):
    def no_sampling(*args, **kwargs):
        raise AssertionError("compare sampled before checking its flags")

    monkeypatch.setattr("lingauss.cli.sample_constrained", no_sampling)
    monkeypatch.setattr("lingauss.cli.rejection_sample", no_sampling)
    problem = str(problem_dir / "pentagon_inequality.json")
    argv = ["compare", "--problem", problem, "--n", "100", "--seed", "1", "--oracle", "rejection"]
    code = main(argv + [flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert flag in captured.err
    assert "oracle" not in captured.out


@pytest.mark.parametrize("out", ["missing/draws.csv", "directory"])
def test_sample_rejects_a_missing_out_directory_before_sampling(
    problem_dir, tmp_path, capsys, monkeypatch, out
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample loaded or sampled before checking --out")

    monkeypatch.setattr("lingauss.cli.load_problem", no_sampling)
    monkeypatch.setattr("lingauss.cli.sample_constrained", no_sampling)
    (tmp_path / "directory").mkdir()
    problem = str(problem_dir / "pentagon_inequality.json")
    argv = ["sample", "--problem", problem, "--n", "10", "--seed", "1"]
    code = main(argv + ["--out", str(tmp_path / out)])
    assert code == 1
    assert "--out" in capsys.readouterr().err
    assert [path.name for path in tmp_path.rglob("*")] == ["directory"]


def test_a_boolean_dimension_exits_1(tmp_path, capsys):
    path = tmp_path / "bool_n.json"
    path.write_text(json.dumps({"n": True, "mu": [0.0], "sigma": [[1.0]]}))
    assert main(["check", "--problem", str(path)]) == 1
    assert "'n' must be a positive integer" in capsys.readouterr().err
