"""Command-line interface.

Subcommands:

* sample   -- draw from a problem file, write CSV, print run summary
* check    -- classify a problem's constraint system without sampling (the same
              plan `sample` runs before its first draw, so the exit codes match)
* compare  -- run the sampler and a reference oracle, test moment agreement
* fixtures -- write the built-in validation problem files

Exit codes: 0 success, 1 malformed input, 2 infeasible problem, 3 numerical
failure (the failing condition is named on stderr), 4 compare ran fine but
some element disagreed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import repeat

import numpy as np

from .errors import LinGaussError, NotPSD, NotSymmetric, ProblemFormatError
from .fixtures import write_pentagon_files
from .oracles import conditional_direct_sample, rejection_sample
from .problem import load_problem
from .sampler import plan, sample_constrained
from .stats import compare_stats, sample_stats

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_DISAGREE = 4

# distinct streams for the two sides of a comparison run
_ORACLE_SEED_OFFSET = 1_000_003


def _csv_line(row):
    return ",".join(f"{value:.17g}" for value in row) + "\n"


def _write_csv(path, dim, lines):
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(f"x{i + 1}" for i in range(dim)) + "\n")
        handle.writelines(lines)


def _print_stats(stats):
    print(f"samples: {stats.n}")
    print(f"{'coord':<6} {'mean':>14} {'se(mean)':>12} {'ess':>12}")
    for i in range(stats.mean.size):
        print(
            f"x{i + 1:<5} {stats.mean[i]:>14.8g} {stats.mean_se[i]:>12.4g} "
            f"{stats.ess[i]:>12.1f}"
        )
    print("covariance:")
    for row in stats.covariance:
        print("  " + "  ".join(f"{value:>12.6g}" for value in row))


def _format_point(point):
    return "[" + ", ".join(f"{value:.10g}" for value in point) + "]"


def _print_lps(spec, report):
    if spec.m:
        print(f"linear programs: {report.lp_solves} ({report.lp_pivots} pivots)")


def _cmd_sample(args):
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out {args.out}: not a file in an existing directory")
    spec = load_problem(args.problem)
    outcome = sample_constrained(
        spec,
        args.n,
        args.seed,
        burn_in=args.burn_in,
        thin=args.thin,
        chains=args.chains,
    )
    report = outcome.report
    if outcome.status == "impossible":
        print(f"infeasible: {outcome.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"recipe: {report.recipe}")
    if report.equality:
        print(f"equality system: {report.equality}")
    if report.feasibility:
        print(f"inequality region: {report.feasibility}")
    if report.chebyshev_radius is not None:
        print(f"interior slack radius: {report.chebyshev_radius:.6g}")
    _print_lps(spec, report)
    print(f"set-up: {1e3 * report.plan_seconds:.2f} ms")
    if outcome.status == "point_mass":
        print(f"point mass at {_format_point(outcome.point)}")
        _write_csv(args.out, outcome.point.size, repeat(_csv_line(outcome.point), args.n))
        print(f"wrote {args.n} identical rows to {args.out}")
        return EXIT_OK
    if report.chain_steps:
        kernel = (
            f"alternating one-axis thin steps and {report.long_directions}-direction long steps"
            if report.long_directions
            else "full steps only"
        )
        step_us = 1e6 * report.chain_seconds / report.chain_steps
        print(
            f"chain steps: {report.chain_steps} across {report.chains} chain(s) "
            f"at {step_us:.1f} us/step (burn-in {args.burn_in}, thin {args.thin}), {kernel}"
        )
    _write_csv(args.out, outcome.samples.shape[1], map(_csv_line, outcome.samples))
    _print_stats(sample_stats(outcome.samples, independent=report.chain_steps == 0))
    print(f"wrote {outcome.samples.shape[0]} rows to {args.out} in {report.seconds:.2f}s")
    return EXIT_OK


def _cmd_check(args):
    spec = load_problem(args.problem)
    print(f"dimension: {spec.n}, inequalities: {spec.m}, equalities: {spec.p}")
    planned = plan(spec)
    report = planned.report
    if report.equality:
        print(f"equality system: {report.equality}")
    _print_lps(spec, report)
    if planned.status == "impossible":
        print(f"infeasible: {planned.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if planned.status == "point_mass":
        print(f"point mass at {_format_point(planned.point)}")
    elif planned.start is None:  # no inequality row the law can move
        kind = "unconstrained normal" if spec.p == 0 else "normal restricted to a plane"
        print(f"feasible: {kind}, direct sampling applies")
    else:
        print(f"feasible: full-dimensional, interior slack radius {report.chebyshev_radius:.6g}")
        print(f"latent start point: {_format_point(planned.start)}")
    return EXIT_OK


def _cmd_compare(args):
    if args.n < 2:
        raise ValueError(f"--n must be at least 2 to estimate moments, got {args.n}")
    if not (math.isfinite(args.sigma) and args.sigma > 0.0):
        raise ValueError(f"--sigma must be finite and positive, got {args.sigma}")
    if args.proposals < 1:
        raise ValueError(f"--proposals must be at least 1, got {args.proposals}")
    spec = load_problem(args.problem)
    if args.oracle == "rejection" and spec.p:
        print("error: the rejection oracle needs a problem without equalities", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.oracle == "conditional" and spec.p == 0:
        print("error: the conditional oracle needs equality constraints", file=sys.stderr)
        return EXIT_BAD_INPUT

    # under --json stdout must hold exactly the JSON document, so narrative
    # lines move to stderr
    narrate = sys.stderr if args.json else sys.stdout

    outcome = sample_constrained(spec, args.n, args.seed)
    if outcome.status == "impossible":
        print(f"infeasible: {outcome.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if outcome.status == "point_mass":
        print(f"point mass at {_format_point(outcome.point)}; nothing to compare", file=narrate)
        return EXIT_OK
    method = sample_stats(outcome.samples, independent=outcome.report.chain_steps == 0)

    oracle_rng = np.random.default_rng(args.seed + _ORACLE_SEED_OFFSET)
    if args.oracle == "rejection":
        report = rejection_sample(spec, args.proposals, oracle_rng)
    else:
        ineq = (spec.A, spec.b) if spec.m else None
        report = conditional_direct_sample(spec, args.n, oracle_rng, inequality_filter=ineq)
    print(
        f"oracle '{args.oracle}': {report.accepted} of {report.proposals} proposals kept "
        f"(rate {report.acceptance_rate:.3g})",
        file=narrate,
    )
    if report.accepted < 2:
        print(
            "error: oracle produced fewer than two samples; raise --proposals",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    oracle = sample_stats(report.samples, independent=True)

    comparison = compare_stats(method, oracle, sigma_level=args.sigma)
    print(comparison.to_json() if args.json else comparison.to_text())
    return EXIT_OK if comparison.all_passed else EXIT_DISAGREE


def _cmd_fixtures(args):
    for path in write_pentagon_files(args.out_dir):
        print(path)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lingauss",
        description=(
            "Sampling from a multivariate normal under linear equality and "
            "inequality constraints, without rejection."
        ),
        epilog=(
            "Exit codes: 0 ok, 1 malformed input, 2 infeasible, 3 numerical "
            "failure, 4 comparison disagreed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="draw samples and write them as CSV")
    sample.add_argument("--problem", required=True, help="problem JSON file")
    sample.add_argument("--n", required=True, type=int, help="number of samples")
    sample.add_argument("--seed", required=True, type=int, help="random seed")
    sample.add_argument("--burn-in", type=int, default=0, help="discarded leading chain steps")
    sample.add_argument("--thin", type=int, default=1, help="keep every thin-th chain state")
    sample.add_argument(
        "--chains", type=int, default=1, help="independent chains (chain i uses seed + i)"
    )
    sample.add_argument("--out", default="samples.csv", help="output CSV path")
    sample.set_defaults(func=_cmd_sample)

    check = sub.add_parser("check", help="classify the constraint system, no sampling")
    check.add_argument("--problem", required=True, help="problem JSON file")
    check.set_defaults(func=_cmd_check)

    compare = sub.add_parser("compare", help="test sampler against a reference oracle")
    compare.add_argument("--problem", required=True, help="problem JSON file")
    compare.add_argument("--n", required=True, type=int, help="samples for the method side")
    compare.add_argument("--seed", required=True, type=int, help="random seed")
    compare.add_argument(
        "--oracle",
        required=True,
        choices=("rejection", "conditional"),
        help="reference sampler to compare against",
    )
    compare.add_argument("--sigma", type=float, default=4.0, help="agreement threshold")
    compare.add_argument(
        "--proposals",
        type=int,
        default=10_000_000,
        help="proposal budget for the rejection oracle",
    )
    compare.add_argument("--json", action="store_true", help="machine-readable report")
    compare.set_defaults(func=_cmd_compare)

    fixtures = sub.add_parser("fixtures", help="write the built-in validation problems")
    fixtures.add_argument("--name", required=True, choices=("pentagon",))
    fixtures.add_argument("--out-dir", default=".", help="directory for the JSON files")
    fixtures.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, NotSymmetric, NotPSD, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except LinGaussError as exc:  # every other failure of the package is numerical
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
