"""Benchmark of the lingauss pipeline: ESS/s, set-up time and per-layer cost.

    python3 bench/run.py --workload pentagon|box|classify --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from the
checkout's src/. One process sends one problem after another (a closed loop
with a single caller), and BLAS is pinned to one thread.

A run makes whole rounds of the workload's sample_constrained calls, each
followed by one sample_stats, which is what `lingauss sample` does. Each
call is one operation.

1. The checked round draws every problem at full length. Its outputs are
   checked against independent references (checks.py), and its chains give
   the exact ESS per step.
2. Timed rounds repeat the calls with the same seeds but shorter chains, so
   each timed output must equal a prefix of the checked one. Times are each
   problem's fastest over the timed rounds.
3. After each untraced timed round, the set-up (raw arrays to the chain's
   start point) of every problem is repeated for a tenth of the round's
   time; these repetitions are not operations.

With --trace 1 the timed rounds alternate between untraced and traced, and
the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import dataclasses
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans
from ess import min_ess
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SHARE = 0.1  # of each timed round's time spent repeating the set-up
MIN_TIMED_ROUNDS = 3
PROBE_STATES = 2_000  # chain states at which the arc geometry is probed
REJECTION_PROPOSALS = 4_000_000
COMBINED_REFERENCE_DRAWS = 2_000_000

# The one operation that fails in every run: x >= 1, x <= 0 with its rows
# scaled by 1e-10 ends in EmptyArcSet instead of `impossible`, because the
# feasibility tolerances are absolute.
KNOWN_FAILURES = {"scaled_infeasible"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ess_per_s": "1/s"}

PER_LAYER = {
    "problem.validate_s": "s",
    "linalg.factor_s": "s",
    "transform.classify_s": "s",
    "transform.build_s": "s",
    "transform.map_s": "s",
    "feasibility.s": "s",
    "feasibility.self_s": "s",
    "feasibility.full_s": "s",
    "feasibility.infeasible_s": "s",
    "feasibility.point_mass_s": "s",
    "simplex.solves": "count",
    "simplex.s": "s",
    "slice.us_per_step": "us",
    "slice.active_rows": "rows",
    "slice.arc_fraction": "ratio",
    "slice.ess_per_kstep": "1/kstep",
    "both.ess_per_kstep": "1/kstep",
    "both.ess_per_s": "1/s",
    "sampler.s": "s",
    "sampler.self_s": "s",
    "sampler.direct_draws_per_s": "1/s",
    "stats.s": "s",
    "oracles.rejection_iid_per_s": "1/s",
    "trace.overhead": "ratio",
}


class Library:
    """The program's modules, imported from the checkout's src/."""

    def __init__(self):
        if not (SRC / "lingauss" / "__init__.py").is_file():
            raise SystemExit(f"error: no program source at {SRC / 'lingauss'}; run from a checkout")
        sys.path.insert(0, str(SRC))
        import lingauss
        import lingauss.elliptical_slice
        import lingauss.feasibility
        import lingauss.oracles
        import lingauss.problem
        import lingauss.sampler
        import lingauss.stats
        import lingauss.transform

        if Path(lingauss.__file__).resolve().parent != SRC / "lingauss":
            raise SystemExit(f"error: imported lingauss from {lingauss.__file__}, not {SRC}")
        self.problem = lingauss.problem
        self.sampler = lingauss.sampler
        self.stats = lingauss.stats
        self.transform = lingauss.transform
        self.feasibility = lingauss.feasibility
        self.slice = lingauss.elliptical_slice
        self.oracles = lingauss.oracles


@dataclass
class Op:
    """One sample_constrained call: its outcome or exception, and its times."""

    case: object
    n: int  # samples asked for
    outcome: object
    error: Exception | None
    validate_s: float
    sample_s: float
    stats_s: float
    failures: list = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.error is None:
            return self.outcome.status
        return "degenerate" if type(self.error).__name__ == "DegenerateRegion" else "error"

    @property
    def steps(self) -> int:
        return self.outcome.report.chain_steps if self.error is None else 0


def run_op(lib, case, n, with_stats=True) -> Op:
    """ProblemSpec from raw arrays, sample_constrained for n samples, sample_stats."""
    started = time.perf_counter()
    spec = lib.problem.ProblemSpec(**case.arrays)
    validated = time.perf_counter()
    outcome, error = None, None
    try:
        outcome = lib.sampler.sample_constrained(spec, n, case.seed, **case.kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    sampled = time.perf_counter()
    if with_stats and outcome is not None and outcome.status == "samples" and n > 1:
        lib.stats.sample_stats(outcome.samples, independent=outcome.report.chain_steps == 0)
    done = time.perf_counter()
    return Op(case, n, outcome, error, validated - started, sampled - validated, done - sampled)


def prefix(samples, case, n):
    """The first n of a checked output: chain by chain, the first n / chains draws."""
    chains = case.kwargs.get("chains", 1)
    per_chain = samples.reshape(chains, -1, samples.shape[1])
    return per_chain[:, : n // chains].reshape(-1, samples.shape[1])


def same_output(checked, timed) -> bool:
    """A timed call reproduces the checked call it shortens."""
    if checked.status != timed.status:
        return False
    if checked.error is not None:
        return type(checked.error) is type(timed.error)
    a, b = checked.outcome, timed.outcome
    if (a.point is None) != (b.point is None) or (a.samples is None) != (b.samples is None):
        return False
    if a.point is not None and not np.array_equal(a.point, b.point):
        return False
    if a.samples is None:
        return True
    return np.array_equal(prefix(a.samples, checked.case, timed.n), b.samples)


def output_failures(lib, op, seed) -> list[str]:
    """Every check of one operation's output against its reference."""
    case = op.case
    point = op.outcome.point if op.error is None else None
    failures = checks.verdict_failures(case, op.status, point)
    if failures and op.error is not None:
        failures.append(f"raised {type(op.error).__name__}: {op.error}")
    if failures or op.status != "samples":
        return failures
    samples, arrays = op.outcome.samples, case.arrays
    failures += checks.constraint_failures(samples, arrays)
    if case.name == "pentagon_inequality":
        reference = checks.stored_inequality_reference()
        failures += checks.moment_failures(checks.chain_moments(samples), reference)
    elif case.name == "pentagon_combined":
        rng = np.random.default_rng([seed, 7])
        reference = checks.plane_rejection_reference(arrays, COMBINED_REFERENCE_DRAWS, rng)
        chains = case.kwargs["chains"]
        failures += checks.moment_failures(checks.chain_moments(samples, chains), reference)
    elif case.name == "pentagon_equality":
        failures += checks.equality_failures(samples, arrays)
    elif case.name == "box":
        failures += checks.box_failures(samples, arrays, case.info)
    if arrays.get("A") is not None:
        failures += start_point_failures(lib, op)
    return failures


def start_point_failures(lib, op) -> list[str]:
    """The program's start point is strictly interior; its radius matches HiGHS."""
    case = op.case
    transformed = lib.transform.build_transform(lib.problem.ProblemSpec(**case.arrays))
    start = lib.feasibility.find_feasible_point(transformed.H, transformed.k)
    if start.kind != "full_dimensional":
        return [f"start point search reports {start.kind!r}"]
    H, k, _ = checks.latent_region(case.arrays, case.info.get("independent"))
    want = checks.chebyshev_radius(H, k)
    return checks.interior_failures(H, k, start.point) + checks.radius_failures(
        op.outcome.report.chebyshev_radius, want
    )


def ess_of(op) -> float:
    """The benchmark's min ESS of one output: a single draw counts as one,
    a verdict without draws as none."""
    if op.error is not None or op.status != "samples":
        return 0.0
    if op.n < 4:
        return float(op.n)
    return min_ess(op.outcome.samples, op.case.kwargs.get("chains", 1))


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(rounds, seconds) -> dict[str, float]:
    """Each case's fastest time over the rounds.

    On the 2-core machine this was written on, other tenants of the host
    slowed whole stretches of a run by up to 2x, for seconds to minutes.
    A median over rounds moved with the share of slow stretches in a run;
    the fastest of many short calls moved much less.
    """
    best: dict[str, float] = {}
    for ops in rounds:
        for op in ops:
            best[op.case.name] = min(best.get(op.case.name, math.inf), seconds(op))
    return best


class Run:
    def __init__(self, lib, workload, seed, seconds):
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cases = WORKLOADS[workload](seed)
        self.checked: dict[str, Op] = {}
        self.timed: dict[str, Op] = {}  # the first timed call of each case
        self.unexpected: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None

    def count(self, op) -> None:
        self.attempted += 1
        if op.failures:
            self.failed += 1
            if op.case.name not in KNOWN_FAILURES:
                self.unexpected.append(op.case.name)

    def checked_round(self) -> None:
        """Every problem at full length, checked against its references."""
        ops = [run_op(self.lib, case, case.n_samples) for case in self.cases]
        # before any check allocates its own arrays
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in ops:
            try:
                op.failures = output_failures(self.lib, op, self.seed)
            except Exception:  # a check that crashes fails the operation
                op.failures = [traceback.format_exc()]
            for failure in op.failures:
                print(f"check {self.workload}/{op.case.name}: {failure}", file=sys.stderr)
            self.checked[op.case.name] = op
            self.count(op)

    def timed_round(self) -> list[Op]:
        return [run_op(self.lib, case, case.timed) for case in self.cases]

    def record(self, ops) -> None:
        """A timed call fails with its checked call, or when it does not reproduce it."""
        for op in ops:
            checked = self.checked[op.case.name]
            op.failures = list(checked.failures)
            if not same_output(checked, op):
                op.failures.append("timed call differs from the checked call it shortens")
            self.timed.setdefault(op.case.name, op)
            self.count(op)

    def setup_repeats(self, budget) -> list[list[Op]]:
        """Raw arrays to start point (and one chain step) for every problem.

        The call is sample_constrained(spec, 1, seed) with one chain and no
        burn-in, repeated at least once and until the budget is spent. These
        calls are timing repetitions, not operations: their outputs are not
        checked.
        """
        cases = [dataclasses.replace(case, kwargs={}) for case in self.cases]
        started = time.perf_counter()
        repeats = []
        while not repeats or time.perf_counter() - started < budget:
            repeats.append([run_op(self.lib, case, 1, with_stats=False) for case in cases])
        return repeats

    def rounds(self, budget, trace=False, setup=None) -> tuple[list, list]:
        """Timed rounds until the budget is spent; with trace, every other
        round is traced. Returns the untraced rounds and the traced ones,
        each traced round with its own spans and the targets it missed.

        Given a `setup` list, each untraced round is followed by set-up
        repetitions for SETUP_SHARE of its time, so that set-up is sampled
        across the whole run.
        """
        plain, traced = [], []
        started = time.perf_counter()
        last = 0.0
        while (
            len(plain) + len(traced) < MIN_TIMED_ROUNDS
            or time.perf_counter() - started + last <= budget
        ):
            round_started = time.perf_counter()
            if trace and len(plain) > len(traced):
                tracer = spans.Tracer()
                missing = tracer.install()
                try:
                    ops = self.timed_round()
                finally:
                    tracer.remove()
                traced.append((ops, tracer.spans, missing))
            else:
                ops = self.timed_round()
                plain.append(ops)
                if setup is not None:
                    setup += self.setup_repeats(SETUP_SHARE * (time.perf_counter() - round_started))
            self.record(ops)
            last = time.perf_counter() - round_started
        return plain, traced

    def remaining(self, started) -> float:
        return self.seconds - (time.perf_counter() - started)

    # -- untraced run: end-to-end metrics --------------------------------

    def end_to_end(self) -> dict:
        started = time.perf_counter()
        self.checked_round()
        # a workload whose every call is already a set-up call (one draw, no
        # chain options) measures set-up in its timed rounds
        setup_in_rounds = all(c.n_samples == 1 and not c.kwargs for c in self.cases)
        setup = [] if setup_in_rounds else self.setup_repeats(0.0)  # warms the set-up path
        plain, _ = self.rounds(self.remaining(started), setup=None if setup_in_rounds else setup)
        plain = self.with_checked(plain)
        setup_s = fastest(plain if setup_in_rounds else setup, lambda o: o.validate_s + o.sample_s)
        wall_s = fastest(plain, lambda o: o.sample_s + o.stats_s)
        return {
            "wall_s": sum(wall_s.values()),
            "setup_s": sum(setup_s.values()),
            "peak_rss_mb": self.peak_rss_mb,
            "ess_per_s": self.ess_rate([c.name for c in self.cases if c.rate], plain),
        }

    def with_checked(self, plain) -> list[list[Op]]:
        """The untraced timed rounds plus the checked calls that a timed call
        repeats exactly (those whose timed length is their full length)."""
        same = [op for op in self.checked.values() if op.n == op.case.timed]
        return plain + [same] if same else plain

    def timed_ess(self, name) -> float:
        """Effective samples in one timed call: the checked output's ESS per
        chain step times the timed call's steps; a direct output's own ESS."""
        checked = self.checked[name]
        if checked.failures:
            return 0.0
        if not checked.steps:
            return ess_of(checked) * self.timed[name].n / checked.n
        return ess_of(checked) * self.timed[name].steps / checked.steps

    def ess_rate(self, names, plain) -> float:
        sampling_s = fastest(plain, lambda o: o.sample_s)
        return sum(self.timed_ess(n) for n in names) / sum(sampling_s[n] for n in names)

    # -- traced run: per-layer metrics -----------------------------------

    def per_layer(self) -> dict:
        started = time.perf_counter()
        self.checked_round()
        plain, traced = self.rounds(self.remaining(started), trace=True)
        plain = self.with_checked(plain)
        per_round = [self.layer_values(ops, recorded) for ops, recorded, _ in traced]
        values = {name: median([r[name] for r in per_round if name in r]) for name in PER_LAYER}
        traced_s = fastest([ops for ops, _, _ in traced], lambda o: o.sample_s + o.stats_s)
        plain_s = fastest(plain, lambda o: o.sample_s + o.stats_s)
        values["trace.overhead"] = sum(traced_s.values()) / sum(plain_s.values())
        values.update(self.chain_quality(plain))
        values.update(self.probe())
        if self.workload == "pentagon":
            values["oracles.rejection_iid_per_s"] = self.rejection_rate()
        absent = sorted(
            name for name, value in values.items() if value == 0.0 or not math.isfinite(value)
        )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace_{self.workload}_{self.seed}.json"
        spans_path.write_text(
            json.dumps(
                {
                    "missing_targets": traced[0][2] if traced else [],
                    "rounds": [spans.to_json(recorded) for _, recorded, _ in traced],
                }
            )
        )
        print(f"absent layers (reported as 0): {', '.join(absent) or 'none'}")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        return values

    def layer_values(self, ops, recorded) -> dict:
        """Per-layer totals of one traced round."""
        summary = spans.summarize(recorded)
        total, own, calls, verdict = (
            summary["total"],
            summary["self"],
            summary["calls"],
            summary["feasibility"],
        )
        steps = sum(op.steps for op in ops)
        direct = [op for op in ops if op.status == "samples" and not op.steps and op.n > 1]
        direct_s = sum(op.sample_s for op in direct)
        return {
            "problem.validate_s": total["problem.validate"],
            "linalg.factor_s": total["linalg.factor"],
            "transform.classify_s": total["transform.classify"],
            "transform.build_s": total["transform.build"],
            "transform.map_s": total["transform.map"],
            "feasibility.s": total["feasibility"],
            "feasibility.self_s": own["feasibility"],
            "feasibility.full_s": verdict["full_dimensional"],
            "feasibility.infeasible_s": verdict["infeasible"],
            "feasibility.point_mass_s": verdict["point_mass"],
            "simplex.solves": float(calls["simplex"]),
            "simplex.s": total["simplex"],
            "slice.us_per_step": 1e6 * total["slice"] / steps if steps else 0.0,
            "sampler.s": total["sampler"],
            "sampler.self_s": own["sampler"],
            "sampler.direct_draws_per_s": (
                sum(op.n for op in direct) / direct_s if direct_s else 0.0
            ),
            "stats.s": total["stats"],
        }

    def chain_quality(self, plain) -> dict:
        """Exact ESS per 1000 steps of the checked chains, and the ESS rate
        of the chain that ess_per_s leaves out."""
        values = {}
        for op in self.checked.values():
            if op.failures or op.steps == 0 or op.n < 4:
                continue
            per_kstep = 1000.0 * ess_of(op) / op.steps
            if op.case.rate:
                values["slice.ess_per_kstep"] = per_kstep
            elif op.case.name == "pentagon_combined":
                values["both.ess_per_kstep"] = per_kstep
                values["both.ess_per_s"] = self.ess_rate([op.case.name], plain)
        return values

    def probe(self) -> dict:
        """Active rows and feasible arc share at a subsample of chain states.

        Measured from outside: the benchmark draws a fresh nu ~ N(0, sigma)
        from its own generator at each probed state and asks the program's
        active_arcs for the feasible angles.
        """
        active_arcs = getattr(self.lib.slice, "active_arcs", None)
        chain = [
            op
            for op in self.checked.values()
            if op.case.rate and op.steps and op.n >= 4 and not op.failures
        ]
        if active_arcs is None or not chain:
            return {}
        op = chain[0]
        arrays = op.case.arrays
        H, k, g = checks.latent_region(arrays, op.case.info.get("independent"))
        states = op.outcome.samples
        states = states[:: max(1, len(states) // PROBE_STATES)] - g
        rng = np.random.default_rng([self.seed, 8])
        root = np.linalg.cholesky(arrays["sigma"])
        rows, share = [], []
        for y in states:
            nu = root @ rng.standard_normal(root.shape[0])
            rows.append(np.count_nonzero(k < np.hypot(H @ y, H @ nu)))
            share.append(active_arcs(y, nu, H, k).total_measure / (2.0 * np.pi))
        return {
            "slice.active_rows": float(np.mean(rows)),
            "slice.arc_fraction": float(np.mean(share)),
        }

    def rejection_rate(self) -> float:
        """iid draws per second of the program's rejection oracle on pentagon_inequality."""
        case = next(c for c in self.cases if c.name == "pentagon_inequality")
        spec = self.lib.problem.ProblemSpec(**case.arrays)
        rng = np.random.default_rng([self.seed, 9])
        started = time.perf_counter()
        report = self.lib.oracles.rejection_sample(spec, REJECTION_PROPOSALS, rng)
        return report.accepted / (time.perf_counter() - started)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(Library(), args.workload, args.seed, args.seconds)
    values = run.per_layer() if args.trace else run.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
