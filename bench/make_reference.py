"""Regenerate the stored reference moments of pentagon_inequality.

Plain-numpy accept-reject: propose x ~ N(mu, sigma) from a Cholesky factor
and keep the proposals with A x + b >= 0. About 5e-5 of the proposals are
kept, so this takes minutes and is run once, not in every benchmark run.
It imports nothing from the program under test.

    python3 bench/make_reference.py --seed 20250815 --proposals 400000000

writes bench/reference/pentagon_inequality_moments.json.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PROBLEM = HERE / "reference" / "pentagon.json"
OUT = HERE / "reference" / "pentagon_inequality_moments.json"
BATCH = 2_000_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20250815)
    parser.add_argument("--proposals", type=int, default=400_000_000)
    args = parser.parse_args()

    doc = json.loads(PROBLEM.read_text())
    mu = np.array(doc["mu"])
    root = np.linalg.cholesky(np.array(doc["sigma"]))
    A, b = np.array(doc["A"]), np.array(doc["b"])
    rng = np.random.default_rng(args.seed)

    started = time.perf_counter()
    kept = []
    remaining = args.proposals
    while remaining:
        batch = min(BATCH, remaining)
        x = mu + rng.standard_normal((batch, mu.size)) @ root.T
        kept.append(x[np.all(x @ A.T + b >= 0.0, axis=1)])
        remaining -= batch
    samples = np.vstack(kept)
    seconds = time.perf_counter() - started

    count = samples.shape[0]
    mean = samples.mean(axis=0)
    centred = samples - mean
    squares = centred**2
    var = squares.mean(axis=0) * count / (count - 1)
    result = {
        "command": (
            f"python3 bench/make_reference.py --seed {args.seed} --proposals {args.proposals}"
        ),
        "method": "plain-numpy accept-reject from N(mu, sigma), iid",
        "proposals": args.proposals,
        "accepted": count,
        "seconds": round(seconds, 1),
        "mean": mean.tolist(),
        "mean_se": (centred.std(axis=0, ddof=1) / np.sqrt(count)).tolist(),
        "var": var.tolist(),
        "var_se": (squares.std(axis=0, ddof=1) / np.sqrt(count)).tolist(),
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"kept {count} of {args.proposals} proposals in {seconds:.1f}s -> {OUT}")


if __name__ == "__main__":
    main()
