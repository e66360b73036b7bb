"""Spans around the program's layer boundaries, recorded from outside.

The program is left unchanged: `Tracer.install` replaces each public
function at the name its caller looks it up by (for example
`lingauss.sampler.find_feasible_point`) with a wrapper that records a span,
and `Tracer.remove` puts the originals back. A target that no longer exists
is skipped, so its layer reports as absent instead of crashing the run.

A span is (name, start, end, parent, note). Spans stay in memory; the run
writes them out when it ends. Self time is a span's duration minus the
durations of its direct children (calls are nested and single-threaded).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


def _feasibility_note(result):
    return getattr(result, "kind", None)


# (module, attribute path, span name, note taken from the return value)
TARGETS = (
    ("lingauss.sampler", "sample_constrained", "sampler", None),
    ("lingauss.problem", "ProblemSpec.__post_init__", "problem.validate", None),
    ("lingauss.problem", "factor_covariance", "linalg.factor", None),
    ("lingauss.sampler", "factor_covariance", "linalg.factor", None),
    ("lingauss.sampler", "classify_equality_system", "transform.classify", None),
    ("lingauss.transform", "classify_equality_system", "transform.classify", None),
    ("lingauss.sampler", "build_transform", "transform.build", None),
    ("lingauss.sampler", "map_latent", "transform.map", None),
    ("lingauss.sampler", "find_feasible_point", "feasibility", _feasibility_note),
    ("lingauss.feasibility", "solve_lp", "simplex", None),
    ("lingauss.sampler", "run_chain", "slice", None),
    ("lingauss.stats", "sample_stats", "stats", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    note: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.note = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the targets that do not."""
        missing = []
        for module_name, path, name, note in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))
        return missing

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def summarize(spans: list[Span]) -> dict:
    """Per-name totals, self times, call counts, and feasibility time per verdict."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    by_note = defaultdict(float)
    for span in spans:
        total[span.name] += span.seconds
        self_time[span.name] += span.seconds
        calls[span.name] += 1
        if span.parent >= 0:
            self_time[spans[span.parent].name] -= span.seconds
        if span.name == "feasibility":
            by_note[span.note] += span.seconds
    return {"total": total, "self": self_time, "calls": calls, "feasibility": by_note}


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "note": s.note}
        for s in spans
    ]
