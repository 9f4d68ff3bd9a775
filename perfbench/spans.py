"""In-memory span recorder, layer instrumentation and the span arithmetic.

Spans are recorded from outside the library: ``instrument`` swaps the
module attributes through which quditbell's layers call each other for thin
wrappers that open a span, and puts the originals back on exit.  Nothing in
``src/`` knows it is being traced, and untraced passes run the library
untouched.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass

#: candidate percentiles for the latency tail, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a percentile before it may be reported
TAIL_MIN_BEYOND = 10


@dataclass(slots=True)
class Span:
    """One call into a layer: [start, end) in perf_counter seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict | None = None  # counters attached at the boundary, if any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; ``write`` dumps them once at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), math.nan, parent, self.op)
        self.spans.append(s)
        self._stack.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``; ``count(args, result)`` may
        return counters to attach.  A call nested in a span of the same name
        (psi3 -> maximally_entangled, say) is not recorded twice."""

        def wrapper(*args, **kwargs):
            if any(s.name == name for s in self._stack):
                return fn(*args, **kwargs)
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if count is not None:
                s.counts = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _run_protocol_counts(args, result):
    records, summary = result
    return {
        "rounds": len(records),
        "key_dits": len(summary.key_alice),
        "pair_count_min": min(summary.pair_counts.values()),
    }


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _targets(lib):
    """(namespace, attribute, span name, counter) for every call site through
    which one layer enters another.  A function imported by name into another
    module is patched there too, because that is the binding its caller uses."""
    algebra, bell, protocol, security = lib.algebra, lib.bell, lib.protocol, lib.security
    targets = [
        (protocol, "run_protocol", "protocol.run_protocol", _run_protocol_counts),
        (protocol, "summarize", "protocol.summarize", None),
        (protocol, "estimate_violation", "protocol.estimate_violation", None),
        (protocol, "write_transcript_csv", "protocol.write_transcript_csv", _file_bytes),
        (protocol, "outcome_distribution", "ditter.outcome_distribution", None),
        (protocol, "apply_isotropic_noise", "security.apply_isotropic_noise", None),
        (security, "apply_isotropic_noise", "security.apply_isotropic_noise", None),
        (protocol, "monomial_observables", "bell.monomial_observables", None),
        (bell, "monomial_observables", "bell.monomial_observables", None),
        (bell, "violation", "bell.violation", None),
        (bell, "optimize_basis", "bell.optimize_basis", None),
        (security, "optimize_basis", "bell.optimize_basis", None),
        (bell, "theta_scan", "bell.theta_scan", None),
        (bell, "lhv_max", "bell.lhv_max", None),
        (security, "comparison_report", "security.comparison_report", None),
        (algebra, "maximally_entangled", "algebra.state_prep", None),
    ]
    targets += [
        (algebra.REFERENCE_STATES, key, "algebra.state_prep", None)
        for key in algebra.REFERENCE_STATES
    ]
    return targets


def _has(ns, key) -> bool:
    return key in ns if isinstance(ns, dict) else hasattr(ns, key)


def _get(ns, key):
    return ns[key] if isinstance(ns, dict) else getattr(ns, key)


def _set(ns, key, value):
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


@contextlib.contextmanager
def instrument(recorder: Recorder, lib):
    """Route every layer-to-layer call of ``lib`` through ``recorder``."""
    saved = []
    try:
        for ns, key, name, count in _targets(lib):
            if not _has(ns, key):
                continue  # a refactor removed this call site: the layer reads zero
            original = _get(ns, key)
            saved.append((ns, key, original))
            _set(ns, key, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for ns, key, original in reversed(saved):
            _set(ns, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))  # round: 99.9% of 10000 is 9990


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: an actual sample, never an interpolation
    between two kinds of operation."""
    return sorted(values)[_rank(p, len(values)) - 1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond its rank, or None when even the median
    has fewer."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = _rank(p, n)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (p, xs[rank - 1])
    return best
