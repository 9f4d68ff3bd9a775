"""Runs one workload in a fresh process and prints one JSON line of results.

Started by ``run.py`` with the BLAS thread count pinned in its environment,
so ``ru_maxrss`` and every timing belong to this workload alone.

Sequence: import quditbell and build the operations (``setup_s``), run one
untimed, checked warm-up pass, then timed passes until ``--seconds`` of pass
time is spent.  Untraced, every operation is timed on its own, and
``reference()`` is timed before each operation and after the last, so that
each time can be scaled to the host speed of the baseline.  With
``--trace 1`` untraced and traced passes alternate, so the tracing overhead
is measured in the same process.  Every operation's output is checked after
its pass, outside the timed region.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types

import jsonschema

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(SRC, "quditbell", "schemas", "output-v1.json")
PINS = os.path.join(HERE, "pinned.json")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

WARMUP_POLICY = (
    "one untimed, checked warm-up pass after set-up; timed passes repeat until "
    "--seconds of pass time is spent; checks run between passes, outside timing"
)
#: about the median time of one ``reference()`` in the baseline runs (0.0018
#: to 0.0019 s), on the 2-vCPU shared host that recorded them.  That host's
#: speed swings by up to 2x in phases of a few seconds (CPU time tracks wall
#: time, so the swing is in the cores, not in scheduling), so every timing is
#: scaled by ``speed_factor`` to what it would have been at that median speed.
REF_S = 0.0018
_REF_MATMULS = 100
_REF_LOOP = 10_000
_ref_arrays = None


def reference() -> float:
    """Seconds for a fixed mix of small complex matrix products and
    interpreter work that shares no code with quditbell: the host's current
    speed.  Best of two, so that one interrupt does not count."""
    global _ref_arrays
    if _ref_arrays is None:
        import numpy as np

        k = np.arange(625.0).reshape(25, 25)
        _ref_arrays = (np.exp(0.37j * k), np.exp(-0.11j * k))
    a, b = _ref_arrays
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(_REF_MATMULS):
            a @ b
        s = 0
        for i in range(_REF_LOOP):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(refs: list[float]) -> float:
    """What to multiply a time by to bring it to the baseline host speed,
    from the ``reference()`` times taken around it.  Their median, not the
    time beside each op: a phase of the host outlasts a pass, a stray slow
    reference does not."""
    return REF_S / statistics.median(refs)


def import_library():
    sys.path.insert(0, SRC)
    from quditbell import algebra, bell, cli, ditter, protocol, security

    return types.SimpleNamespace(
        algebra=algebra, bell=bell, cli=cli, ditter=ditter, protocol=protocol, security=security
    )


class Harness:
    def __init__(self, ops, recorder):
        self.ops = ops
        self.rec = recorder
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes = 0
        self.refs: list[float] = []

    def run_pass(self, traced: bool):
        """One pass over every op, timing ``reference()`` before each op and
        after the last: (per-op seconds, the pass's speed factor, spans of
        the pass)."""
        first_span = len(self.rec.spans)
        outputs, op_s, refs = [], [], [reference()]
        for i, op in enumerate(self.ops):
            self.rec.op = self.passes * len(self.ops) + i
            t0 = time.perf_counter()
            try:
                if traced and op.span:
                    with self.rec.span(op.span) as s:
                        outputs.append(op.run())
                    s.counts = {"bytes": os.path.getsize(op.files[0])}
                else:
                    outputs.append(op.run())
            except Exception as exc:  # a broken op is a failed op, not a dead run
                outputs.append(exc)
            op_s.append(time.perf_counter() - t0)
            refs.append(reference())
        self.refs += refs
        self.passes += 1
        for op, out in zip(self.ops, outputs):
            self.attempted += 1
            try:
                err = f"raised {out!r}" if isinstance(out, Exception) else op.check(out)
            except Exception as exc:
                err = f"check raised {exc!r}"
            if err:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{op.name}: {err}")
            for path in op.files:
                if os.path.exists(path):
                    os.remove(path)
        return op_s, speed_factor(refs), self.rec.spans[first_span:]


def layer_metrics(pass_spans: list[spans.Span], wall: float, factor: float) -> tuple[dict, dict]:
    """Per-layer numbers of one traced pass of unscaled length ``wall``, and
    self time by span name; times are multiplied by the pass's speed factor."""
    selfs = {k: v * factor for k, v in spans.self_times(pass_spans).items()}
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    counts: dict[str, float] = {}
    pair_min = None
    for s in pass_spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.duration * factor
        for k, v in (s.counts or {}).items():
            counts[f"{s.name}.{k}"] = counts.get(f"{s.name}.{k}", 0) + v
        if s.counts and "pair_count_min" in s.counts:
            m = s.counts["pair_count_min"]
            pair_min = m if pair_min is None else min(pair_min, m)

    def b(name):
        return busy.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    rounds = counts.get("protocol.run_protocol.rounds", 0)
    key_dits = counts.get("protocol.run_protocol.key_dits", 0)
    out = {
        "protocol.run_protocol.calls": c("protocol.run_protocol"),
        "protocol.run_protocol.busy_s": b("protocol.run_protocol"),
        "protocol.run_protocol.us_per_round": 1e6 * b("protocol.run_protocol") / rounds if rounds else 0.0,
        "protocol.summarize.busy_s": b("protocol.summarize"),
        "protocol.estimate_violation.busy_s": b("protocol.estimate_violation"),
        "protocol.write_transcript_csv.busy_s": b("protocol.write_transcript_csv"),
        "protocol.write_transcript_csv.bytes": counts.get("protocol.write_transcript_csv.bytes", 0),
        "protocol.rounds": rounds,
        "protocol.key_dits": key_dits,
        "protocol.sift_ratio": key_dits / rounds if rounds else 0.0,
        "protocol.pair_count.min": pair_min or 0,
        "ditter.outcome_distribution.calls": c("ditter.outcome_distribution"),
        "ditter.outcome_distribution.busy_s": b("ditter.outcome_distribution"),
        "security.apply_isotropic_noise.calls": c("security.apply_isotropic_noise"),
        "security.apply_isotropic_noise.busy_s": b("security.apply_isotropic_noise"),
        "bell.monomial_observables.calls": c("bell.monomial_observables"),
        "bell.monomial_observables.busy_s": b("bell.monomial_observables"),
        "bell.violation.calls": c("bell.violation"),
        "bell.violation.busy_s": b("bell.violation"),
        "bell.violation.ms_per_call": 1e3 * b("bell.violation") / c("bell.violation") if c("bell.violation") else 0.0,
        "bell.theta_scan.busy_s": b("bell.theta_scan"),
        "bell.optimize_basis.busy_s": b("bell.optimize_basis"),
        "bell.lhv_max.busy_s": b("bell.lhv_max"),
        "security.comparison_report.busy_s": b("security.comparison_report"),
        "algebra.state_prep.busy_s": b("algebra.state_prep"),
        "cli.main.busy_s": b("cli.main"),
        "cli.residual_s": sum(selfs[s.id] for s in pass_spans if s.name == "cli.main"),
        "cli.output.bytes": counts.get("cli.main.bytes", 0),
        "trace.coverage_frac": sum(s.duration for s in pass_spans if s.parent is None) / wall,
    }
    self_by_name: dict[str, float] = {}
    for s in pass_spans:
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + selfs[s.id]
    return out, self_by_name


def platform_fingerprint() -> str:
    """What floating-point results depend on besides the code: numpy, its
    BLAS and the CPU features numpy dispatches on.  Pinned checksums are
    compared only on the platform that recorded them."""
    import hashlib

    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    features = ",".join(sorted(k for k, v in __cpu_features__.items() if v))
    cpu = hashlib.sha256(features.encode()).hexdigest()[:12]
    return f"python {sys.version.split()[0]}; numpy {np.__version__}; {blas_name()}; cpu {cpu}"


def blas_name() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment() -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name(),
        "platform_fingerprint": platform_fingerprint(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "warmup_policy": WARMUP_POLICY,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with open(SCHEMA) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    with open(PINS) as fh:
        pinned = json.load(fh)
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    os.chdir(work_dir)  # ops write relative paths, which enter the result checksums
    try:
        recorder = spans.Recorder()
        t0 = time.perf_counter()
        lib = import_library()
        pins_applied = (args.seed == workloads.DEFAULT_SEED
                        and pinned["platform"] == platform_fingerprint())
        ctx = workloads.Context(lib, validator, pinned["ops"] if pins_applied else {})
        if args.trace:
            with spans.instrument(recorder, lib):
                ops = workloads.build(args.workload, args.seed, ctx)
        else:
            ops = workloads.build(args.workload, args.seed, ctx)
        raw_setup_s = time.perf_counter() - t0
        setup_factor = speed_factor([reference() for _ in range(5)])
        setup_s = raw_setup_s * setup_factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        setup_spans = list(recorder.spans)
        result = measure(args, ops, recorder, lib)
        result["setup_s"] = setup_s
        result["raw_setup_s"] = raw_setup_s
        result["pins_applied"] = pins_applied
        if args.trace:
            result["metrics"]["algebra.state_prep.setup_s"] = setup_factor * sum(
                s.duration for s in setup_spans if s.name == "algebra.state_prep"
            )
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        recorder.write(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def measure(args, ops, recorder, lib) -> dict:
    h = Harness(ops, recorder)
    h.run_pass(traced=False)  # warm-up: caches, lazy imports, page cache for the files
    walls, raw_walls, op_times, raw_op_times = [], [], [], []
    traced_walls, layer_runs, self_runs = [], [], []
    spent = 0.0
    while spent < args.seconds:
        raw, factor, _ = h.run_pass(traced=False)
        walls.append(sum(raw) * factor)
        raw_walls.append(sum(raw))
        op_times += [t * factor for t in raw]
        raw_op_times += raw
        spent += sum(raw)
        if args.trace:
            with spans.instrument(recorder, lib):
                raw, factor, pass_spans = h.run_pass(traced=True)
            traced_walls.append(sum(raw) * factor)
            layers, selfs = layer_metrics(pass_spans, sum(raw), factor)
            layer_runs.append(layers)
            self_runs.append(selfs)
            spent += sum(raw)
    work = sum(op.work for op in ops)
    wall_s = statistics.median(walls)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "work_per_pass": work,
        "work_unit": workloads.WORK_UNIT[args.workload],
        "attempted": h.attempted,
        "failed": h.failed,
        "errors": h.errors,
        "samples": {"wall_s": walls, "op_s": op_times, "raw_wall_s": raw_walls,
                    "raw_op_s": raw_op_times, "reference_s": h.refs},
    }
    if not args.trace:
        tail_p = workloads.TAIL_PERCENTILE[args.workload]
        ladder = spans.tail(op_times)
        out["metrics"] = {
            "wall_s": wall_s,
            "work_per_s": work / wall_s,
            "op_s.p50": spans.percentile(op_times, 50),
            "op_s.tail": spans.percentile(op_times, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        out["tail_percentile"] = tail_p
        out["tail_ladder_percentile"] = None if ladder is None else ladder[0]
        out["op_samples"] = len(op_times)
        return out
    per_layer = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
    per_layer["trace.overhead_frac"] = statistics.median(traced_walls) / wall_s - 1.0
    out["metrics"] = per_layer
    out["samples"]["traced_wall_s"] = traced_walls
    out["samples"]["per_layer"] = layer_runs
    out["self_s"] = {
        k: statistics.median(r.get(k, 0.0) for r in self_runs)
        for k in sorted({k for r in self_runs for k in r})
    }
    return out


if __name__ == "__main__":
    sys.exit(main())
