"""quditbell benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload simulate-long --seed 0 --seconds 30 --trace 0

Each workload runs in a fresh child process (``worker.py``) with the BLAS
thread count pinned to 1, one process at a time.  ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics.  ``setup_s`` is the median of the worker's own set-up and
``SETUP_PROBES`` set-up-only children.  Every time is scaled to the baseline
host's median speed (``worker.speed_factor``); the unscaled median pass is
printed beside ``wall_s``.  Human-readable lines come first; the
last line of standard output is one JSON object.

One ``--workload`` run (one workload, one trace mode) ends within
``DEADLINE_S``.  Without ``--workload`` the six runs follow one another, each
with its own deadline, so the whole command takes about four minutes.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("simulate-long", "simulate-sweep", "bell-analysis")
SETUP_PROBES = 4
DEADLINE_S = 170  # per (workload, trace mode) run: each must end within 180 s
#: bytecode cache of every child, emptied at the start of each run and filled
#: by one discarded set-up child, so that set-up always reads cached bytecode
#: of the checkout's own sources, whatever __pycache__ directories exist
PYCACHE = os.path.join(ROOT, ".perfbench_work", "pycache")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_one(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One workload in one trace mode; returns the worker record with the
    contract metrics under ``metrics``."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    shutil.rmtree(PYCACHE, ignore_errors=True)
    run_worker(common + ["--setup-only"], deadline)  # compiles into PYCACHE; not timed
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(run_worker(common + ["--setup-only"], deadline))
    record = run_worker(common + ["--trace", str(trace)], deadline)
    if not trace:
        record["samples"]["setup_s"] = [record["setup_s"]] + [p["setup_s"] for p in probes]
        record["samples"]["raw_setup_s"] = [record["raw_setup_s"]] + [p["raw_setup_s"] for p in probes]
        record["metrics"]["setup_s"] = statistics.median(record["samples"]["setup_s"])
    metric_names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    missing = [m for m in metric_names if m not in record["metrics"]]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    record["failed_frac"] = record["failed"] / record["attempted"]
    record["git_commit"] = git_commit()
    return record


def print_record(record: dict, units: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} seed={record['seed']} ({mode}): "
          f"{record['ops_per_pass']} ops x {len(record['samples']['wall_s'])} timed passes, "
          f"{record['work_per_pass']:g} {record['work_unit']} per pass")
    for name in units:
        if name in record["metrics"]:
            print(f"  {name:42s} {record['metrics'][name]:>14.6g} {units[name]}")
    if not record["trace"]:
        print(f"  {'wall_s before scaling to baseline speed':42s} "
              f"{statistics.median(record['samples']['raw_wall_s']):>14.6g} s")
    if "tail_percentile" in record:
        ladder = record["tail_ladder_percentile"]
        print(f"  {'op_s.tail percentile':42s} {record['tail_percentile']:>14g} "
              f"of {record['op_samples']} ops (ladder rule here: "
              f"{'none' if ladder is None else f'{ladder:g}'})")
    print(f"  {'pins_applied':42s} {str(record['pins_applied']):>14s} "
          "(pinned checksums compared: default seed on the recording platform)")
    print(f"  {'failed_frac':42s} {record['failed_frac']:>14.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    for err in record["errors"]:
        print(f"  FAILED {err}")


def contract_line(record: dict, names: list[str], units: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": units[n]} for n in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload in one trace mode (default: all, both modes)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed pass seconds (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full records, samples and environment here")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "quditbell")):
        print(f"error: no quditbell sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    runs = [(args.workload, args.trace)] if args.workload else [
        (w, t) for w in WORKLOADS for t in (0, 1)
    ]
    records = []
    try:
        for workload, trace in runs:
            deadline = time.monotonic() + DEADLINE_S
            records.append(run_one(workload, args.seed, seconds, trace, deadline))
            print_record(records[-1], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
    if args.workload:
        names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        print(json.dumps(contract_line(records[0], names, units)))
    else:
        print(json.dumps({
            "correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}:{name}": {"value": value, "unit": units.get(name, "")}
                for r in records for name, value in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
