"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

Runs every workload ``--runs`` times untraced, each run with its own seed,
then once traced at the default seed.  For each end-to-end metric it reports
every run's value, the median and the quartile distance
(``statistics.quantiles(values, n=4)``) as a share of the median, beside the
bound that ``BENCHMARK.json`` fixes.  A spread above a third of its bound is
flagged, except for ``setup_s``, whose bound only guards the median.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import workloads

OUT_DIR = os.path.join(run.ROOT, ".perfbench_out")

#: which end-to-end metric each per-layer metric is expected to move, on
#: which workload; written down before any optimisation is measured
PREDICTED_MOVERS = {
    "protocol.run_protocol.{calls,busy_s,us_per_round}":
        "simulate-long wall_s/work_per_s; small share on simulate-sweep; zero on bell-analysis",
    "protocol.summarize.busy_s, protocol.estimate_violation.busy_s, "
    "protocol.write_transcript_csv.{busy_s,bytes}": "simulate-long wall_s",
    "protocol.rounds, protocol.key_dits, protocol.sift_ratio, protocol.pair_count.min":
        "exact counts at a fixed seed: a change to any of them is a change of behaviour",
    "ditter.outcome_distribution.{calls,busy_s}": "simulate-sweep wall_s; about zero on simulate-long",
    "security.apply_isotropic_noise.{calls,busy_s}": "simulate-sweep wall_s (noise > 0 configs)",
    "bell.monomial_observables.{calls,busy_s}": "simulate-sweep and bell-analysis wall_s",
    "bell.violation.{calls,busy_s,ms_per_call}, bell.theta_scan.busy_s, bell.optimize_basis.busy_s":
        "bell-analysis wall_s/work_per_s/op_s.*",
    "bell.lhv_max.busy_s, security.comparison_report.busy_s":
        "bell-analysis; lhv_max predicted never to matter (< 2 ms)",
    "algebra.state_prep.busy_s": "setup_s",
    "cli.main.busy_s, cli.residual_s, cli.output.bytes": "wall_s on both simulate workloads",
    "trace.overhead_frac": "traced over untraced pass wall, minus 1",
}


def run_once(workload: str, seed: int, trace: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"spread-{workload}-{seed}-{trace}.json")
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        record = json.load(fh)[0]
    os.remove(out)
    print(f"{workload} seed={seed} trace={trace}: "
          + ", ".join(f"{k}={v:.6g}" for k, v in record["metrics"].items()
                      if k in ("wall_s", "setup_s", "op_s.tail", "trace.overhead_frac")),
          flush=True)
    return record


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bench = run.spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = list(range(workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + args.runs))
    doc = {"git_commit": run.git_commit(), "run_seconds": bench["run_seconds"],
           "seeds": seeds, "workloads": {}}
    steady = True
    for w in run.WORKLOADS:
        records = [run_once(w, s, 0) for s in seeds]
        traced = run_once(w, workloads.DEFAULT_SEED, 1)
        doc["env"] = traced["env"]
        e2e = {}
        for name, bound in bounds.items():
            e2e[name] = summarize([r["metrics"][name] for r in records], bound)
            e2e[name]["unit"] = units[name]
            if name != "setup_s" and e2e[name]["spread"] > bound / 3:
                steady = False
        selfs = {k: v for k, v in traced["self_s"].items() if k != "cli.main"}
        doc["workloads"][w] = {
            "why": workloads.WHY[w],
            "work_unit": workloads.WORK_UNIT[w],
            "ops_per_pass": records[0]["ops_per_pass"],
            "work_per_pass": records[0]["work_per_pass"],
            "end_to_end": e2e,
            "tail_percentile": records[0]["tail_percentile"],
            "tail_ladder_percentile": [r["tail_ladder_percentile"] for r in records],
            "op_samples": [r["op_samples"] for r in records],
            "failed_frac": sum(r["failed"] for r in records) / sum(r["attempted"] for r in records),
            # the same pass times before scaling to the baseline host speed
            "unscaled_wall_s": summarize(
                [statistics.median(r["samples"]["raw_wall_s"]) for r in records], bounds["wall_s"]),
            "reference_s_median": statistics.median(
                x for r in records for x in r["samples"]["reference_s"]),
            "pins_applied_runs": sum(r["pins_applied"] for r in records),
            "per_layer": traced["metrics"],
            "per_layer_runs": traced["samples"]["per_layer"],
            "self_s": traced["self_s"],
            "largest_layer_by_self_time": max(selfs, key=selfs.get),
        }
        for name, s in e2e.items():
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {w:15s} {name:12s} median {s['median']:.6g} {s['unit']}  "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)
    doc["steady"] = steady
    long = doc["workloads"]["simulate-long"]
    doc["roadmap_comparison"] = {
        "simulate_us_per_round": {
            "measured": 1e6 / long["end_to_end"]["work_per_s"]["median"],
            "roadmap": 22.0,
            "note": "ROADMAP: 2.2 s per 1e5 rounds at d=5 for a whole simulate command; "
            "measured: simulate-long median, which also writes the transcript CSV",
        },
        "violation_ms_per_call_d5": {
            "measured": long["per_layer"]["bell.violation.ms_per_call"],
            "roadmap": 4.0,
            "note": "ROADMAP: about 4 ms per d=5 violation; simulate-long makes only d=5 calls",
        },
    }
    doc["predicted_movers"] = PREDICTED_MOVERS
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
