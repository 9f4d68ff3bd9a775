"""The benchmark's three workloads, built from a seed.

Each follows one of the paper's user-facing jobs and stresses a different
layer:

* ``simulate-long``: the hdDEB key-distribution Monte Carlo at d = 5 with a
  transcript, where nearly all time is per-round work in ``protocol``.
* ``simulate-sweep``: many short runs over dimensions, both protocol modes
  and several noise levels, where the per-configuration set-up (outcome
  tables, the noisy density state) outweighs the per-round work.
* ``bell-analysis``: the Bell-violation, local-bound and security tables,
  which are all dense ``bell.violation`` work and touch no ``protocol`` code.

The seed only chooses the inputs (simulator rng seeds and the order of the
operations); quditbell never sees it.  Every operation carries a check, and
operations named in the pinned-checksum file must reproduce their bytes.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from checks import (
    all_finite,
    binomial_sigma,
    canonical_checksum,
    document_errors,
    file_sha256,
    within_sigma,
)

DEFAULT_SEED = 0

# simulate-long: five 24k-round runs make a 2-3 s pass in which the
# per-round path is over 90% of the time.
LONG_OPS = 5
LONG_ROUNDS = 24_000

# simulate-sweep: 40 configurations of 500 rounds, enough that every hdDEB
# basis pair at d = 5 sees ~20 rounds, so the violation estimate never
# starves (P(an empty pair) < 1e-7 per run).
SWEEP_DIMS = (3, 4, 5, 7, 9)
SWEEP_MODES = ("hdDEB", "NDEB")
SWEEP_NOISES = (0.0, 0.1, 0.2, 0.3)
SWEEP_ROUNDS = 500

# bell-analysis: theta_scan sizes that make a pass of about 1.1 s, so a
# 30 s run times about 27 passes (240 ops).  The psi5 scan is the slowest
# ninth of the ops, so p95 lands near the middle of its times; p90 would
# land on the fastest few, which swing with the host's speed.
SCAN_POINTS = {3: 300, 5: 160}
BELL_DIMS = (3, 4, 5)
#: acceptance-criterion reference violations and their tolerance
REFERENCE_V = {3: 1.505, 4: 1.546, 5: 1.574}
REFERENCE_TOL = 0.005
LHV_TOL = 1e-9

WHY = {
    "simulate-long": "few long hdDEB runs at d=5 with a transcript: per-round protocol work, "
    "summary, violation estimate and CSV writer dominate",
    "simulate-sweep": "many short runs over d, mode and noise: outcome tables, noisy density "
    "state and observable set-up dominate, per-round work is small",
    "bell-analysis": "violation --optimize, lhv, security and theta_scan: dense bell.violation "
    "work only, no protocol code",
}
#: the percentile reported as op_s.tail, fixed per workload so that runs of
#: any speed compare the same percentile.  Each is what ``spans.tail`` (the
#: highest percentile with ten samples beyond it) picks for the median op
#: count of the baseline runs: about 55, 760 and 240 ops.
TAIL_PERCENTILE = {"simulate-long": 75.0, "simulate-sweep": 95.0, "bell-analysis": 95.0}
WORK_UNIT = {"simulate-long": "rounds", "simulate-sweep": "configs", "bell-analysis": "evaluations"}


@dataclass
class Op:
    """One benchmark operation: a call into quditbell and its check."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    work: float
    span: str | None = None  # span the harness opens around ``run`` when tracing
    files: tuple[str, ...] = ()  # written by the op; files[0] is its --out document


@dataclass
class Context:
    lib: Any  # namespace holding quditbell's modules
    validator: Any  # jsonschema validator for the CLI output schema
    pins: dict  # op name -> {"result": sha256, ...}
    expectations: dict = field(default_factory=dict)  # analytic values by configuration


def build(name: str, seed: int, ctx: Context) -> list[Op]:
    rng = random.Random(seed)
    if name == "simulate-long":
        return [
            _simulate_op(ctx, f"long{i:02d}", 5, "psi5", "hdDEB", 0.2, LONG_ROUNDS,
                         rng.getrandbits(31), transcript=True, work=LONG_ROUNDS)
            for i in range(LONG_OPS)
        ]
    if name == "simulate-sweep":
        ops = []
        for d in SWEEP_DIMS:
            state = f"psi{d}" if d in REFERENCE_V else "ghz"
            for mode in SWEEP_MODES:
                for noise in SWEEP_NOISES:
                    stem = f"sweep-d{d}-{mode}-n{noise}"
                    ops.append(_simulate_op(ctx, stem, d, state, mode, noise, SWEEP_ROUNDS,
                                            rng.getrandbits(31), transcript=False, work=1))
        rng.shuffle(ops)
        return ops
    if name == "bell-analysis":
        ops = [_violation_op(ctx, d) for d in BELL_DIMS]
        ops += [_lhv_op(ctx, d) for d in BELL_DIMS]
        ops.append(_security_op(ctx))
        ops += [_scan_op(ctx, d, n) for d, n in SCAN_POINTS.items()]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {name!r}")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli_op(ctx: Context, name: str, argv: list[str], out: str, work: float,
            check_result: Callable[[dict], str | None], extra_files=()) -> Op:
    cli = ctx.lib.cli
    pinned = ctx.pins.get(name, {}).get("result")

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        doc = _load(out)
        return document_errors(doc, ctx.validator, pinned) or check_result(doc["result"])

    return Op(name, lambda: cli.main(argv), check, work, "cli.main", (out, *extra_files))


def _simulate_expectations(ctx: Context, d: int, state_spec: str, mode: str):
    """(number of bases, P(k + k' = 0 mod d) in a matched basis, noiseless
    analytic violation or None), from the library's analytic functions.
    Matched bases of both modes share the geometric-basis P(0): 1 for the
    uniform states, 0.68 for psi5."""
    key = (d, state_spec, mode)
    if key not in ctx.expectations:
        lib = ctx.lib
        state = lib.cli.parse_state(state_spec, d)
        p0 = float(lib.protocol.correlation_spectrum(state)[0])
        if mode == lib.protocol.HDDEB_MODE:
            analytic = None
            if d in lib.bell.BUILTIN_POLYS:
                analytic = lib.bell.violation(
                    state, lib.bell.builtin_operator(d), lib.bell.protocol_basis(d)
                )
            ctx.expectations[key] = (d, p0, analytic)
        else:
            ctx.expectations[key] = (4, p0, None)
    return ctx.expectations[key]


def _simulate_op(ctx: Context, stem: str, d: int, state: str, mode: str, noise: float,
                 rounds: int, rng_seed: int, transcript: bool, work: float) -> Op:
    name = f"simulate d={d} state={state} mode={mode} noise={noise} rounds={rounds} seed={rng_seed}"
    out = f"{stem}.json"
    csv_file = f"{stem}.csv" if transcript else None
    argv = ["simulate", "--d", str(d), "--state", state, "--mode", mode, "--noise", str(noise),
            "--rounds", str(rounds), "--seed", str(rng_seed), "--format", "json", "--out", out]
    if csv_file:
        argv += ["--transcript", csv_file]
    n_bases, p0, analytic = _simulate_expectations(ctx, d, state, mode)
    p_sift = 1.0 / n_bases
    p_agree = (1.0 - noise) * p0 + noise / d
    pinned_csv = ctx.pins.get(name, {}).get("transcript")

    def check_result(r):
        if (r["d"], r["mode"], r["rounds"], r["noise"]) != (d, mode, rounds, noise):
            return "result does not echo its parameters"
        err = within_sigma("sift_rate", r["sift_rate"], p_sift, binomial_sigma(p_sift, rounds))
        err = err or within_sigma("agreement_rate", r["agreement_rate"], p_agree,
                                  binomial_sigma(p_agree, r["key_length"]))
        if analytic is not None and not err:
            if abs(r["violation_analytic_same_basis"] - (1.0 - noise) * analytic) > 1e-9:
                return "violation_analytic_same_basis differs from the analytic value"
            err = within_sigma("violation_estimate", r["violation_estimate"],
                               (1.0 - noise) * analytic, r["violation_stderr"])
        if csv_file and not err:
            with open(csv_file, "rb") as fh:
                data = fh.read()
            if data.count(b"\n") != rounds + 1:
                return "transcript row count != rounds + header"
            if pinned_csv is not None and file_sha256(csv_file) != pinned_csv:
                return "transcript bytes differ from the pinned checksum"
        return err

    return _cli_op(ctx, name, argv, out, work, check_result,
                   (csv_file,) if csv_file else ())


def _violation_op(ctx: Context, d: int) -> Op:
    out = f"violation{d}.json"
    argv = ["violation", "--d", str(d), "--state", f"psi{d}", "--optimize",
            "--format", "json", "--out", out]

    def check_result(r):
        if not r["optimized"] or abs(r["violation"] - REFERENCE_V[d]) > REFERENCE_TOL:
            return f"violation {r['violation']!r} not within {REFERENCE_TOL} of {REFERENCE_V[d]}"
        return None

    candidates = len(ctx.lib.bell.assignment_candidates(d))
    return _cli_op(ctx, f"violation --optimize d={d}", argv, out, candidates, check_result)


def _lhv_op(ctx: Context, d: int) -> Op:
    out = f"lhv{d}.json"
    argv = ["lhv", "--d", str(d), "--format", "json", "--out", out]

    def check_result(r):
        if not r["pass"] or not r["lhv_max"] <= 1.0 + LHV_TOL:
            return f"lhv_max {r['lhv_max']!r} exceeds 1 + {LHV_TOL}"
        return None

    return _cli_op(ctx, f"lhv d={d}", argv, out, 0, check_result)


def _security_op(ctx: Context) -> Op:
    out = "security.json"
    argv = ["security", "--format", "json", "--out", out]

    def check_result(r):
        if not all_finite(r) or not r["criterion_table"]["rows"]:
            return "security table has a non-finite or missing entry"
        if [c["d"] for c in r["comparisons"]] != list(BELL_DIMS):
            return "security comparisons do not cover d = 3, 4, 5"
        return None

    bell = ctx.lib.bell
    candidates = sum(len(bell.assignment_candidates(d)) for d in BELL_DIMS)
    return _cli_op(ctx, "security", argv, out, candidates, check_result)


def _scan_op(ctx: Context, d: int, num_points: int) -> Op:
    lib = ctx.lib
    name = f"theta_scan psi{d} T{d} num_points={num_points}"
    state = lib.algebra.REFERENCE_STATES[f"psi{d}"]()
    t = lib.bell.builtin_operator(d)
    v_canonical = lib.bell.violation(state, t, lib.bell.canonical_basis(d))
    pinned = ctx.pins.get(name, {}).get("result")

    def run():
        return lib.bell.theta_scan(state, t, num_points=num_points)

    def check(out):
        theta, v = out
        if not math.isfinite(v) or abs(abs(theta) - 1.0) > 1e-9:
            return f"theta_scan returned ({theta!r}, {v!r})"
        if v < v_canonical - 1e-3:
            return f"theta_scan best {v!r} below the reference-phase value {v_canonical!r}"
        if pinned is not None and scan_checksum(out) != pinned:
            return "theta_scan result differs from the pinned checksum"
        return None

    return Op(name, run, check, num_points + 21)


def scan_checksum(out) -> str:
    theta, v = out
    return canonical_checksum({"theta": [theta.real, theta.imag], "violation": v})
