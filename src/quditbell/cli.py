"""Command-line front end.

Subcommands:

* ``violation`` — violation factor of a built-in Bell operator on a state.
* ``simulate`` — Monte-Carlo protocol run: transcript, sifting, key
  agreement, and empirical violation estimate.
* ``security`` — cloning-attack criterion table and protocol comparison.
* ``lhv`` — exhaustive local-hidden-variable bound check.
* ``spectrum`` — matched-basis correlation spectrum of a state.

Every JSON output carries a manifest (command, resolved parameters, seed,
tool version) and a sha256 checksum of the result payload, so identical
invocations are verifiably byte-identical.  Exit codes: 0 success, 2
validation error, 3 insufficient data.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from importlib import metadata

import numpy as np

from . import algebra, bell, protocol, security

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INSUFFICIENT_DATA = 3

SCHEMA_ID = "quditbell/output-v1"

#: largest --d any subcommand accepts.  Costliest at this bound is hdDEB simulate
#: (d^2 basis-pair outcome tables): simulate --d 32 --noise 0.5 --rounds 500
#: takes ~0.1 s and 48 MB peak RSS (2-core x86-64, Python 3.11, numpy 2.4).
MAX_DIMENSION = 32


class ValidationError(ValueError):
    """Bad command-line input."""


def _version() -> str:
    try:
        return metadata.version("quditbell")
    except metadata.PackageNotFoundError:
        return "0.0.0+uninstalled"


def _is_number_pair(entry) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    )


def parse_state(spec: str, d: int) -> algebra.EntangledState:
    """Resolve a --state value to a pure state.

    Accepted forms: psi3 | psi4 | psi5 (reference states), ghz (maximally
    entangled in dimension d), or a path to a JSON file {"d": ..., "deltas":
    [[re, im], ...]}.  A mixed:N spec is rejected here; only ``violation``
    reads it, through parse_noisy_state.
    """
    if spec in algebra.REFERENCE_STATES:
        state = algebra.REFERENCE_STATES[spec]()
        if state.d != d:
            raise ValidationError(f"state {spec} has dimension {state.d}, not {d}")
        return state
    if spec == "ghz":
        return algebra.maximally_entangled(d)
    if spec.startswith("mixed:"):
        raise ValidationError(f"--state {spec} is for violation only; simulate takes --noise")
    try:
        with open(spec) as fh:
            payload = json.load(fh)
    except OSError:
        raise ValidationError(f"unknown state spec {spec!r}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file {spec!r} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"state file {spec!r} must hold a JSON object")
    if payload.get("d") != d:
        raise ValidationError(f"state file dimension {payload.get('d')} != --d {d}")
    deltas = payload.get("deltas")
    if not isinstance(deltas, list) or not all(_is_number_pair(x) for x in deltas):
        raise ValidationError(
            f"state file {spec!r} needs \"deltas\": a list of [re, im] number pairs"
        )
    return algebra.make_state(d, [complex(re, im) for re, im in deltas])


def parse_noisy_state(spec: str, d: int) -> tuple[algebra.EntangledState, float]:
    """(pure state, isotropic noise N) for violation's --state: mixed:N is the
    maximally entangled state with noise N, any other spec has N = 0."""
    if not spec.startswith("mixed:"):
        return parse_state(spec, d), 0.0
    try:
        noise = float(spec.split(":", 1)[1])
    except ValueError:
        raise ValidationError(f"bad noise fraction in {spec!r}") from None
    if not 0.0 <= noise <= 1.0:
        raise ValidationError(f"noise fraction must be in [0, 1], got {noise}")
    return algebra.maximally_entangled(d), noise


def parse_theta(spec: str | None) -> complex | None:
    """--theta is a finite phase angle in radians; the base phase becomes
    e^{i phi}."""
    if spec is None:
        return None
    try:
        phi = float(spec)
    except ValueError:
        raise ValidationError(f"--theta must be a real angle in radians, got {spec!r}")
    if not math.isfinite(phi):
        raise ValidationError(f"--theta must be finite, got {spec!r}")
    return complex(np.exp(1j * phi))


def _manifest(command: str, parameters: dict, result: dict, seed: int | None = None) -> dict:
    digest = hashlib.sha256(
        json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "command": command,
        "parameters": parameters,
        "rng_seed": seed,
        "version": _version(),
        "checksum": digest,
    }


def _emit(command: str, parameters: dict, result: dict, args, text_renderer) -> None:
    doc = {
        "schema": SCHEMA_ID,
        "manifest": _manifest(command, parameters, result, parameters.get("seed")),
        "result": result,
    }
    if args.format == "json":
        output = json.dumps(doc, indent=2) + "\n"
    else:
        output = text_renderer(result) + "\n"
    _write(output, args.out)


def _write(output: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(output)


REFERENCE_VIOLATIONS = {3: 1.505, 4: 1.546, 5: 1.574}


def cmd_violation(args) -> int:
    d = args.d
    t = bell.builtin_operator(d)
    state, noise = parse_noisy_state(args.state, d)
    theta = parse_theta(args.theta)
    if args.optimize:
        basis, v = bell.optimize_basis(state, t, theta)
    else:
        basis = bell.canonical_basis(d, theta)
        v = bell.violation(state, t, basis)
    result = {
        "d": d,
        "state": args.state,
        "violation": (1 - noise) * v + 0.0,  # + 0.0: N = 1 gives 0.0, never -0.0
        "reference_value": REFERENCE_VIOLATIONS[d],
        "optimized": bool(args.optimize),
        "alice_phases": _phases_out(basis.alice_generators),
        "bob_phases": _phases_out(basis.bob_generators),
    }

    def render(r):
        return (
            f"d = {r['d']}  state = {r['state']}\n"
            f"violation  v = {r['violation']:.4f}\n"
            f"reference  v = {r['reference_value']:.4f}"
        )

    _emit("violation", _params(args, ["d", "state", "theta", "optimize"]), result, args, render)
    return EXIT_OK


def _phases_out(generators) -> list:
    return [[[z.real, z.imag] for z in g.thetas] for g in generators]


def _params(args, names) -> dict:
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_simulate(args) -> int:
    d = args.d
    state = parse_state(args.state, d)
    config = protocol.ProtocolConfig(
        d=d,
        state=state,
        noise=args.noise,
        theta=parse_theta(args.theta),
        rounds=args.rounds,
        rng_seed=args.seed,
        mode=args.mode,
    )
    transcript, summary = protocol.run_protocol(config)

    result = {
        "d": d,
        "mode": config.mode,
        "rounds": config.rounds,
        "noise": config.noise,
        "sift_rate": summary.sift_rate,
        "agreement_rate": summary.agreement_rate,
        "agreement_defined": summary.agreement_defined,
        "key_length": len(summary.key_alice),
    }
    if config.mode == protocol.HDDEB_MODE and d in bell.BUILTIN_POLYS:
        v_hat, stderr = protocol.estimate_violation(transcript, bell.builtin_operator(d))
        analytic = bell.violation(
            state, bell.builtin_operator(d), bell.protocol_basis(d, config.theta)
        )
        result["violation_estimate"] = v_hat
        result["violation_stderr"] = stderr
        result["violation_analytic_same_basis"] = (1 - config.noise) * analytic

    if args.transcript:
        try:
            protocol.write_transcript_csv(transcript, args.transcript)
        except OSError as exc:
            raise ValidationError(
                f"cannot write --transcript {args.transcript!r}: {exc.strerror or exc}"
            ) from None
        result["transcript_file"] = args.transcript
    if args.format == "csv":
        # csv output means the transcript itself
        _write(protocol.transcript_csv_string(transcript), args.out)
        return EXIT_OK

    def render(r):
        lines = [
            f"d = {r['d']}  mode = {r['mode']}  rounds = {r['rounds']}  noise = {r['noise']:.4f}",
            f"sift rate       {r['sift_rate']:.4f}",
            f"agreement rate  "
            + (f"{r['agreement_rate']:.4f}" if r["agreement_defined"] else "undefined"),
            f"key length      {r['key_length']}",
        ]
        if "violation_estimate" in r:
            lines.append(
                f"violation       {r['violation_estimate']:.4f} "
                f"+/- {r['violation_stderr']:.4f} "
                f"(analytic {r['violation_analytic_same_basis']:.4f})"
            )
        return "\n".join(lines)

    _emit(
        "simulate",
        _params(args, ["d", "state", "theta", "rounds", "noise", "seed", "mode"]),
        result,
        args,
        render,
    )
    return EXIT_OK


def cmd_security(args) -> int:
    ds = [int(x) for x in args.d_list.split(",")] if args.d_list else [3, 4, 5]
    repeated = [d for i, d in enumerate(ds) if d in ds[:i]]
    if repeated:
        raise ValidationError(f"--d-list repeats d = {repeated[0]}")
    table = security.criterion_table()
    reports = [security.comparison_report(d) for d in ds]
    result = {"criterion_table": table, "comparisons": [r.to_dict() for r in reports]}

    def render(r):
        parts = [security.criterion_table_text()]
        if reports:
            parts.append("")
            parts.append(security.comparison_table_text(reports))
        return "\n".join(parts)

    _emit("security", _params(args, ["d_list"]), result, args, render)
    return EXIT_OK


def cmd_lhv(args) -> int:
    d = args.d
    t = bell.builtin_operator(d)
    bound = bell.lhv_max(t)
    passed = bound <= 1.0 + 1e-9
    result = {"d": d, "lhv_max": bound, "bound": 1.0, "pass": passed}

    def render(r):
        return (
            f"d = {r['d']}  exhaustive local-realism maximum = {r['lhv_max']:.10f}\n"
            f"{'PASS' if r['pass'] else 'FAIL'} (bound 1 + 1e-9)"
        )

    _emit("lhv", _params(args, ["d"]), result, args, render)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    d = args.d
    state = parse_state(args.state, d)
    spectrum = protocol.correlation_spectrum(state)
    result = {
        "d": d,
        "state": args.state,
        "spectrum": list(spectrum),
        "perfect_correlation": bool(abs(spectrum[0] - 1.0) < 1e-12),
    }

    def render(r):
        lines = [f"d = {r['d']}  state = {r['state']}"]
        lines += [f"P(k+k'={m} mod d) = {p:.4f}" for m, p in enumerate(r["spectrum"])]
        if not r["perfect_correlation"]:
            lines.append("warning: P(0) < 1 — matched bases are not perfectly correlated")
        return "\n".join(lines)

    _emit("spectrum", _params(args, ["d", "state"]), result, args, render)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditbell",
        description="Qudit Bell-violation analysis and key-distribution simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True, theta=True, formats=("json", "text")):
        p.add_argument("--d", type=int, required=True, help="qudit dimension")
        if state:
            p.add_argument(
                "--state",
                default="ghz",
                help="psi3|psi4|psi5|ghz|<json file>; violation also mixed:N",
            )
        if theta:
            p.add_argument("--theta", default=None, help="base phase angle in radians")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("violation", help="Bell violation factor of a state")
    common(p)
    p.add_argument("--optimize", action="store_true", help="search basis assignments")
    p.set_defaults(func=cmd_violation)

    p = sub.add_parser("simulate", help="Monte-Carlo protocol run")
    common(p, formats=("json", "csv", "text"))
    p.add_argument("--rounds", type=int, default=10_000)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[protocol.HDDEB_MODE, protocol.NDEB_MODE],
                   default=protocol.HDDEB_MODE)
    p.add_argument("--transcript", default=None, help="also write transcript CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("security", help="criterion table and protocol comparison")
    p.add_argument("--d-list", default=None, help="comma-separated dimensions for comparison")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_security)

    p = sub.add_parser("lhv", help="exhaustive local-realism bound check")
    common(p, state=False, theta=False)
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("spectrum", help="matched-basis correlation spectrum")
    common(p, theta=False)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "d") and not 2 <= args.d <= MAX_DIMENSION:  # all but security
            raise ValidationError(f"--d must be in [2, {MAX_DIMENSION}], got {args.d}")
        return args.func(args)
    except protocol.InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
