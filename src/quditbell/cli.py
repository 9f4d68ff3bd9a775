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
invocations are verifiably byte-identical.  Exit codes: 0 success, 1 failed
check (``lhv`` over its bound), 2 validation error, 3 insufficient data.
"""
from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys
from importlib import metadata

import numpy as np

from . import algebra, bell, protocol, security

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_INSUFFICIENT_DATA = 3

SCHEMA_ID = "quditbell/output-v1"

#: largest --d any subcommand accepts.  Costliest at this bound is hdDEB simulate
#: (d^2 basis-pair outcome tables): simulate --d 32 --noise 0.5 --rounds 500
#: takes ~0.1 s and 48 MB peak RSS (2-core x86-64, Python 3.11, numpy 2.4).
MAX_DIMENSION = 32

#: largest simulate --rounds.  The CSV transcript is streamed, so csv and json
#: cost the same: simulate --d 5 --rounds 5000000 peaks at 325 MB RSS with
#: --format csv and 324 MB with --format json, about 65 B per round, so a run
#: at the cap stays near 650 MB (2-core x86-64, Python 3.11, numpy 2.4).
MAX_ROUNDS = 10_000_000


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
        with open(spec, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError:
        raise ValidationError(f"unknown state spec {spec!r}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"state file {spec!r} is not valid JSON: {exc}") from None
    except ValueError:  # an integer literal longer than int()'s digit limit
        raise ValidationError(f"state file {spec!r} has a number too large for a float") from None
    except RecursionError:  # arrays or objects nested deeper than the decoder can recurse
        raise ValidationError(f"state file {spec!r} is nested too deeply to parse") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"state file {spec!r} must hold a JSON object")
    if payload.get("d") != d:
        raise ValidationError(f"state file dimension {payload.get('d')} != --d {d}")
    deltas = payload.get("deltas")
    if not isinstance(deltas, list) or not all(_is_number_pair(x) for x in deltas):
        raise ValidationError(
            f"state file {spec!r} needs \"deltas\": a list of [re, im] number pairs"
        )
    try:
        return algebra.make_state(d, [complex(re, im) for re, im in deltas])
    except OverflowError:
        raise ValidationError(f"state file {spec!r} has a number too large for a float") from None


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


#: parsed arguments that are not a subcommand's parameters: where and how it writes
_NOT_PARAMETERS = ("command", "func", "out", "format", "transcript")


def _manifest(command: str, parameters: dict, result: dict) -> dict:
    digest = hashlib.sha256(
        json.dumps(result, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    ).hexdigest()
    return {
        "command": command,
        "parameters": parameters,
        "rng_seed": parameters.get("seed"),
        "version": _version(),
        "checksum": digest,
    }


def _emit(result: dict, args, text_renderer) -> None:
    """Write the result as JSON, under its manifest, or as text; the manifest
    names the subcommand and its parsed parameters, in parser order."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    doc = {
        "schema": SCHEMA_ID,
        "manifest": _manifest(args.command, parameters, result),
        "result": result,
    }
    if args.format == "json":
        output = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        output = text_renderer(result) + "\n"
    _write([output.encode()], args.out)


def _check_output_paths(args) -> None:
    """Reject an --out or --transcript path that cannot be created as a file,
    or the two naming one file, before any work is done, so a bad path leaves
    no other output behind."""
    for option in ("out", "transcript"):
        path = getattr(args, option, None)
        if path and os.path.isdir(path):
            reason = errno.EISDIR
        elif path and not os.path.isdir(os.path.dirname(path) or "."):
            reason = errno.ENOENT
        else:
            continue
        raise ValidationError(f"cannot write --{option} {path!r}: {os.strerror(reason)}")
    out, transcript = getattr(args, "out", None), getattr(args, "transcript", None)
    if out and transcript and os.path.realpath(out) == os.path.realpath(transcript):
        raise ValidationError(f"--out {out!r} and --transcript {transcript!r} name the same file")


def _write(pieces, out: str | None) -> None:
    """Write byte pieces to the --out file, or to stdout's bytes under any locale."""
    if out:
        try:
            with open(out, "wb") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.buffer.writelines(pieces)


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
        "alice_phases": _phases_out(basis.phase_tables[0]),
        "bob_phases": _phases_out(basis.phase_tables[1]),
    }

    def render(r):
        return (
            f"d = {r['d']}  state = {r['state']}\n"
            f"violation  v = {r['violation']:.4f}\n"
            f"reference  v = {r['reference_value']:.4f}"
        )

    _emit(result, args, render)
    return EXIT_OK


def _phases_out(table) -> list:  # rows 0 and d - 1: the generators X1 and X2
    return [[[z.real, z.imag] for z in table[row]] for row in (0, -1)]


def cmd_simulate(args) -> int:
    d = args.d
    if not 1 <= args.rounds <= MAX_ROUNDS:
        raise ValidationError(f"--rounds must be in [1, {MAX_ROUNDS}], got {args.rounds}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    state = parse_state(args.state, d)
    config = protocol.ProtocolConfig(
        state=state,
        noise=args.noise,
        theta=parse_theta(args.theta),
        rounds=args.rounds,
        rng_seed=args.seed,
        mode=args.mode,
    )
    if args.format == "csv":  # csv output is the transcript alone: no summary, no estimate
        transcript, result = protocol.sample_rounds(config), {}
    else:
        transcript, summary = protocol.run_protocol(config)
        result = {
            "d": d,
            "mode": config.mode,
            "rounds": config.rounds,
            "noise": config.noise,
            "sift_rate": summary.sift_rate,
            "agreement_rate": summary.agreement_rate,
            "agreement_defined": summary.agreement_rate is not None,
            "key_length": len(summary.key_alice),
        }
        if config.check is not None:
            v_hat, stderr = protocol.estimate_violation(transcript, config.check)
            analytic = bell.violation(state, config.check, config.settings)
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
        _write(protocol._csv_chunks(transcript), args.out)
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

    _emit(result, args, render)
    return EXIT_OK


def cmd_security(args) -> int:
    try:
        ds = [int(x) for x in args.d_list.split(",")] if args.d_list is not None else [3, 4, 5]
    except ValueError:
        raise ValidationError(
            f"--d-list must be comma-separated integers, got {args.d_list!r}"
        ) from None
    repeated = [d for i, d in enumerate(ds) if d in ds[:i]]
    if repeated:
        raise ValidationError(f"--d-list repeats d = {repeated[0]}")
    table = security.criterion_table()
    reports = [security.comparison_report(d) for d in ds]
    result = {"criterion_table": table, "comparisons": [r.to_dict() for r in reports]}

    def render(r):
        return f"{security.criterion_table_text()}\n\n{security.comparison_table_text(reports)}"

    _emit(result, args, render)
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

    _emit(result, args, render)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


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

    _emit(result, args, render)
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
    p.add_argument("--mode", choices=list(protocol.MODES), default=protocol.HDDEB_MODE)
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
        _check_output_paths(args)
        return args.func(args)
    except protocol.InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
