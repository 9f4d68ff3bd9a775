import json
import os
import subprocess
import sys
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from quditbell import bell, cli, protocol
from quditbell.algebra import maximally_entangled
from quditbell.bell import BasisAssignment, builtin_operator, table_convention
from quditbell.ditter import PhaseVector, party_phase_table

from dense_oracle import dense_violation, noisy_density


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    path = resources.files("quditbell") / "schemas" / "output-v1.json"
    return json.loads(path.read_text())


def validate(doc):
    jsonschema.validate(doc, load_schema())


def test_violation_text_output(capsys):
    code, out, _ = run_cli(capsys, "violation", "--d", "3", "--state", "psi3", "--optimize")
    assert code == 0
    assert "v = 1.5052" in out
    assert "1.5050" in out


def test_violation_json_validates_against_schema(capsys):
    code, out, _ = run_cli(
        capsys, "violation", "--d", "5", "--state", "psi5", "--optimize", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert abs(doc["result"]["violation"] - 1.574) < 5e-3
    assert doc["manifest"]["command"] == "violation"


def test_violation_fully_mixed_state(capsys):
    code, out, _ = run_cli(capsys, "violation", "--d", "3", "--state", "mixed:1.0")
    assert code == 0
    assert "v = 0.0000" in out


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("noise", ["0", "0.3", "1"])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_violation_mixed_state_matches_dense_route(d, noise, optimize, capsys):
    """mixed:N reports (1 - N) v_pure; the dense noisy density matrix,
    evaluated in the reported basis, must give the same value."""
    argv = ["violation", "--d", str(d), "--state", f"mixed:{noise}", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, *(["--optimize"] if optimize else []))
    assert code == 0
    r = json.loads(out)["result"]

    def table(phases):
        generators = (PhaseVector(d, [complex(re, im) for re, im in g]) for g in phases)
        return party_phase_table(*generators)

    tables = table(r["alice_phases"]), table(r["bob_phases"])
    basis = BasisAssignment(tables, table_convention(d))
    rho = noisy_density(maximally_entangled(d), float(noise))
    assert abs(r["violation"] - dense_violation(rho, builtin_operator(d), basis)) < 1e-12


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_mixed_state_outside_violation_exits_2(command, capsys):
    code, out, err = run_cli(capsys, command, "--d", "32", "--state", "mixed:0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unsupported_dimension_exits_2(capsys):
    code, _, err = run_cli(capsys, "violation", "--d", "7", "--state", "ghz")
    assert code == 2
    assert "error" in err


def test_bad_state_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "violation", "--d", "3", "--state", "nonsense")
    assert code == 2
    assert "nonsense" in err


def test_state_dimension_mismatch_exits_2(capsys):
    code, _, err = run_cli(capsys, "violation", "--d", "4", "--state", "psi3")
    assert code == 2


def test_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": 3, "deltas": [[1, 0], [1, 0], [1, 0]]}))
    code, out, _ = run_cli(capsys, "spectrum", "--d", "3", "--state", str(path))
    assert code == 0
    assert "P(k+k'=0 mod d) = 1.0000" in out


@pytest.mark.parametrize("deltas", [[[1e-200, 0], [0, 0], [0, 0]], [[1e-160, 0], [1e-160, 0], [0, 0]]])
def test_state_file_with_tiny_coefficients(deltas, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": 3, "deltas": deltas}))
    code, out, err = run_cli(capsys, "violation", "--d", "3", "--state", str(path))
    assert code == 0
    assert err == "" and "v = " in out


@pytest.mark.parametrize("command", ["spectrum", "simulate"])
def test_state_file_with_a_coefficient_whose_modulus_overflows(command, tmp_path, capsys):
    """|1.7e308 + 1.7e308i| overflows a float; the state still normalizes, with no
    numpy warning (one would fail the test)."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": 2, "deltas": [[1.7e308, 1.7e308], [1, 0]]}))
    code, out, err = run_cli(capsys, command, "--d", "2", "--state", str(path))
    assert code == 0
    assert err == "" and out.startswith("d = 2")


@pytest.mark.parametrize("command", ["spectrum", "simulate"])
def test_state_file_with_an_integer_too_large_for_a_float_exits_2(command, tmp_path, capsys):
    """400 digits overflow a float; 5000 pass int()'s digit limit, whose own
    message once reached the user ("... use sys.set_int_max_str_digits()")."""
    path = tmp_path / "state.json"
    for digits in (400, 5000):
        path.write_text('{"d": 2, "deltas": [[' + "9" * digits + ', 0], [1, 0]]}')
        code, out, err = run_cli(capsys, command, "--d", "2", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: state file {str(path)!r} has a number too large for a float\n"
        assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("command", ["spectrum", "simulate", "violation"])
def test_state_file_nested_too_deeply_exits_2(command, tmp_path, capsys):
    """100 000 nested arrays exceed the JSON decoder's recursion limit; the
    RecursionError once reached the user as a 28-line traceback."""
    path = tmp_path / "state.json"
    path.write_text('{"d": 3, "deltas": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, command, "--d", "3", "--state", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: state file {str(path)!r} is nested too deeply to parse\n"


def test_simulate_agreement_and_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--d", "3", "--rounds", "20000", "--noise", "0",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["result"]["agreement_rate"] == 1.0
    v = doc["result"]["violation_estimate"]
    se = doc["result"]["violation_stderr"]
    assert abs(v - doc["result"]["violation_analytic_same_basis"]) < 4 * se


def test_simulate_json_is_strict_json_when_no_round_is_sifted(capsys):
    """One NDEB round at d = 5 sifts nothing: the agreement rate is null, not NaN."""

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    code, out, err = run_cli(capsys, "simulate", "--d", "5", "--mode", "NDEB", "--rounds", "1",
                             "--seed", "0", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=reject)
    validate(doc)
    assert doc["result"]["agreement_rate"] is None and not doc["result"]["agreement_defined"]
    assert doc["manifest"]["parameters"] == {
        "d": 5, "state": "ghz", "theta": None, "rounds": 1, "noise": 0.0, "seed": 0, "mode": "NDEB"
    }


def test_simulate_ndeb_at_d_4_is_not_scored(capsys):
    """NDEB's (4, 4) tables pass estimate_violation's shape check at d = 4; only its
    mode's check, None, keeps the run unscored."""
    code, out, err = run_cli(capsys, "simulate", "--d", "4", "--mode", "NDEB", "--format", "json")
    assert (code, err) == (0, "")
    assert not any(key.startswith("violation") for key in json.loads(out)["result"])


def test_simulate_psi5_agreement(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--d", "5", "--state", "psi5", "--rounds", "100000",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["agreement_rate"] - 0.68) < 0.02


def test_simulate_determinism_checksum(capsys):
    argv = ["simulate", "--d", "3", "--rounds", "5000", "--seed", "13", "--format", "json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["manifest"]["checksum"] == json.loads(out2)["manifest"]["checksum"]


def test_simulate_seed_defaults_to_0(capsys):
    argv = ["simulate", "--d", "3", "--rounds", "500", "--format", "json"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--seed", "0")


@pytest.mark.parametrize("argv", [
    "violation --d 3 --state psi3 --format json",
    "simulate --d 3 --rounds 500 --format json",
    "security --d-list 3 --format json",
    "lhv --d 3 --format json",
    "spectrum --d 5 --state psi5 --format json",
])
def test_json_output_is_indented_by_2_and_ends_in_a_newline(argv, capsys):
    """Pins each subcommand's layout (indent, key order, final newline), not its values."""
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_simulate_insufficient_rounds_exits_3(capsys):
    code, _, err = run_cli(capsys, "simulate", "--d", "3", "--rounds", "1", "--seed", "0")
    assert code == 3
    assert "basis pair" in err


def test_simulate_transcript_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--d", "3", "--rounds", "500", "--seed", "1",
        "--transcript", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,a,b,k,k'"
    assert len(lines) == 501


def test_simulate_csv_format_emits_transcript(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--d", "3", "--rounds", "100", "--seed", "1",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "round,a,b,k,k'"


def test_security_text(capsys):
    code, out, _ = run_cli(capsys, "security")
    assert code == 0
    assert "v < 1.5084" in out
    assert "v < 1.6071" in out
    assert "both" in out


def test_security_json_validates(capsys):
    code, out, _ = run_cli(capsys, "security", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    row5 = [c for c in doc["result"]["comparisons"] if c["d"] == 5][0]
    assert abs(row5["v_ndeb"] - 1.455) < 1e-9
    assert abs(row5["v_hddeb"] - 1.574) < 5e-3
    assert abs(row5["v_max_secure"] - 1.575) < 1e-3


def test_security_rejects_dimensions_outside_comparison(capsys):
    code, out, err = run_cli(capsys, "security", "--d-list", "7,9", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: comparison defined for d in 3..5, got 7\n"
    code, out, _ = run_cli(capsys, "security", "--d-list", "3,5", "--format", "json")
    assert code == 0
    assert [c["d"] for c in json.loads(out)["result"]["comparisons"]] == [3, 5]


def test_security_rejects_repeated_dimension(monkeypatch, capsys):
    from quditbell import security

    calls = []
    original = security.comparison_report
    monkeypatch.setattr(security, "comparison_report", lambda d: calls.append(d) or original(d))
    code, out, err = run_cli(capsys, "security", "--d-list", "3,5,3", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: --d-list repeats d = 3\n"
    assert calls == []


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
@pytest.mark.parametrize("d_list", ["3,x", "3,,4", "4.0", "3;5", ""])
def test_security_non_integer_d_list_exits_2(d_list, to_file, tmp_path, monkeypatch, capsys):
    from quditbell import security

    monkeypatch.setattr(security, "comparison_report", pytest.fail)  # rejected before any work
    out_path = tmp_path / "s.json"
    code, out, err = run_cli(capsys, "security", "--d-list", d_list, "--format", "json",
                             *(["--out", str(out_path)] if to_file else []))
    assert code == 2
    assert out == ""
    assert err == f"error: --d-list must be comma-separated integers, got {d_list!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_lhv_pass(capsys):
    for d in ("3", "4"):
        code, out, _ = run_cli(capsys, "lhv", "--d", d)
        assert code == 0
        assert "PASS" in out


def test_lhv_exits_1_when_its_check_fails(monkeypatch, tmp_path, capsys):
    polys = {key: list(poly) for key, poly in bell.BUILTIN_POLYS[4].items()}
    polys[next(iter(polys))][0] += 1
    monkeypatch.setitem(bell.BUILTIN_POLYS, 4, polys)
    code, out, err = run_cli(capsys, "lhv", "--d", "4")
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "") and cli.EXIT_CHECK_FAILED == 1
    assert "maximum = 1.0625000000" in out and "FAIL" in out
    path = tmp_path / "lhv.json"
    code, out, _ = run_cli(capsys, "lhv", "--d", "4", "--format", "json", "--out", str(path))
    assert (code, out) == (1, "")
    doc = json.loads(path.read_text())  # the document is still written
    validate(doc)
    assert doc["result"]["pass"] is False


def test_lhv_json(capsys):
    code, out, _ = run_cli(capsys, "lhv", "--d", "3", "--format", "json")
    doc = json.loads(out)
    validate(doc)
    assert doc["result"]["pass"] is True
    assert abs(doc["result"]["lhv_max"] - 1.0) < 1e-9


def test_spectrum_psi5(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--d", "5", "--state", "psi5")
    assert code == 0
    assert "P(k+k'=0 mod d) = 0.6800" in out
    assert "warning" in out
    for d, state, perfect in [("5", "psi5", False), ("3", "ghz", True), ("5", "ghz", True)]:
        code, out, _ = run_cli(capsys, "spectrum", "--d", d, "--state", state, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["perfect_correlation"] is perfect


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "lhv", "--d", "3", "--format", "json", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    validate(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "argv,path,message",
    [
        (["violation", "--d", "3", "--out"], "missing/x.json", "No such file or directory"),
        (
            ["simulate", "--d", "3", "--rounds", "2000", "--transcript"],
            "missing/t.csv",
            "No such file or directory",
        ),
        (["security", "--format", "json", "--out"], ".", "Is a directory"),
    ],
    ids=["violation-out", "simulate-transcript", "security-out-directory"],
)
def test_unwritable_output_path_exits_2(argv, path, message, tmp_path, capsys):
    code, out, err = run_cli(capsys, *argv, str(tmp_path / path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["simulate", "violation", "spectrum"])
def test_non_finite_theta_exits_2(command, theta, capsys):
    argv = [command, "--d", "3", f"--theta={theta}"]
    if command == "spectrum":  # its result does not depend on theta: no --theta option
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --theta" in capsys.readouterr().err
        return
    if command == "simulate":
        argv += ["--rounds", "2000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--theta must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lhv", "--d", "3"],
        ["violation", "--d", "3"],
        ["security"],
        ["spectrum", "--d", "3"],
    ],
)
def test_csv_format_outside_simulate_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_simulate_csv_format_needs_no_estimate(capsys):
    """5 rounds cannot cover the 9 basis pairs of the d = 3 estimate, but the
    csv output is the transcript alone."""
    code, out, err = run_cli(capsys, "simulate", "--d", "3", "--rounds", "5", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "round,a,b,k,k'"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize(
    "bad,good,message",
    [
        ("--out", "--transcript", "No such file or directory"),
        ("--transcript", "--out", "No such file or directory"),
        ("--out", "--transcript", "Is a directory"),
    ],
    ids=["missing-out", "missing-transcript", "out-is-directory"],
)
def test_simulate_bad_output_path_writes_nothing(bad, good, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(protocol, "run_protocol", pytest.fail)  # rejected before any work
    bad_path = tmp_path if message == "Is a directory" else tmp_path / "missing" / "x"
    good_path = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--d", "3", "--rounds", "2000", "--format", "json",
        bad, str(bad_path), good, str(good_path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {bad} ") and err.count("\n") == 1
    assert message in err
    assert not good_path.exists()


@pytest.mark.parametrize("alias", ["t.out", "./t.out"], ids=["same-path", "dot-slash-alias"])
def test_simulate_out_and_transcript_naming_one_file_exits_2(alias, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(protocol, "run_protocol", pytest.fail)  # rejected before any work
    code, out, err = run_cli(
        capsys, "simulate", "--d", "3", "--rounds", "20", "--format", "json",
        "--out", "t.out", "--transcript", alias,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert "name the same file" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt, summaries", [("csv", 0), ("json", 1)])
def test_simulate_summarizes_only_outside_csv(fmt, summaries, monkeypatch, capsys):
    """The csv output is the transcript alone, so a csv run makes no summary;
    its bytes are the CSV of run_protocol's transcript."""
    calls = []
    summarize = protocol.summarize
    monkeypatch.setattr(protocol, "summarize", lambda t: calls.append(t) or summarize(t))
    code, out, _ = run_cli(capsys, "simulate", "--d", "5", "--state", "psi5", "--rounds", "2000",
                           "--seed", "4", "--format", fmt)
    assert code == 0
    assert len(calls) == summaries
    if fmt == "csv":
        config = protocol.ProtocolConfig(state=cli.parse_state("psi5", 5), rounds=2000,
                                         rng_seed=4)
        assert out == protocol.transcript_csv_string(protocol.run_protocol(config)[0])


def test_simulate_exit_3_writes_no_file(tmp_path, capsys):
    out_path, transcript_path = tmp_path / "x.json", tmp_path / "t.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--d", "3", "--rounds", "5", "--format", "json",
        "--out", str(out_path), "--transcript", str(transcript_path),
    )
    assert code == 3 and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rounds", [cli.MAX_ROUNDS + 1, 10**12, 0, -5])
def test_simulate_rounds_out_of_range_exits_2(rounds, monkeypatch, capsys):
    monkeypatch.setattr(protocol, "run_protocol", pytest.fail)  # must not allocate
    code, out, err = run_cli(capsys, "simulate", "--d", "3", "--rounds", str(rounds))
    assert code == 2
    assert out == ""
    assert err == f"error: --rounds must be in [1, {cli.MAX_ROUNDS}], got {rounds}\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_simulate_negative_seed_exits_2(seed, fmt, to_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(protocol, "sample_rounds", pytest.fail)  # rejected before any work
    code, out, err = run_cli(
        capsys, "simulate", "--d", "3", "--rounds", "20", "--seed", str(seed), "--format", fmt,
        "--transcript", str(tmp_path / "t.csv"), *(["--out", str(tmp_path / "o")] if to_file else []),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --seed must be a non-negative integer, got {seed}\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_csv_format_with_transcript_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--d", "3", "--rounds", "100", "--seed", "1",
        "--format", "csv", "--transcript", str(path),
    )
    assert code == 0
    assert out == path.read_bytes().decode()


def test_simulate_csv_format_streams_to_out_file(tmp_path, capsys):
    """--format csv --out writes, chunk by chunk, the bytes of --transcript;
    70 000 rounds cross one 65 536-round chunk boundary."""
    out, transcript = tmp_path / "a.csv", tmp_path / "b.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--d", "5", "--state", "psi5", "--rounds", "70000", "--seed", "3",
        "--format", "csv", "--out", str(out), "--transcript", str(transcript),
    )
    assert code == 0 and stdout == ""
    assert out.read_bytes() == transcript.read_bytes()
    assert out.read_bytes().count(b"\r\n") == 70_001


def test_simulate_builds_its_basis_once(monkeypatch, capsys):
    """run_protocol and the analytic violation share the config's basis, so
    each party's phase table is built once per run."""
    calls = []
    original = bell.party_phase_table

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bell, "party_phase_table", counting)
    code, _, _ = run_cli(capsys, "simulate", "--d", "5", "--state", "psi5", "--rounds", "2000")
    assert code == 0
    assert len(calls) == 2  # one per party


@pytest.mark.parametrize("d", ["1", "33", "300"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mode", "NDEB", "--rounds", "5"],
        ["simulate", "--state", "mixed:0.1"],
        ["spectrum", "--state", "mixed:0.1"],
        ["violation", "--state", "mixed:0.1"],
        ["lhv"],
    ],
)
def test_dimension_out_of_range_exits_2(argv, d, capsys):
    code, out, err = run_cli(capsys, *argv, "--d", d)
    assert code == 2
    assert out == ""
    assert err == f"error: --d must be in [2, {cli.MAX_DIMENSION}], got {d}\n"


def test_simulate_at_max_dimension(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--d", str(cli.MAX_DIMENSION), "--rounds", "500",
        "--noise", "0.5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["result"]["d"] == cli.MAX_DIMENSION


@pytest.mark.parametrize(
    "payload",
    [
        '{"d": 3}',
        '{"d": 3, "deltas": 1.0}',
        '[[1, 0], [1, 0], [1, 0]]',
        '{"d": 3, "deltas": [[1, 0], [1], [1, 0]]}',
        '{"d": 3, "deltas": [[1, 0], ["1", 0], [1, 0]]}',
        '{"d": 3, "deltas": [[1, 0], [true, 0], [1, 0]]}',
        '{"d": 3, "deltas": [1, 1, 1]}',
        '{"d": 3, "deltas": [[NaN, 0], [1, 0], [1, 0]]}',
        '{"d": 3, "deltas": [[1, Infinity], [1, 0], [1, 0]]}',
    ],
)
def test_malformed_state_file_exits_2(payload, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(payload)
    code, out, err = run_cli(capsys, "spectrum", "--d", "3", "--state", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,state_file,message",
    [
        (["spectrum", "--d", "3"], b'{"d": 3, "deltas": [', "is not valid JSON: "),
        (["spectrum", "--d", "3"], b'{"d": 3, "deltas": "\xff"}', "is not valid JSON: "),
        (["spectrum", "--d", "3"], b'{"d": 4, "deltas": [[1, 0]]}',
         "state file dimension 4 != --d 3"),
        (["violation", "--d", "3", "--state", "mixed:abc"], None,
         "bad noise fraction in 'mixed:abc'"),
        (["violation", "--d", "3", "--state", "mixed:1.5"], None,
         "noise fraction must be in [0, 1], got 1.5"),
        (["violation", "--d", "3", "--theta", "abc"], None,
         "--theta must be a real angle in radians, got 'abc'"),
    ],
    ids=["not-json", "not-utf8", "dimension", "mixed-not-a-number", "mixed-out-of-range",
         "theta-not-a-number"],
)
def test_validation_message(argv, state_file, message, tmp_path, capsys):
    if state_file is not None:
        path = tmp_path / "state.json"
        path.write_bytes(state_file)
        argv = [*argv, "--state", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_out_file_is_utf8_under_an_ascii_locale(tmp_path, capsys):
    """spectrum's text holds an em dash; under LC_ALL=C without UTF-8 mode, --out
    once failed to encode it, exited 2 and left an empty file behind, and stdout
    failed the same way and printed nothing.  Both now get the UTF-8 bytes."""
    path = tmp_path / "ascii.txt"
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
    argv = ["spectrum", "--d", "5", "--state", "psi5"]
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "utf8.txt")) == (0, "", "")
    expected = (tmp_path / "utf8.txt").read_bytes()
    assert "\u2014".encode() in expected
    for out in (["--out", str(path)], []):  # the file, then stdout
        done = subprocess.run([sys.executable, "-m", "quditbell.cli", *argv, *out],
                              env=env, capture_output=True)
        assert (done.returncode, done.stderr, done.stdout) == (0, b"", b"" if out else expected)
    assert path.read_bytes() == expected


SECURITY_TEXT = """\
   d       F_A   criterion
   3    0.7753  v < 1.5084
   4    0.7342  v < 1.5489
   5    0.7080  v < 1.5748
   6    0.6898  v < 1.5930
   7    0.6762  v < 1.6071
   8    0.6657  v < 1.6183
   9    0.6573  v < 1.6274
 inf    0.5000  v < 2.0000

  d    v_ndeb   v_hddeb  criterion   N_ndeb   N_hddeb  secure
  3    1.4360    1.5052     1.5084   0.3036    0.3356    both
  4    1.4480    1.5457     1.5489   0.3094    0.3531    both
  5    1.4550    1.5740     1.5748   0.3127    0.3647    both
"""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_security_optimizes_once_per_dimension(fmt, monkeypatch, capsys):
    from quditbell import security

    calls = []
    original = security.optimize_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(security, "optimize_basis", counting)
    code, out, _ = run_cli(capsys, "security", "--format", fmt)
    assert code == 0
    assert len(calls) == 3
    if fmt == "text":
        assert out == SECURITY_TEXT
