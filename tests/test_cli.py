import json
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from quditbell import cli
from quditbell.algebra import maximally_entangled
from quditbell.bell import BasisAssignment, builtin_operator
from quditbell.ditter import PhaseVector

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

    def generators(phases):
        return tuple(PhaseVector(d, [complex(re, im) for re, im in g]) for g in phases)

    basis = BasisAssignment(1, generators(r["alice_phases"]), generators(r["bob_phases"]))
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


def test_lhv_pass(capsys):
    for d in ("3", "4"):
        code, out, _ = run_cli(capsys, "lhv", "--d", d)
        assert code == 0
        assert "PASS" in out


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


def test_simulate_csv_format_with_transcript_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--d", "3", "--rounds", "100", "--seed", "1",
        "--format", "csv", "--transcript", str(path),
    )
    assert code == 0
    assert out == path.read_bytes().decode()


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
