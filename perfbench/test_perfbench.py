"""Unit tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""
import json
import os
import statistics

import jsonschema
import pytest

import spans
import worker
import workloads
from checks import canonical_checksum, document_errors, within_sigma

LIB = worker.import_library()


def make_span(i, start, end, parent=None):
    return spans.Span(i, f"s{i}", start, end, parent, op=0)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        make_span(0, 0.0, 10.0),
        make_span(1, 1.0, 3.0, parent=0),
        make_span(2, 2.0, 4.0, parent=0),  # overlaps span 1: [1, 4) is covered once
        make_span(3, 5.0, 6.0, parent=0),
        make_span(4, 5.5, 6.0, parent=3),
        make_span(5, 9.0, 12.0, parent=0),  # runs past its parent: only [9, 10) counts
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(3.0)


def test_recorder_links_parents_ops_and_counts():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1, count=lambda args, result: {"n": result})
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    rec.op = 7
    assert outer(1) == 3
    names = [s.name for s in rec.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert all(s.op == 7 and s.end >= s.start for s in rec.spans)
    assert [s.counts for s in rec.spans] == [None, {"n": 2}, {"n": 3}]


def test_same_name_nesting_is_one_span_and_errors_close_spans():
    rec = spans.Recorder()

    def recurse(n):
        return 0 if n == 0 else wrapped(n - 1)

    wrapped = rec.wrap("r", recurse)
    wrapped(3)
    assert len(rec.spans) == 1

    boom = rec.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert rec.spans[-1].end >= rec.spans[-1].start
    with rec.span("after") as s:
        pass
    assert s.parent is None


def test_spans_are_written_once_as_json_lines(tmp_path):
    rec = spans.Recorder()
    with rec.span("a"):
        with rec.span("b"):
            pass
    path = tmp_path / "spans.jsonl"
    rec.write(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["parent"]) for r in rows] == [("a", None), ("b", 0)]


def test_instrument_records_layers_and_restores_the_library(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    original = LIB.bell.violation
    rec = spans.Recorder()
    with spans.instrument(rec, LIB):
        assert LIB.bell.violation is not original
        rc = LIB.cli.main(["violation", "--d", "3", "--state", "psi3", "--optimize",
                           "--format", "json", "--out", "v.json"])
    assert rc == 0
    assert LIB.bell.violation is original
    assert LIB.algebra.REFERENCE_STATES["psi3"] is LIB.algebra.psi3
    names = {s.name for s in rec.spans}
    assert {"algebra.state_prep", "bell.optimize_basis", "bell.violation",
            "bell.monomial_observables"} <= names
    n_candidates = len(LIB.bell.assignment_candidates(3))
    assert sum(s.name == "bell.violation" for s in rec.spans) == n_candidates


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_the_highest_ladder_percentile_with_ten_beyond(n, expected):
    got = spans.tail([float(i) for i in range(n)])
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(v > value for v in range(n)) >= spans.TAIL_MIN_BEYOND


def test_fixed_tail_percentile_is_the_ladder_choice_at_baseline():
    with open(os.path.join(worker.HERE, "baseline.json")) as fh:
        baseline = json.load(fh)["workloads"]
    for name, p in workloads.TAIL_PERCENTILE.items():
        n = int(statistics.median(baseline[name]["op_samples"]))
        assert spans.tail([float(i) for i in range(n)])[0] == p


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert spans.percentile(values, 50) == 3.0
    assert spans.percentile(values, 75) == 4.0
    assert spans.percentile(values, 100) == 5.0


def test_speed_factor_brings_times_to_the_baseline_speed_and_ignores_a_stray():
    r = worker.REF_S
    assert worker.speed_factor([r, r, r]) == pytest.approx(1.0)
    assert worker.speed_factor([2 * r, 2 * r, 2 * r, 9 * r]) == pytest.approx(0.5)
    assert worker.reference() > 0.0


@pytest.fixture
def validator():
    with open(worker.SCHEMA) as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def run_op(op):
    out = op.run()
    return out, op.check(out)


def test_checker_accepts_a_good_result_and_rejects_a_corrupted_one(tmp_path, monkeypatch,
                                                                 validator):
    monkeypatch.chdir(tmp_path)
    ctx = workloads.Context(LIB, validator, {})
    (op,) = [o for o in workloads.build("bell-analysis", 0, ctx) if o.name == "lhv d=3"]
    out, err = run_op(op)
    assert err is None
    doc = json.loads((tmp_path / "lhv3.json").read_text())
    pinned = canonical_checksum(doc["result"])
    assert document_errors(doc, validator, pinned) is None

    doc["result"]["lhv_max"] = 1.5
    (tmp_path / "lhv3.json").write_text(json.dumps(doc))
    assert "checksum" in op.check(out)

    doc["manifest"]["checksum"] = canonical_checksum(doc["result"])
    (tmp_path / "lhv3.json").write_text(json.dumps(doc))
    assert "exceeds" in op.check(out)
    assert "pinned" in document_errors(doc, validator, pinned)

    doc["schema"] = "not-a-schema"
    assert "schema" in document_errors(doc, validator, None)
    assert op.check(2) == "exit code 2"


def test_simulate_check_rejects_a_wrong_rate_and_a_changed_transcript(tmp_path, monkeypatch,
                                                                      validator):
    monkeypatch.chdir(tmp_path)
    ctx = workloads.Context(LIB, validator, {})
    op = workloads.build("simulate-long", 0, ctx)[0]
    out, err = run_op(op)
    assert err is None
    doc_path, csv_path = (tmp_path / f for f in op.files)
    doc = json.loads(doc_path.read_text())
    doc["result"]["sift_rate"] = 0.5
    doc["manifest"]["checksum"] = canonical_checksum(doc["result"])
    doc_path.write_text(json.dumps(doc))
    assert "sift_rate" in op.check(out)

    out, err = run_op(op)
    assert err is None
    ctx = workloads.Context(LIB, validator, {op.name: {"transcript": "0" * 64}})
    pinned_op = workloads.build("simulate-long", 0, ctx)[0]
    assert "transcript" in pinned_op.check(out)
    rows = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(rows[:-1]))
    assert "row count" in op.check(out)


def test_within_sigma():
    assert within_sigma("x", 1.0, 1.0, 0.0) is None
    assert within_sigma("x", 0.9, 1.0, 0.0) is not None
    assert within_sigma("x", 0.96, 1.0, 0.01) is None
    assert within_sigma("x", float("nan"), 1.0, 0.01) is not None


def test_workloads_are_a_function_of_the_seed():
    ctx = workloads.Context(LIB, None, {})
    for name in ("simulate-long", "simulate-sweep", "bell-analysis"):
        a = [op.name for op in workloads.build(name, 3, ctx)]
        assert a == [op.name for op in workloads.build(name, 3, ctx)]
        assert len(set(a)) == len(a)
    assert ([op.name for op in workloads.build("simulate-sweep", 3, ctx)]
            != [op.name for op in workloads.build("simulate-sweep", 4, ctx)])
