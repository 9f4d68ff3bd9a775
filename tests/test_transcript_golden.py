"""Byte-level goldens of the simulator and analytic output, and a per-round
oracle.

The goldens pin the sha256 of the transcript CSV, of
``TranscriptSummary.to_json()`` and of the CLI ``result`` payload, plus the
exact ``repr`` of ``estimate_violation``, for four fixed configurations.
They were captured from the per-round implementation that the columnar
``Transcript`` replaced, so they hold the columnar code to the old bytes.
The analytic path (``violation``, ``security``, ``theta_scan``) is pinned the
same way, with values captured before the observable tables were cached per
basis assignment.
Floating-point results depend on numpy and the CPU features it dispatches
on, so the goldens are compared only on the platform that recorded them; the
oracle tests below, the hand-made and the hypothesis-drawn, run everywhere.
"""
import hashlib
import json
import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditbell import cli
from quditbell.algebra import (
    DimensionMismatchError,
    maximally_entangled,
    psi3,
    psi5,
    roots_of_unity,
)
from quditbell.bell import builtin_operator, classical_norm, rotation_phase, theta_scan
from quditbell.protocol import (
    HDDEB_MODE,
    NDEB_MODE,
    InsufficientDataError,
    ProtocolConfig,
    Transcript,
    estimate_violation,
    run_protocol,
    sift,
    summarize,
    transcript_csv_string,
)

CASES = {
    "criterion-10": dict(d=3, state=psi3, noise=0.2, rounds=100_000, seed=10, mode=HDDEB_MODE),
    "criterion-11": dict(
        d=4, state=lambda: maximally_entangled(4), noise=0.1, rounds=5_000, seed=123,
        mode=HDDEB_MODE,
    ),
    "psi5-hdDEB": dict(d=5, state=psi5, noise=0.2, rounds=24_000, seed=2015, mode=HDDEB_MODE),
    "ghz9-NDEB": dict(
        d=9, state=lambda: maximally_entangled(9), noise=0.3, rounds=5_000, seed=9,
        mode=NDEB_MODE,
    ),
}

GOLDEN_PLATFORM = "python 3.11; numpy 2.4.6; cpu e905ca5f201d"

# name -> (transcript CSV sha256, summary JSON sha256, repr of estimate_violation)
GOLDEN = {
    "criterion-10": (
        "0a8bac6271169bb99b4ff48a1cbd02e111d0379867c396d38be98cdb557080b2",
        "acac567cbf7762fecf7db16a336289be2995eb2bc90a52deb7136f0f3dfade23",
        "(0.7952891354893192, 0.00887802807654848)",
    ),
    "criterion-11": (
        "208a14c127e46a2558235cb5b6a6eb840bc99955ff1c946acf1fc9b4961aad5e",
        "0f08bb6b4aec10c61be8803cbea4b5532509c7c03ddbfe06e1f3768295ec295e",
        "(0.8170714628081057, 0.03595519018541286)",
    ),
    "ghz9-NDEB": (
        "93a6dd9ba3e0f1ccc72c2d1f6ac069222b461bfe67406f5ce567fe68531badbb",
        "1e530bdf03f54226f70f382f58b5a03740b047d1c9422e3387d111fc50b56fa4",
        None,
    ),
    "psi5-hdDEB": (
        "da93dbbb7de4963fe42378cdc6c4d68c0e34b28ddcab7da8ca5e1606abf1b602",
        "2ac21198e5408292059af427644204cf482786191a8946a9229c13c078c41f34",
        "(0.906948531139341, 0.026043250056267418)",
    ),
}

# CLI argv -> manifest checksum (sha256 of the canonical ``result`` JSON)
CLI_GOLDEN = {
    "simulate --d 5 --state psi5 --noise 0.2 --rounds 3000 --seed 7 --format json":
        "8f1cbd13fe6336143fc6cb8252b963d8895fefdb4f95db28b94a985a80c86c7a",
    "simulate --d 9 --mode NDEB --noise 0.3 --rounds 2000 --seed 3 --format json":
        "2ea426832e0936017d4703d4f6e2621cb41b9fd564b8d2b1a8493750871b10ed",
    "simulate --d 3 --state psi3 --rounds 1000 --seed 1 --format json":
        "2c307f8ffc14105c440506fa86efb46c8e3523dc656a98841d480f6102beb8e2",
    "violation --d 3 --state psi3 --optimize --format json":
        "ed051cade29bf6071d8a5bcf037c8ff4f2f364a17c2104463b74ffceab2de084",
    "violation --d 4 --state psi4 --optimize --format json":
        "5f7420ad19e80647691916a8e4ad34a9050d557ab013d98eccdb16b1551d4fbb",
    "violation --d 5 --state psi5 --optimize --format json":
        "cdf6d2c74745b064a87d51f86528801241b18803081ee72db1d463f49292a98f",
    "violation --d 4 --theta 0.3 --format json":
        "e691eccf024b884d6ee4d5b4837924638d17a14b14ace1c380ea2c277785125d",
    "security --format json":
        "7c13e39ee5aa50aa7f6b1f975b1a142ab31a02bd19262761a029fca5df95b407",
}

# repr of theta_scan(psi3(), builtin_operator(3), num_points=300)
THETA_SCAN_GOLDEN = "((0.869149881167184+0.49454876813825954j), 1.505578603970351)"


def platform_fingerprint() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    features = ",".join(sorted(k for k, v in __cpu_features__.items() if v))
    cpu = hashlib.sha256(features.encode()).hexdigest()[:12]
    py = ".".join(platform.python_version_tuple()[:2])
    return f"python {py}; numpy {np.__version__}; cpu {cpu}"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def config_of(case: dict) -> ProtocolConfig:
    return ProtocolConfig(
        d=case["d"], state=case["state"](), noise=case["noise"], rounds=case["rounds"],
        rng_seed=case["seed"], mode=case["mode"],
    )


def fingerprint(case: dict) -> tuple[str, str, str | None]:
    transcript, summary = run_protocol(config_of(case))
    estimate = None
    if case["mode"] == HDDEB_MODE:
        estimate = repr(estimate_violation(transcript, builtin_operator(case["d"])))
    return sha(transcript_csv_string(transcript)), sha(summary.to_json()), estimate


def cli_checksum(argv: list[str], capsys) -> str:
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)["manifest"]["checksum"]


on_golden_platform = pytest.mark.skipif(
    platform_fingerprint() != GOLDEN_PLATFORM,
    reason="goldens are recorded for " + GOLDEN_PLATFORM,
)


@on_golden_platform
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    assert fingerprint(CASES[name]) == GOLDEN[name]


@on_golden_platform
@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_golden_checksum(argv, capsys):
    assert cli_checksum(argv.split(), capsys) == CLI_GOLDEN[argv]


@on_golden_platform
def test_theta_scan_golden():
    assert repr(theta_scan(psi3(), builtin_operator(3), num_points=300)) == THETA_SCAN_GOLDEN


# --- per-round reference implementation (the pre-columnar code) -----------

def rows(transcript: Transcript) -> list[tuple]:
    """Per-round tuples (a, b, k, k', Alice's label, Bob's label)."""
    x = transcript.alice_labels[transcript.a, transcript.k]
    y = transcript.bob_labels[transcript.b, transcript.kp]
    columns = (transcript.a, transcript.b, transcript.k, transcript.kp, x, y)
    return list(zip(*(c.tolist() for c in columns)))


def oracle(rounds: list[tuple], d: int, t=None):
    key_a = [k for a, b, k, kp, x, y in rounds if a == b]
    key_b = [(d - kp) % d for a, b, k, kp, x, y in rounds if a == b]
    agree = sum(x == y for x, y in zip(key_a, key_b)) / len(key_a) if key_a else float("nan")
    by_pair: dict[tuple[int, int], list[complex]] = {}
    sums: dict[tuple[int, int], complex] = {}
    for a, b, k, kp, x, y in rounds:
        by_pair.setdefault((a, b), []).append(x * y)
        sums[(a, b)] = sums.get((a, b), 0j) + by_pair[(a, b)][-1]
    counts = {p: len(s) for p, s in by_pair.items()}
    sums = {p: sums[p] / counts[p] for p in sums}
    if t is None or any(m.basis_pair not in by_pair for m in t.monomials):
        return key_a, key_b, agree, sums, counts, None
    v_hat, var = 0.0, 0.0
    for m in t.monomials:
        samples = np.asarray(by_pair[m.basis_pair])
        c = (rotation_phase(d) * m.coefficient * samples).real / classical_norm(d)
        v_hat += float(c.mean())
        var += float(c.var(ddof=1)) / len(c) if len(c) > 1 else 0.0
    return key_a, key_b, agree, sums, counts, (v_hat, float(np.sqrt(var)))


def columnar(transcript: Transcript, t=None):
    key_a, key_b, agree, _ = sift(transcript)
    summary = summarize(transcript)
    estimate = None
    if t is not None:
        try:
            estimate = estimate_violation(transcript, t)
        except InsufficientDataError:
            pass
    return (
        list(key_a), list(key_b), agree, summary.pair_correlations, summary.pair_counts,
        estimate,
    )


def same(x, y) -> bool:
    """Equality that also holds for NaN in the same place."""
    return repr(x) == repr(y)


@pytest.mark.parametrize(
    "d,mode,noise,rounds,seed",
    [
        (3, HDDEB_MODE, 0.2, 1, 0),
        (3, HDDEB_MODE, 0.0, 2, 1),
        (4, HDDEB_MODE, 0.1, 700, 5),
        (5, HDDEB_MODE, 0.2, 3_000, 6),
        (9, NDEB_MODE, 0.3, 500, 7),
    ],
)
def test_columnar_matches_per_round_oracle(d, mode, noise, rounds, seed):
    state = psi5() if d == 5 else maximally_entangled(d)
    config = ProtocolConfig(d=d, state=state, noise=noise, rounds=rounds, rng_seed=seed, mode=mode)
    transcript, summary = run_protocol(config)
    t = builtin_operator(d) if mode == HDDEB_MODE else None
    assert len(transcript) == rounds
    assert same(columnar(transcript, t), oracle(rows(transcript), d, t))
    assert summary.to_json() == summarize(transcript).to_json()


def label_table(d: int, conjugate: list[bool]) -> np.ndarray:
    """One row of omega^k per basis, conjugated (omega^{-k}) where asked."""
    w = roots_of_unity(d)
    return np.array([w.conj() if c else w for c in conjugate])


def test_no_round_sifted():
    alice = label_table(3, [False, True, False])
    bob = label_table(3, [True, False, True])
    # detector 0 under conjugate labels reads 1-0j, and (1-0j)(1-0j) = 1-0j
    assert repr(complex(alice[1, 0])) == repr(complex(bob[2, 0])) == "(1-0j)"
    a, b, k, kp = np.array([[0, 2, 1], [1, 0, 2], [2, 0, 0], [1, 1, 0]])
    transcript = Transcript(3, a, b, k, kp, alice, bob)
    assert same(columnar(transcript), oracle(rows(transcript), 3))
    summary = summarize(transcript)
    assert summary.sift_rate == 0.0 and not summary.agreement_defined


@st.composite
def random_transcripts(draw) -> Transcript:
    d = draw(st.integers(2, 9))
    # all d bases, and 300 rounds, often enough that estimate_violation
    # for d = 3..5 gets every basis pair it needs
    bases = st.just(d) | st.integers(1, d)
    n_a, n_b = draw(bases), draw(bases)
    n = draw(st.just(300) | st.integers(0, 300))
    # the columns come from a drawn seed: drawing every entry through
    # hypothesis made this test about 6x slower
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(bound: int) -> np.ndarray:
        return rng.integers(0, bound, size=n)

    def labels(n_bases: int) -> np.ndarray:
        return label_table(d, draw(st.lists(st.booleans(), min_size=n_bases, max_size=n_bases)))

    return Transcript(d, column(n_a), column(n_b), column(d), column(d), labels(n_a), labels(n_b))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(random_transcripts())
def test_columnar_matches_oracle_on_random_transcripts(transcript):
    d = transcript.d
    full = 3 <= d <= 5 and len(transcript.alice_labels) == len(transcript.bob_labels) == d
    t = builtin_operator(d) if full else None
    assert same(columnar(transcript, t), oracle(rows(transcript), d, t))


def test_transcript_columns_and_dimension_checks():
    transcript, _ = run_protocol(ProtocolConfig(d=5, state=psi5(), rounds=50, rng_seed=1))
    for column in (transcript.a, transcript.b, transcript.k, transcript.kp):
        assert column.dtype == np.uint8 and not column.flags.writeable
    with pytest.raises(DimensionMismatchError):
        estimate_violation(transcript, builtin_operator(3))


@pytest.mark.parametrize(
    "table",
    [np.ones((3, 2), dtype=complex), np.full((3, 3), np.nan + 0j), np.full((3, 3), 2 + 0j)],
    ids=["wrong-width", "nan", "modulus-2"],
)
def test_transcript_rejects_bad_label_tables(table):
    good = np.ones((3, 3), dtype=complex)
    one = np.zeros(1, dtype=int)
    for alice, bob in [(table, good), (good, table)]:
        with pytest.raises(ValueError, match="labels"):
            Transcript(3, one, one, one, one, alice, bob)


def test_transcript_rejects_bad_columns():
    labels = np.ones((3, 3), dtype=complex)
    one = np.zeros(1, dtype=int)
    for a, k in [(np.zeros((1, 1), dtype=int), one), (np.zeros(2, dtype=int), one)]:
        with pytest.raises(ValueError, match="one-dimensional and of equal length"):
            Transcript(3, a, one, k, one, labels, labels)
    for a, k in [(np.array([-1]), one), (np.array([3]), one), (one, np.array([3]))]:
        with pytest.raises(ValueError, match="out of range"):
            Transcript(3, a, one, k, one, labels, labels)
