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
from quditbell.algebra import DimensionMismatchError, maximally_entangled, psi3, psi4, psi5
from quditbell.bell import BasisAssignment, BellOperator, builtin_operator, theta_scan
from quditbell.ditter import LabelConvention
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

from dense_oracle import (
    classical_norm, estimate_violation_loop, pair_correlations_loop, rotation_phase
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

# (state, num_points) -> repr of theta_scan(state(), builtin_operator(d), num_points),
# recorded before violation evaluated its monomials in stacked blocks
THETA_SCAN_GOLDENS = {
    (psi5, 160): "((0.9602936856769431+0.2789911060392293j), 1.589776818134293)",
    (psi4, 200): "((0.8924283781237179+0.4511890844418451j), 1.606707215965691)",
}

# d -> repr of theta_scan(psiD(), builtin_operator(d)) at its default 10 000 points,
# recorded before the scan evaluated its grid as stacks of bases
THETA_SCAN_DEFAULT_GOLDENS = {
    3: "((0.8696259367673307+0.49371118085530785j), 1.5055846065260794)",
    4: "((0.8920311462569964+0.4519739307829922j), 1.6067160891234296)",
    5: "((0.9600654814890272+0.27977539429557163j), 1.5897890853747023)",
}

# d -> sha256 of builtin_operator(d).to_json(), recorded from the hand-typed
# integer tables that the phase tables replaced
COEFFICIENT_JSON_GOLDEN = {
    3: "0dd635d661f4410ac68c62c348c60be8268a4f2178efb66044e3921e94bc34d8",
    4: "ff152869dc266b325a47aadf7acdb6bfa02907004f14a86d3fdd86399b111e6a",
    5: "a1e73eaae90669a73d0e5f2db7f025ff2a71938b4d0ba3606876b0f9b43e6f28",
}


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
        state=case["state"](), noise=case["noise"], rounds=case["rounds"],
        rng_seed=case["seed"], mode=case["mode"],
    )


def fingerprint(case: dict) -> tuple[str, str, str | None]:
    transcript, summary = run_protocol(config := config_of(case))
    estimate = None
    if config.check is not None:
        estimate = repr(estimate_violation(transcript, config.check))
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


@on_golden_platform
@pytest.mark.parametrize("state,num_points", THETA_SCAN_GOLDENS, ids=["psi5-160", "psi4-200"])
def test_theta_scan_goldens_at_d4_d5(state, num_points):
    d = state().d
    got = repr(theta_scan(state(), builtin_operator(d), num_points=num_points))
    assert got == THETA_SCAN_GOLDENS[(state, num_points)]


@on_golden_platform
@pytest.mark.parametrize("state", [psi3, psi4, psi5], ids=["psi3", "psi4", "psi5"])
def test_theta_scan_default_size_goldens(state):
    d = state().d
    assert repr(theta_scan(state(), builtin_operator(d))) == THETA_SCAN_DEFAULT_GOLDENS[d]


@on_golden_platform
@pytest.mark.parametrize("d", sorted(COEFFICIENT_JSON_GOLDEN))
def test_coefficient_table_golden(d):
    assert sha(builtin_operator(d).to_json()) == COEFFICIENT_JSON_GOLDEN[d]


# --- per-round reference implementation (the pre-columnar code) -----------

def rows(transcript: Transcript) -> list[tuple]:
    """Per-round tuples (a, b, k, k', Alice's label, Bob's label)."""
    labels = transcript.settings.label_convention.labels(transcript.d)
    x, y = labels[transcript.k], labels[transcript.kp]
    columns = (transcript.a, transcript.b, transcript.k, transcript.kp, x, y)
    return list(zip(*(c.tolist() for c in columns)))


def oracle(rounds: list[tuple], d: int, t=None):
    key_a = [k for a, b, k, kp, x, y in rounds if a == b]
    key_b = [(d - kp) % d for a, b, k, kp, x, y in rounds if a == b]
    agree = sum(x == y for x, y in zip(key_a, key_b)) / len(key_a) if key_a else None
    by_pair: dict[tuple[int, int], list[complex]] = {}
    sums: dict[tuple[int, int], complex] = {}
    for a, b, k, kp, x, y in rounds:
        by_pair.setdefault((a, b), []).append(x * y)
        sums[(a, b)] = sums.get((a, b), 0j) + by_pair[(a, b)][-1]
    counts = {p: len(s) for p, s in by_pair.items()}
    sums = {p: sums[p] / counts[p] for p in sums}
    terms = [] if t is None else [(p, complex(c)) for p, c in np.ndenumerate(t.coefficients) if c]
    if t is None or any(p not in by_pair for p, _ in terms):
        return key_a, key_b, agree, sums, counts, None
    v_hat, var = 0.0, 0.0
    for pair, coefficient in terms:
        samples = np.asarray(by_pair[pair])
        c = (rotation_phase(d) * coefficient * samples).real / classical_norm(d)
        v_hat += float(c.mean())
        var += float(c.var(ddof=1)) / len(c) if len(c) > 1 else 0.0
    return key_a, key_b, agree, sums, counts, (v_hat, float(np.sqrt(var)))


def columnar(transcript: Transcript, t=None):
    key_a, key_b, agree = sift(transcript)
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
    config = ProtocolConfig(state=state, noise=noise, rounds=rounds, rng_seed=seed, mode=mode)
    transcript, summary = run_protocol(config)
    t = config.check
    assert len(transcript) == rounds
    assert same(columnar(transcript, t), oracle(rows(transcript), d, t))
    assert summary.to_json() == summarize(transcript).to_json()


def all_ones_settings(bases: int, d: int, convention=LabelConvention.STANDARD) -> BasisAssignment:
    """bases all-ones rows of d phases per party, read with the given labels."""
    return BasisAssignment((np.ones((bases, d)),) * 2, convention)


def test_no_round_sifted():
    conjugate = all_ones_settings(3, 3, LabelConvention.CONJUGATE)
    # detector 0 under conjugate labels reads 1-0j, and (1-0j)(1-0j) = 1-0j
    assert repr(complex(conjugate.label_convention.labels(3)[0])) == "(1-0j)"
    a, b, k, kp = np.array([[0, 2, 1], [1, 0, 2], [2, 0, 0], [1, 1, 0]])
    transcript = Transcript(conjugate, a, b, k, kp)
    assert same(columnar(transcript), oracle(rows(transcript), 3))
    summary = summarize(transcript)
    assert summary.sift_rate == 0.0 and summary.agreement_rate is None

    def not_json(constant):
        raise ValueError(f"{constant} is not JSON")

    assert json.loads(summary.to_json(), parse_constant=not_json)["agreement_rate"] is None


@st.composite
def random_transcripts(draw) -> Transcript:
    d = draw(st.integers(2, 9))
    # all d bases, and 300 rounds, often enough that estimate_violation
    # for d = 3..5 gets every basis pair it needs
    bases = draw(st.just(d) | st.integers(1, d))
    convention = draw(st.sampled_from(LabelConvention))
    n = draw(st.just(300) | st.integers(0, 300))
    # the columns come from a drawn seed: drawing every entry through
    # hypothesis made this test about 6x slower
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(bound: int) -> np.ndarray:
        return rng.integers(0, bound, size=n)

    return Transcript(all_ones_settings(bases, d, convention),
                      column(bases), column(bases), column(d), column(d))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(random_transcripts())
def test_columnar_matches_oracle_on_random_transcripts(transcript):
    d = transcript.d
    full = 3 <= d <= 5 and len(transcript.settings.phase_tables[0]) == d
    t = builtin_operator(d) if full else None
    assert same(columnar(transcript, t), oracle(rows(transcript), d, t))


def test_transcript_columns_and_dimension_checks():
    transcript, _ = run_protocol(ProtocolConfig(state=psi5(), rounds=50, rng_seed=1))
    for column in (transcript.a, transcript.b, transcript.k, transcript.kp):
        assert column.dtype == np.uint8 and not column.flags.writeable
    with pytest.raises(DimensionMismatchError):
        estimate_violation(transcript, builtin_operator(3))


@pytest.mark.parametrize(
    "table",
    [np.ones((3, 2), dtype=complex), np.full((3, 3), np.nan + 0j), np.full((3, 3), 2 + 0j)],
    ids=["wrong-width", "nan", "modulus-2"],
)
def test_transcript_rejects_bad_settings(table):
    """A party's table of another shape, or off the unit circle, gives no
    transcript settings: BasisAssignment rejects it."""
    good = np.ones((3, 3), dtype=complex)
    one = np.zeros(1, dtype=int)
    for alice, bob in [(table, good), (good, table)]:
        with pytest.raises(ValueError, match="shape|unit modulus"):
            Transcript(BasisAssignment((alice, bob), LabelConvention.STANDARD), one, one, one, one)


def test_transcript_rejects_stacked_settings():
    one = np.zeros(1, dtype=int)
    with pytest.raises(ValueError, match=r"\(bases, d\) tables, not \(2, 3, 3\)"):
        Transcript(BasisAssignment((np.ones((2, 3, 3)),) * 2, LabelConvention.STANDARD),
                   one, one, one, one)


def test_transcript_rejects_bad_columns():
    three = all_ones_settings(3, 3)
    one = np.zeros(1, dtype=int)
    for a, k in [(np.zeros((1, 1), dtype=int), one), (np.zeros(2, dtype=int), one)]:
        with pytest.raises(ValueError, match="one-dimensional and of equal length"):
            Transcript(three, a, one, k, one)
    for a, k in [(np.array([-1]), one), (np.array([3]), one), (one, np.array([3]))]:
        with pytest.raises(ValueError, match="out of range"):
            Transcript(three, a, one, k, one)
    # the bounds are the tables' (bases, d): 4 bases of 2 phases take a = 3, not k = 2
    Transcript(all_ones_settings(4, 2), np.array([3]), one, one, one)
    with pytest.raises(ValueError, match=r"column k out of range \[0, 2\)"):
        Transcript(all_ones_settings(4, 2), np.array([3]), one, np.array([2]), one)


def keep_rounds(transcript: Transcript, keep: np.ndarray) -> Transcript:
    """The transcript's rounds where keep is True, with its settings."""
    columns = (transcript.a, transcript.b, transcript.k, transcript.kp)
    return Transcript(transcript.settings, *(c[keep] for c in columns))


@pytest.mark.parametrize("d", [3, 4, 5])
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_estimate_needs_no_rounds_where_the_coefficient_is_zero(d, data):
    """On a drawn sparse C, dropping every round of the pairs whose coefficient is 0
    leaves the oracle's estimate, to the bit; dropping one more pair, of a nonzero
    coefficient, raises InsufficientDataError naming that pair alone."""
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d)))
    zero[data.draw(st.integers(0, d * d - 1))] = True
    zero[data.draw(st.integers(0, d * d - 1))] = False
    c = np.array(builtin_operator(d).coefficients)
    c[zero.reshape(d, d)] = 0
    t = BellOperator(d, c)
    config = ProtocolConfig(state=maximally_entangled(d), noise=0.1, rounds=40 * d * d,
                            rng_seed=data.draw(st.integers(0, 2**16)))
    transcript, _ = run_protocol(config)
    pair = transcript.a.astype(np.intp) * d + transcript.b
    assert set(pair.tolist()) == set(range(d * d))
    sparse = keep_rounds(transcript, ~zero[pair])
    estimate = estimate_violation(sparse, t)
    assert same(estimate, oracle(rows(sparse), d, t)[-1])
    assert same(estimate, estimate_violation(transcript, t))
    dropped = data.draw(st.sampled_from(np.flatnonzero(~zero).tolist()))
    with pytest.raises(InsufficientDataError) as err:
        estimate_violation(keep_rounds(sparse, pair[~zero[pair]] != dropped), t)
    assert err.value.pairs == (divmod(dropped, d),)


def test_matched_rounds_feed_the_estimate():
    """Every built-in C has a nonzero diagonal, so the matched-basis rounds that
    sift turns into key are scored too: without them no estimate is possible."""
    config = ProtocolConfig(state=psi3(), rounds=3_000, rng_seed=4)
    transcript, _ = run_protocol(config)
    with pytest.raises(InsufficientDataError) as err:
        estimate_violation(keep_rounds(transcript, transcript.a != transcript.b),
                           builtin_operator(3))
    assert err.value.pairs == ((0, 0), (1, 1), (2, 2))


@st.composite
def scored_transcripts(draw) -> tuple[Transcript, BellOperator]:
    """A transcript over d bases per party, d = 3..6, under either label
    convention, and a sparse complex C: some pairs drawn enough rounds, some
    left with none."""
    d = draw(st.integers(3, 6))
    convention = draw(st.sampled_from(LabelConvention))
    n = draw(st.just(20 * d * d) | st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transcript = Transcript(all_ones_settings(d, d, convention),
                            *(rng.integers(0, bound, size=n) for bound in (d, d, d, d)))
    nonzero = draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d))
    values = draw(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                              allow_infinity=False),
                           min_size=d * d, max_size=d * d))
    c = np.where(np.reshape(nonzero, (d, d)), np.reshape(values, (d, d)), 0)
    return transcript, BellOperator(d, c)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scored_transcripts())
def test_score_tables_match_the_per_round_products(case):
    """The label-product table P and the per-pair score tables W give, bit for bit,
    the correlations and the (v, stderr) of every round's own label product, and
    the same pairs with no rounds."""
    transcript, t = case
    assert repr(summarize(transcript).pair_correlations) == repr(pair_correlations_loop(transcript))
    try:
        expected = estimate_violation_loop(transcript, t)
    except InsufficientDataError as err:
        with pytest.raises(InsufficientDataError) as got:
            estimate_violation(transcript, t)
        assert got.value.pairs == err.pairs
    else:
        assert np.array(estimate_violation(transcript, t)).tobytes() == np.array(expected).tobytes()
