import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditbell import cli, protocol
from quditbell.algebra import (
    DimensionMismatchError, fourier_matrix, make_state, maximally_entangled, psi3, psi4, psi5
)
from quditbell.bell import (
    BasisAssignment,
    builtin_operator,
    exponent_basis,
    protocol_basis,
    violation,
)
from quditbell.ditter import (
    LabelConvention, ditter_unitaries, geometric_phases, outcome_distribution
)
from quditbell.protocol import (
    HDDEB_MODE,
    NDEB_MODE,
    InsufficientDataError,
    ProtocolConfig,
    Transcript,
    correlation_spectrum,
    estimate_violation,
    run_protocol,
    sample_rounds,
    sift,
    summarize,
    transcript_csv_string,
    write_transcript_csv,
)

from dense_oracle import classical_norm, ndeb_observables, observables, rotation_phase


def test_config_validation():
    state = maximally_entangled(3)
    with pytest.raises(ValueError):
        ProtocolConfig(state=state, noise=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(state=state, rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(state=state, mode="other")
    for mode, bases in ((HDDEB_MODE, 3), (NDEB_MODE, 4)):
        settings = ProtocolConfig(state=state, mode=mode).settings
        assert [table.shape for table in settings.phase_tables] == [(bases, 3)] * 2
    # the check: hdDEB's built-in hCHSH-d operator where one exists, else none
    for d in range(2, 8):
        hddeb = ProtocolConfig(state=maximally_entangled(d)).check
        if d in (3, 4, 5):
            assert hddeb.coefficients.tobytes() == builtin_operator(d).coefficients.tobytes()
        else:
            assert hddeb is None
        assert ProtocolConfig(state=maximally_entangled(d), mode=NDEB_MODE).check is None
    with pytest.raises(AttributeError):  # read-only: a frozen config's cached value
        ProtocolConfig(state=state).check = None


def test_perfect_sifted_agreement_max_entangled():
    config = ProtocolConfig(state=maximally_entangled(3), rounds=10_000, rng_seed=11)
    records, summary = run_protocol(config)
    assert summary.agreement_rate is not None
    assert summary.agreement_rate == 1.0
    assert summary.key_alice == summary.key_bob


def test_sift_rate_near_one_over_d():
    rounds = 20_000
    config = ProtocolConfig(state=maximally_entangled(5), rounds=rounds, rng_seed=3)
    _, summary = run_protocol(config)
    p = 1 / 5
    se = np.sqrt(p * (1 - p) / rounds)
    assert abs(summary.sift_rate - p) < 5 * se


def test_ndeb_mode_sift_rate_and_agreement():
    rounds = 20_000
    config = ProtocolConfig(
        state=maximally_entangled(3), rounds=rounds, rng_seed=9, mode=NDEB_MODE
    )
    _, summary = run_protocol(config)
    se = np.sqrt(0.25 * 0.75 / rounds)
    assert abs(summary.sift_rate - 0.25) < 5 * se
    assert summary.agreement_rate == 1.0


def standard_transcript(d, a, b, k, kp):
    """Hand-made rounds over d bases per party, detector k reading omega^k."""
    settings = BasisAssignment((np.ones((d, d)),) * 2, LabelConvention.STANDARD)
    return Transcript(settings, *(np.array(c, dtype=int) for c in (a, b, k, kp)))


def test_sift_dit_mapping():
    # round 0: k + k' = 0 mod 3 -> agree; round 1: mismatched bases -> dropped;
    # round 2: k + k' = 2 mod 3 -> disagree
    transcript = standard_transcript(3, a=[1, 0, 2], b=[1, 2, 2], k=[2, 0, 1], kp=[1, 0, 1])
    key_a, key_b, rate = sift(transcript)
    assert key_a == (2, 1)
    assert key_b == (2, 2)
    assert rate == 0.5


def test_sift_empty_records():
    key_a, key_b, rate = sift(standard_transcript(3, [], [], [], []))
    assert key_a == () and key_b == ()
    assert rate is None


def test_transcript_determinism():
    config = ProtocolConfig(state=maximally_entangled(3), rounds=2_000, rng_seed=42)
    r1, s1 = run_protocol(config)
    r2, s2 = run_protocol(config)
    assert transcript_csv_string(r1) == transcript_csv_string(r2)
    assert s1.to_json() == s2.to_json()


def test_different_seeds_differ():
    state = maximally_entangled(3)
    r1, _ = run_protocol(ProtocolConfig(state=state, rounds=500, rng_seed=1))
    r2, _ = run_protocol(ProtocolConfig(state=state, rounds=500, rng_seed=2))
    assert transcript_csv_string(r1) != transcript_csv_string(r2)


def test_round_labels_are_roots_of_unity():
    config = ProtocolConfig(state=maximally_entangled(4), rounds=200, rng_seed=0)
    transcript, _ = run_protocol(config)
    convention = transcript.settings.label_convention
    assert np.abs(convention.labels(4)**4 - 1).max() < 1e-9
    products = convention.products(4)[transcript.k, transcript.kp]  # P at each round's (k, k')
    assert len(products) == 200 and np.abs(products**4 - 1).max() < 1e-9


def test_estimate_violation_matches_analytic():
    d = 3
    state = maximally_entangled(d)
    t = builtin_operator(d)
    config = ProtocolConfig(state=state, rounds=100_000, rng_seed=17)
    records, _ = run_protocol(config)
    v_hat, stderr = estimate_violation(records, t)
    analytic = violation(state, t, protocol_basis(d))
    assert stderr > 0
    assert abs(v_hat - analytic) < 3 * stderr


def test_estimate_violation_under_noise():
    d = 3
    state = maximally_entangled(d)
    t = builtin_operator(d)
    config = ProtocolConfig(state=state, noise=0.2, rounds=100_000, rng_seed=23)
    records, _ = run_protocol(config)
    v_hat, stderr = estimate_violation(records, t)
    analytic = 0.8 * violation(state, t, protocol_basis(d))
    assert abs(v_hat - analytic) < 3 * stderr


def test_estimate_violation_stub_records():
    """Rounds engineered so every monomial's sample mean is exactly 1 (one
    round per basis pair, both detectors 0, whose label is 1) give the
    closed-form plug-in value Re(phase * sum c_m) / (d^2 cos(pi/d))."""
    d = 3
    t = builtin_operator(d)
    a, b = np.divmod(np.arange(d * d), d)
    zeros = [0] * (d * d)
    v_hat, stderr = estimate_violation(standard_transcript(d, a, b, zeros, zeros), t)
    total = t.coefficients.sum()
    expected = (rotation_phase(d) * total).real / classical_norm(d)
    assert abs(v_hat - expected) < 1e-12
    assert stderr == 0.0


@pytest.mark.parametrize("d", [3, 4, 5])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_score_tables_average_to_the_violation(d, data):
    """The expected estimate: each pair's scores W[a, b] of t.score_tables, summed
    against the pair's exact outcome table, add up to violation() for drawn states
    and bases."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = make_state(d, rng.normal(size=d) + 1j * rng.normal(size=d))
    exponents = tuple(data.draw(st.integers(-3, 3)) for _ in range(4))
    basis = exponent_basis(d, exponents, np.exp(1j * data.draw(st.floats(0, 2 * np.pi))))
    t = builtin_operator(d)
    alice, bob = (ditter_unitaries(table) for table in basis.phase_tables)
    expected = sum((scores * outcome_distribution(state, alice[a], bob[b])).sum()
                   for a, b, scores in t.score_tables(basis.label_convention))
    assert abs(expected - violation(state, t, basis)) <= 1e-12


def test_estimate_violation_insufficient_data():
    d = 3
    t = builtin_operator(d)
    with pytest.raises(InsufficientDataError) as err:
        estimate_violation(standard_transcript(d, [0], [0], [0], [0]), t)
    assert (0, 1) in err.value.pairs
    assert "a=0, b=1" in str(err.value)


@pytest.mark.parametrize("d", [3, 5])
def test_estimate_violation_rejects_settings_it_does_not_match(d):
    """NDEB's 4 bases per party are not the operator's d: at d = 3 this once gave
    a number, at d = 5 an InsufficientDataError."""
    config = ProtocolConfig(state=maximally_entangled(d), rounds=2_000, mode=NDEB_MODE)
    with pytest.raises(DimensionMismatchError, match=rf"\(4, {d}\) != operator's \({d}, {d}\)"):
        estimate_violation(sample_rounds(config), builtin_operator(d))


def test_estimate_violation_scores_an_ndeb_transcript_at_d_4():
    """At d = 4 NDEB's 4 bases per party match the operator's (4, 4) shape, so its
    rounds are scored, in NDEB's own bases: the estimate tracks violation() there."""
    config = ProtocolConfig(state=psi4(), rounds=20_000, mode=NDEB_MODE)
    t = builtin_operator(4)
    v_hat, stderr = estimate_violation(sample_rounds(config), t)
    assert stderr > 0
    assert abs(v_hat - violation(psi4(), t, config.settings)) < 5 * stderr


def test_states_configs_and_phases_compare_by_identity():
    """Equality and hashing on dataclasses holding an array once raised
    ("truth value of an array is ambiguous", "unhashable type")."""
    state = psi3()
    config = ProtocolConfig(state=state)
    phases = geometric_phases(3, 1j, 1)
    for obj, twin in [(state, psi3()), (config, ProtocolConfig(state=state)),
                      (phases, geometric_phases(3, 1j, 1))]:
        assert obj == obj and obj != twin
        assert hash(obj) == hash(obj)


def test_basis_pair_is_bijection():
    """The coefficient listing puts C[a, b] at exponents (3 - a, a) and (3 - b, b),
    every basis pair once, in row-major order."""
    t = builtin_operator(4)
    listed = [(m["alice_exponents"], m["bob_exponents"], m["coefficient"])
              for m in t.coefficient_table()["monomials"]]
    c = t.coefficients
    assert listed == [([3 - a, a], [3 - b, b], [c[a, b].real, c[a, b].imag])
                      for a in range(4) for b in range(4)]


def test_correlation_spectrum_uniform_state():
    spec = correlation_spectrum(maximally_entangled(4))
    assert abs(spec[0] - 1.0) < 1e-12
    assert np.abs(spec[1:]).max() < 1e-12


def test_correlation_spectrum_psi5():
    spec = correlation_spectrum(psi5())
    assert abs(spec[0] - 17 / 25) < 1e-12
    assert np.allclose(spec[1:], 2 / 25, atol=1e-12)
    assert abs(spec.sum() - 1.0) < 1e-12


def test_correlation_spectrum_random_state_sums_to_one():
    rng = np.random.default_rng(8)
    state = make_state(6, rng.normal(size=6) + 1j * rng.normal(size=6))
    spec = correlation_spectrum(state)
    assert abs(spec.sum() - 1.0) < 1e-12


def test_sifted_agreement_matches_spectrum_psi5():
    rounds = 100_000
    config = ProtocolConfig(state=psi5(), rounds=rounds, rng_seed=29)
    _, summary = run_protocol(config)
    p0 = correlation_spectrum(psi5())[0]
    n_sift = len(summary.key_alice)
    se = np.sqrt(p0 * (1 - p0) / n_sift)
    assert abs(summary.agreement_rate - p0) < 5 * se


def test_noisy_pair_correlations_scale():
    d = 3
    state = maximally_entangled(d)
    noise = 0.4
    config = ProtocolConfig(state=state, noise=noise, rounds=200_000, rng_seed=31)
    records, summary = run_protocol(config)
    clean, clean_summary = run_protocol(
        ProtocolConfig(state=state, rounds=200_000, rng_seed=31)
    )
    for pair, e_noisy in summary.pair_correlations.items():
        e_clean = clean_summary.pair_correlations[pair]
        assert abs(e_noisy - (1 - noise) * e_clean) < 0.05


def test_transcript_csv_export(tmp_path):
    config = ProtocolConfig(state=maximally_entangled(3), rounds=50, rng_seed=1)
    records, _ = run_protocol(config)
    path = tmp_path / "transcript.csv"
    write_transcript_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,a,b,k,k'"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(0 <= int(x) < 3 for x in first[1:])


def test_summarize_counts():
    config = ProtocolConfig(state=maximally_entangled(3), rounds=900, rng_seed=2)
    records, summary = run_protocol(config)
    assert sum(summary.pair_counts.values()) == 900
    for e in summary.pair_correlations.values():
        assert abs(e) <= 1 + 1e-9


def wilson_hilferty_quantile(dof: int, z: float) -> float:
    """Upper chi-square quantile with dof degrees of freedom at normal score z."""
    c = 2 / (9 * dof)
    return dof * (1 - c + z * np.sqrt(c)) ** 3


def chi_square(observed: np.ndarray, expected: np.ndarray, floor: float = 5.0):
    """(statistic, dof) after pooling the cells expected below ``floor`` counts,
    smallest first, into one bin of at least ``floor``."""
    order = np.argsort(expected)
    e, o = expected[order], observed[order]
    small = int(np.count_nonzero(e < floor))
    if small:
        cut = max(small, int(np.searchsorted(np.cumsum(e), floor)) + 1)
        e = np.r_[e[:cut].sum(), e[cut:]]
        o = np.r_[o[:cut].sum(), o[cut:]]
    return float(((o - e) ** 2 / e).sum()), len(e) - 1


@pytest.mark.parametrize("state_kind", ["ghz", "random"])
@pytest.mark.parametrize("mode", [HDDEB_MODE, NDEB_MODE])
@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("d", range(2, 10))
def test_sampler_matches_outcome_distribution(d, noise, mode, state_kind):
    """For every basis pair, the sampled (k, k') counts follow
    (1 - N) outcome_distribution + N/d^2: cells of zero probability are never
    hit, and a chi-square statistic stays below its 5-sigma quantile."""
    rng = np.random.default_rng(d)
    if state_kind == "ghz":
        state = maximally_entangled(d)
    else:
        state = make_state(d, rng.normal(size=d) + 1j * rng.normal(size=d))
    if mode == HDDEB_MODE:
        basis = protocol_basis(d)
        alice, bob = observables(basis, 0), observables(basis, 1)
    else:
        alice, bob = ndeb_observables(d)
    pairs = [(a, b) for a in range(len(alice)) for b in range(len(bob))]
    config = ProtocolConfig(
        state=state, noise=noise, rounds=1500 * len(pairs), rng_seed=5, mode=mode
    )
    transcript, summary = run_protocol(config)
    assert sorted(summary.pair_counts) == pairs
    for a, b in pairs:
        rounds = (transcript.a == a) & (transcript.b == b)
        cells = transcript.k[rounds].astype(int) * d + transcript.kp[rounds]
        observed = np.bincount(cells, minlength=d * d)
        pure = outcome_distribution(state, alice[a].ditter_unitary, bob[b].ditter_unitary)
        probs = (1 - noise) * pure.ravel() + noise / d**2
        zero = probs < 1e-12
        assert not observed[zero].any(), (a, b)
        stat, dof = chi_square(observed[~zero], probs[~zero] * observed.sum())
        assert stat < wilson_hilferty_quantile(dof, 5.0), (a, b, stat, dof)


@pytest.mark.parametrize("theta", [None, np.exp(0.7j)], ids=["theta-default", "theta-0.7"])
@pytest.mark.parametrize("mode", [HDDEB_MODE, NDEB_MODE])
@pytest.mark.parametrize("d", range(2, 10))
def test_settings_equal_per_basis_observables(d, mode, theta):
    """ProtocolConfig.settings, one BasisAssignment in both modes, holds each
    per-basis observable's phases and labels, and ditter_unitaries each one's
    F @ diag(Theta), byte for byte."""
    config = ProtocolConfig(state=maximally_entangled(d), theta=theta, rounds=50, mode=mode)
    if mode == HDDEB_MODE:
        basis = protocol_basis(d, theta)
        parties = observables(basis, 0), observables(basis, 1)
    else:
        parties = ndeb_observables(d, theta)
    assert isinstance(config.settings, BasisAssignment)
    tables, convention = config.settings.phase_tables, config.settings.label_convention
    transcript = sample_rounds(config)
    assert transcript.settings is config.settings and transcript.d == d
    labels = convention.labels(d)
    for table, objs in zip(tables, parties, strict=True):
        assert table.tobytes() == np.array([o.phases.thetas for o in objs]).tobytes()
        assert all(o.label_convention is convention for o in objs)
        assert all(o.labels.tobytes() == labels.tobytes() for o in objs)
        for u, o in zip(ditter_unitaries(table), objs, strict=True):
            assert u.tobytes() == (fourier_matrix(d) * o.phases.thetas[np.newaxis, :]).tobytes()
    conjugate = mode == HDDEB_MODE and d > 2  # hdDEB's table rows read X^{d-1}'s labels
    assert convention is (LabelConvention.CONJUGATE if conjugate else LabelConvention.STANDARD)


def test_one_round_builds_one_outcome_table(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return outcome_distribution(*args)

    monkeypatch.setattr(protocol, "outcome_distribution", counting)
    run_protocol(ProtocolConfig(state=psi5(), rounds=1))
    assert len(calls) == 1


def test_simulate_groups_rounds_by_pair_once(monkeypatch, capsys):
    """For sampling; the transcript keeps that index as its pair index, which
    the summary and the violation estimate share."""
    calls = []
    pair_rounds = protocol._pair_rounds

    def counting(*args):
        calls.append(args)
        return pair_rounds(*args)

    monkeypatch.setattr(protocol, "_pair_rounds", counting)
    argv = ["simulate", "--d", "5", "--state", "psi5", "--rounds", "2000", "--format", "json"]
    assert cli.main(argv) == 0
    assert "violation_estimate" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("rounds", [1, 7, 2000])
@pytest.mark.parametrize("mode", [HDDEB_MODE, NDEB_MODE])
@pytest.mark.parametrize("d", range(2, 8))
def test_sampled_pair_index_is_that_of_the_stored_columns(d, mode, rounds):
    """The index sample_rounds hands over, built from its int64 draws, is the one
    the transcript's narrowed columns give: same pairs in the same order, same bytes."""
    transcript = sample_rounds(ProtocolConfig(state=maximally_entangled(d), rounds=rounds,
                                              rng_seed=d, mode=mode))
    bases = len(transcript.settings.phase_tables[0])
    rebuilt = protocol._pair_rounds(transcript.a, transcript.b, bases)
    assert list(transcript.pair_rounds) == list(rebuilt)
    for pair, idx in rebuilt.items():
        got = transcript.pair_rounds[pair]
        assert (got.dtype, got.tobytes()) == (idx.dtype, idx.tobytes())


def test_summary_without_sifted_rounds_equals_itself():
    """No matched round leaves no agreement rate: None, where a NaN made the
    summary unequal to itself."""
    transcript = standard_transcript(3, a=[0, 1, 2], b=[1, 2, 0], k=[0, 1, 2], kp=[2, 1, 0])
    assert summarize(transcript).agreement_rate is None
    assert summarize(transcript) == summarize(transcript)


@pytest.mark.parametrize(
    "column", [[0.9, 2.99], [1.0, 2.0], [np.nan, 0]], ids=["fraction", "whole", "nan"]
)
def test_transcript_rejects_non_integer_columns(column):
    """A float column was once truncated toward zero, and NaN read as 0."""
    settings = BasisAssignment((np.ones((3, 3)),) * 2, LabelConvention.STANDARD)
    with pytest.raises(ValueError, match="column a must hold integers, not float64"):
        Transcript(settings, column, [1, 0], [2, 0], [0, 1])


def test_transcript_accepts_empty_columns():
    """np.asarray([]) is float64; with no entries there is nothing to truncate."""
    settings = BasisAssignment((np.ones((3, 3)),) * 2, LabelConvention.STANDARD)
    transcript = Transcript(settings, [], [], [], [])
    assert len(transcript) == 0 and transcript.pair_rounds == {}


def pair_rounds_unique(a, b, n_b):
    """The np.unique form of the grouping: pairs in order of first appearance,
    each pair's round indices in round order."""
    code = a.astype(np.intp) * n_b + b
    order = np.argsort(code, kind="stable")
    codes, first, counts = np.unique(code, return_index=True, return_counts=True)
    ends = np.cumsum(counts)
    return {
        divmod(int(codes[i]), n_b): order[ends[i] - counts[i] : ends[i]]
        for i in np.argsort(first)
    }


@pytest.mark.parametrize("n", [0, 1, 2, 7, 500, 24000])
@pytest.mark.parametrize("n_b", [2, 4, 5, 9, 32])
def test_pair_rounds_matches_unique_grouping(n, n_b):
    rng = np.random.default_rng(n * 100 + n_b)
    a, b = rng.integers(0, n_b, size=(2, n))
    got = protocol._pair_rounds(a, b, n_b)
    expected = pair_rounds_unique(a, b, n_b)
    assert list(got) == list(expected)
    for pair, idx in expected.items():
        assert got[pair].dtype == idx.dtype
        assert np.array_equal(got[pair], idx)
