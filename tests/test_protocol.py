import numpy as np
import pytest

from quditbell.algebra import make_state, maximally_entangled, psi5, roots_of_unity
from quditbell.bell import builtin_operator, classical_norm, protocol_basis, rotation_phase, violation
from quditbell.protocol import (
    HDDEB_MODE,
    NDEB_MODE,
    InsufficientDataError,
    ProtocolConfig,
    Transcript,
    correlation_spectrum,
    estimate_violation,
    run_protocol,
    sift,
    summarize,
    transcript_csv_string,
    write_transcript_csv,
)


def test_config_validation():
    state = maximally_entangled(3)
    with pytest.raises(ValueError):
        ProtocolConfig(d=3, state=state, noise=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(d=3, state=state, rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(d=3, state=state, mode="other")
    with pytest.raises(ValueError):
        ProtocolConfig(d=4, state=state)
    assert ProtocolConfig(d=3, state=state).num_bases == 3
    assert ProtocolConfig(d=3, state=state, mode=NDEB_MODE).num_bases == 4


def test_perfect_sifted_agreement_max_entangled():
    config = ProtocolConfig(d=3, state=maximally_entangled(3), rounds=10_000, rng_seed=11)
    records, summary = run_protocol(config)
    assert summary.agreement_defined
    assert summary.agreement_rate == 1.0
    assert summary.key_alice == summary.key_bob


def test_sift_rate_near_one_over_d():
    rounds = 20_000
    config = ProtocolConfig(d=5, state=maximally_entangled(5), rounds=rounds, rng_seed=3)
    _, summary = run_protocol(config)
    p = 1 / 5
    se = np.sqrt(p * (1 - p) / rounds)
    assert abs(summary.sift_rate - p) < 5 * se


def test_ndeb_mode_sift_rate_and_agreement():
    rounds = 20_000
    config = ProtocolConfig(
        d=3, state=maximally_entangled(3), rounds=rounds, rng_seed=9, mode=NDEB_MODE
    )
    _, summary = run_protocol(config)
    se = np.sqrt(0.25 * 0.75 / rounds)
    assert abs(summary.sift_rate - 0.25) < 5 * se
    assert summary.agreement_rate == 1.0


def standard_transcript(d, a, b, k, kp):
    """Hand-made rounds with every basis reading detector k as omega^k."""
    labels = np.tile(roots_of_unity(d), (d, 1))
    return Transcript(d, *(np.array(c, dtype=int) for c in (a, b, k, kp)), labels, labels)


def test_sift_dit_mapping():
    # round 0: k + k' = 0 mod 3 -> agree; round 1: mismatched bases -> dropped;
    # round 2: k + k' = 2 mod 3 -> disagree
    transcript = standard_transcript(3, a=[1, 0, 2], b=[1, 2, 2], k=[2, 0, 1], kp=[1, 0, 1])
    key_a, key_b, rate, defined = sift(transcript)
    assert key_a == (2, 1)
    assert key_b == (2, 2)
    assert defined and rate == 0.5


def test_sift_empty_records():
    key_a, key_b, rate, defined = sift(standard_transcript(3, [], [], [], []))
    assert key_a == () and key_b == ()
    assert not defined and np.isnan(rate)


def test_transcript_determinism():
    config = ProtocolConfig(d=3, state=maximally_entangled(3), rounds=2_000, rng_seed=42)
    r1, s1 = run_protocol(config)
    r2, s2 = run_protocol(config)
    assert transcript_csv_string(r1) == transcript_csv_string(r2)
    assert s1.to_json() == s2.to_json()


def test_different_seeds_differ():
    state = maximally_entangled(3)
    r1, _ = run_protocol(ProtocolConfig(d=3, state=state, rounds=500, rng_seed=1))
    r2, _ = run_protocol(ProtocolConfig(d=3, state=state, rounds=500, rng_seed=2))
    assert transcript_csv_string(r1) != transcript_csv_string(r2)


def test_round_labels_are_roots_of_unity():
    config = ProtocolConfig(d=4, state=maximally_entangled(4), rounds=200, rng_seed=0)
    transcript, _ = run_protocol(config)
    alice = transcript.alice_labels[transcript.a, transcript.k]
    bob = transcript.bob_labels[transcript.b, transcript.kp]
    assert np.abs(alice**4 - 1).max() < 1e-9
    assert np.abs(bob**4 - 1).max() < 1e-9


def test_estimate_violation_matches_analytic():
    d = 3
    state = maximally_entangled(d)
    t = builtin_operator(d)
    config = ProtocolConfig(d=d, state=state, rounds=100_000, rng_seed=17)
    records, _ = run_protocol(config)
    v_hat, stderr = estimate_violation(records, t)
    analytic = violation(state, t, protocol_basis(d))
    assert stderr > 0
    assert abs(v_hat - analytic) < 3 * stderr


def test_estimate_violation_under_noise():
    d = 3
    state = maximally_entangled(d)
    t = builtin_operator(d)
    config = ProtocolConfig(d=d, state=state, noise=0.2, rounds=100_000, rng_seed=23)
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
    total = sum(m.coefficient for m in t.monomials)
    expected = (rotation_phase(d) * total).real / classical_norm(d)
    assert abs(v_hat - expected) < 1e-12
    assert stderr == 0.0


def test_estimate_violation_insufficient_data():
    d = 3
    t = builtin_operator(d)
    with pytest.raises(InsufficientDataError) as err:
        estimate_violation(standard_transcript(d, [0], [0], [0], [0]), t)
    assert (0, 1) in err.value.pairs
    assert "a=0, b=1" in str(err.value)


def test_basis_pair_is_bijection():
    t = builtin_operator(4)
    pairs = [m.basis_pair for m in t.monomials]
    assert len(set(pairs)) == len(t.monomials)
    for m, (a, b) in zip(t.monomials, pairs):
        assert m.alice_exponents == (3 - a, a)
        assert m.bob_exponents == (3 - b, b)


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
    config = ProtocolConfig(d=5, state=psi5(), rounds=rounds, rng_seed=29)
    _, summary = run_protocol(config)
    p0 = correlation_spectrum(psi5())[0]
    n_sift = len(summary.key_alice)
    se = np.sqrt(p0 * (1 - p0) / n_sift)
    assert abs(summary.agreement_rate - p0) < 5 * se


def test_noisy_pair_correlations_scale():
    d = 3
    state = maximally_entangled(d)
    noise = 0.4
    config = ProtocolConfig(d=d, state=state, noise=noise, rounds=200_000, rng_seed=31)
    records, summary = run_protocol(config)
    clean, clean_summary = run_protocol(
        ProtocolConfig(d=d, state=state, rounds=200_000, rng_seed=31)
    )
    for pair, e_noisy in summary.pair_correlations.items():
        e_clean = clean_summary.pair_correlations[pair]
        assert abs(e_noisy - (1 - noise) * e_clean) < 0.05


def test_transcript_csv_export(tmp_path):
    config = ProtocolConfig(d=3, state=maximally_entangled(3), rounds=50, rng_seed=1)
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
    config = ProtocolConfig(d=3, state=maximally_entangled(3), rounds=900, rng_seed=2)
    records, summary = run_protocol(config)
    assert sum(summary.pair_counts.values()) == 900
    for e in summary.pair_correlations.values():
        assert abs(e) <= 1 + 1e-9
