"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line; tolerances are stated inline.  Run with `pytest -s` to see
the lines as they print.
"""
import math
import time

import numpy as np
import pytest

import quditbell as qb
from quditbell.bell import builtin_operator, canonical_basis, lhv_max, optimize_basis, protocol_basis, violation
from quditbell.ditter import LabelConvention, observable_matrices, party_phase_table
from quditbell.protocol import (
    ProtocolConfig,
    correlation_spectrum,
    estimate_violation,
    run_protocol,
    transcript_csv_string,
)
from quditbell.security import (
    NDEB_VIOLATIONS,
    noise_threshold,
    security_criterion,
)

from dense_oracle import dense_violation, noisy_density

STATES = {3: qb.psi3, 4: qb.psi4, 5: qb.psi5}


def report(number: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {number:2d}: {'PASS' if passed else 'FAIL'} — {detail}"
    print("\n" + line)
    assert passed, line


def test_criterion_01_reference_violation_values():
    targets = {3: 1.505, 4: 1.546, 5: 1.574}
    results = {}
    for d, target in targets.items():
        start = time.perf_counter()
        _, v = optimize_basis(STATES[d](), builtin_operator(d))
        elapsed = time.perf_counter() - start
        results[d] = (v, abs(v - target) < 5e-3 and elapsed < 60.0)
    ok = all(flag for _, flag in results.values())
    detail = ", ".join(f"d={d}: v={v:.5f}" for d, (v, _) in results.items())
    report(1, ok, f"optimized violations within ±0.005 of 1.505/1.546/1.574 ({detail})")


def test_criterion_02_noise_threshold_columns():
    computed = {d: optimize_basis(STATES[d](), builtin_operator(d))[1] for d in (3, 4, 5)}
    targets_hd = {3: 0.336, 4: 0.353, 5: 0.365}
    targets_nd = {3: 0.304, 4: 0.309, 5: 0.313}
    ok = all(
        abs(noise_threshold(computed[d]) - targets_hd[d]) < 2e-3 for d in (3, 4, 5)
    ) and all(
        abs(noise_threshold(NDEB_VIOLATIONS[d]) - targets_nd[d]) < 2e-3 for d in (3, 4, 5)
    )
    vals = ", ".join(f"{noise_threshold(computed[d]):.4f}" for d in (3, 4, 5))
    report(2, ok, f"thresholds 1-1/v match both reference columns within ±0.002 ({vals})")


def test_criterion_03_security_criterion_table():
    targets = {3: 1.508, 4: 1.549, 5: 1.575, 6: 1.593, 7: 1.607, 8: 1.618, 9: 1.627}
    ok = all(abs(security_criterion(d) - ref) < 1e-3 for d, ref in targets.items())
    ok = ok and abs(security_criterion(math.inf) - 2.0) < 1e-12
    report(3, ok, "criterion (d-1)/(dF_A-1) matches 1.508..1.627 ±0.001 and 2 at d=inf")


def test_criterion_04_security_gap():
    gaps = []
    ok = True
    for d in (3, 4, 5):
        _, v = optimize_basis(STATES[d](), builtin_operator(d))
        criterion = security_criterion(d)
        ok = ok and v < criterion
        gaps.append(criterion - NDEB_VIOLATIONS[d])
    for gap, ref in zip(gaps, (0.072, 0.101, 0.120)):
        ok = ok and abs(gap - ref) < 3e-3
    ok = ok and gaps[0] < gaps[1] < gaps[2]
    report(4, ok, f"v < criterion for d=3..5; gaps {[round(g, 4) for g in gaps]} increasing")


def test_criterion_05_product_observable_identity():
    start = time.perf_counter()
    worst = 0.0
    for d in range(3, 9):
        rng = np.random.default_rng(d)
        for i in range(1, d - 1):
            j = d - 1 - i
            for _ in range(100):
                theta = qb.PhaseVector(d, np.exp(2j * np.pi * rng.random(d)))
                lam = qb.PhaseVector(d, np.exp(2j * np.pi * rng.random(d)))
                z_theta, z_lam = observable_matrices(
                    np.stack([theta.thetas, lam.thetas]), LabelConvention.STANDARD
                )
                lhs = np.linalg.matrix_power(z_theta, i) @ np.linalg.matrix_power(z_lam, j)
                product = observable_matrices(
                    party_phase_table(theta, lam), LabelConvention.CONJUGATE
                )[j]
                err = np.abs(lhs - product).max()
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(5, ok, f"product = single-ditter adjoint, max error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_dual_form_and_adjoint_power():
    worst = 0.0
    for d in range(3, 9):
        rng = np.random.default_rng(60 + d)
        f = qb.fourier_matrix(d)
        z_diag = np.diag(qb.roots_of_unity(d))
        for _ in range(100):
            phases = qb.PhaseVector(d, np.exp(2j * np.pi * rng.random(d)))
            u = f @ np.diag(phases.thetas)
            z = observable_matrices(phases.thetas[None], LabelConvention.STANDARD)[0]
            z_dag = observable_matrices(phases.thetas[None], LabelConvention.CONJUGATE)[0]
            worst = max(worst, np.abs(z - u.conj().T @ z_diag @ u).max())
            zpow = np.linalg.matrix_power(z, d - 1)
            worst = max(worst, np.abs(zpow - z.conj().T).max())
            worst = max(worst, np.abs(zpow - z_dag).max())
    ok = worst <= 1e-12
    report(6, ok, f"dual-form identity and Z^(d-1) = Z† hold, max error {worst:.2e}")


def test_criterion_07_lhv_bound():
    start = time.perf_counter()
    maxima = {d: lhv_max(builtin_operator(d)) for d in (3, 4, 5)}
    elapsed = time.perf_counter() - start
    ok = all(v <= 1 + 1e-9 for v in maxima.values()) and elapsed < 5.0
    vals = ", ".join(f"d={d}: {v:.12f}" for d, v in maxima.items())
    report(7, ok, f"exhaustive local bound ≤ 1+1e-9 ({vals}) in {elapsed:.1f}s")


def test_criterion_08_sifting():
    rounds = 10_000
    config = ProtocolConfig(
        state=qb.maximally_entangled(3), noise=0.0, rounds=rounds, rng_seed=7
    )
    _, summary = run_protocol(config)
    p = 1 / 3
    se = np.sqrt(p * (1 - p) / rounds)
    rate_ok = abs(summary.sift_rate - p) < 5 * se
    ok = summary.agreement_rate == 1.0 and rate_ok
    # Logged, not asserted: the measured rate tracks 1/d, not the sometimes
    # quoted 1/(2d); uniform independent basis drawing cannot produce 1/(2d).
    print(
        f"\n    note: sift rate {summary.sift_rate:.4f} ≈ 1/d = {p:.4f} "
        f"(not 1/(2d) = {p / 2:.4f})"
    )
    report(8, ok, f"agreement exactly 1.0; sift rate {summary.sift_rate:.4f} within 5 SE of 1/d")


def test_criterion_09_correlation_spectrum():
    spec = correlation_spectrum(qb.psi5())
    analytic_ok = abs(spec[0] - 17 / 25) < 1e-12
    rounds = 100_000
    _, summary = run_protocol(
        ProtocolConfig(state=qb.psi5(), rounds=rounds, rng_seed=9)
    )
    n = len(summary.key_alice)
    se = np.sqrt(spec[0] * (1 - spec[0]) / n)
    sim_ok = abs(summary.agreement_rate - spec[0]) < 5 * se
    report(
        9,
        analytic_ok and sim_ok,
        f"P(0) = {spec[0]:.12f} = 17/25; simulated agreement {summary.agreement_rate:.4f}",
    )


def test_criterion_10_noise_linearity():
    d = 3
    state = qb.psi3()
    t = builtin_operator(d)
    basis = canonical_basis(d)
    v0 = violation(state, t, basis)
    linear_ok = all(
        abs(dense_violation(noisy_density(state, n), t, basis) - (1 - n) * v0) < 1e-9
        for n in np.arange(0.0, 0.91, 0.1)
    )
    records, _ = run_protocol(
        ProtocolConfig(state=state, noise=0.2, rounds=100_000, rng_seed=10)
    )
    v_hat, stderr = estimate_violation(records, t)
    target = 0.8 * violation(state, t, protocol_basis(d))
    mc_ok = abs(v_hat - target) < 3 * stderr
    report(
        10,
        linear_ok and mc_ok,
        f"violation scales as (1-N)v within 1e-9; MC at N=0.2: {v_hat:.4f} ± {stderr:.4f} "
        f"vs {target:.4f}",
    )


def test_criterion_11_determinism():
    config = ProtocolConfig(
        state=qb.maximally_entangled(4), noise=0.1, rounds=5_000, rng_seed=123
    )
    r1, s1 = run_protocol(config)
    r2, s2 = run_protocol(config)
    t1, t2 = transcript_csv_string(r1), transcript_csv_string(r2)
    ok = t1.encode() == t2.encode() and s1.to_json().encode() == s2.to_json().encode()
    report(11, ok, "identical seeds give byte-identical transcripts and summaries")
