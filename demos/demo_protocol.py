"""Walkthrough: simulating the entanglement-based key-distribution rounds.

Alice and Bob each hold half of an entangled qudit pair and measure in one of
d randomly chosen ditter bases per round.  Matching choices are sifted into
key dits.  The rounds of every basis pair, matched ones included, estimate the
Bell violation that certifies the absence of an eavesdropper.
"""
import numpy as np

from quditbell import (
    ProtocolConfig,
    builtin_operator,
    correlation_spectrum,
    estimate_violation,
    maximally_entangled,
    protocol_basis,
    psi5,
    run_protocol,
    violation,
)


def show_run(state, rounds=50_000, noise=0.0, seed=42):
    d = state.d
    config = ProtocolConfig(state=state, noise=noise, rounds=rounds, rng_seed=seed)
    transcript, summary = run_protocol(config)
    print(f"d = {d}, rounds = {rounds}, noise = {noise}")
    print(f"  sift rate       {summary.sift_rate:.4f}   (expect ~1/{d} = {1 / d:.4f})")
    print(f"  agreement rate  {summary.agreement_rate:.4f}")
    t = builtin_operator(d)
    v_hat, stderr = estimate_violation(transcript, t)
    analytic = (1 - noise) * violation(state, t, protocol_basis(d))
    print(f"  violation est.  {v_hat:.4f} ± {stderr:.4f}   (analytic {analytic:.4f})\n")
    return summary


def main():
    print("== noiseless run, maximally entangled qutrits ==")
    show_run(maximally_entangled(3))

    print("== 20% isotropic noise: correlations shrink by the same factor ==")
    show_run(maximally_entangled(3), noise=0.2)

    print("== non-uniform Schmidt phases: sifted keys are no longer perfect ==")
    summary = show_run(psi5())
    spectrum = correlation_spectrum(psi5())
    print("matched-basis correlation spectrum P(k+k' = m mod 5):")
    for m, p in enumerate(spectrum):
        print(f"  P({m}) = {p:.4f}")
    print(
        f"\nThe sifted agreement rate {summary.agreement_rate:.4f} converges to "
        f"P(0) = {spectrum[0]:.4f}: a state whose coefficients differ in phase "
        "leaks key errors even on a noiseless channel."
    )


if __name__ == "__main__":
    main()
