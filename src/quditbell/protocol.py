"""Monte-Carlo simulation of the entanglement-based key-distribution rounds.

Each round, Alice and Bob independently pick one measurement basis uniformly
at random, measure their halves of a shared entangled pair, and record which
detector fired.  Rounds with matching basis choices are sifted into key dits;
all other rounds feed the Bell-violation estimate used to detect
eavesdropping.

A run's rounds are kept as one columnar :class:`Transcript`: integer columns
for Alice's basis a, Bob's basis b and the detectors k, k' that fired, plus
each party's (bases x d) table of complex outcome labels.  Sifting, the
per-basis-pair summary, the violation estimate and the CSV export each take
a transcript and work on whole columns.

Two modes are supported:

* ``hdDEB``: d bases per party, the a-th basis realizing the homogeneous
  monomial A1^{d-1-a} A2^a built from conjugate-paired generator phases, so
  that matched bases are (for uniform Schmidt coefficients) perfectly
  anti-correlated in detector index: k + k' = 0 mod d.
* ``NDEB``: 4 single-ditter geometric bases per party (the predecessor
  protocol's key-generation path); only basis drawing, sifting, and key
  agreement are simulated — its own Bell check is out of scope.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import DimensionMismatchError, EntangledState, roots_of_unity
from .bell import BellOperator, classical_norm, protocol_basis, reference_theta, rotation_phase
from .ditter import PHASE_TOL, ditter_observable, geometric_phases, outcome_distribution

HDDEB_MODE = "hdDEB"
NDEB_MODE = "NDEB"


class InsufficientDataError(RuntimeError):
    """Violation estimation needs at least one round per monomial basis pair."""

    def __init__(self, pairs: Sequence[tuple[int, int]]):
        self.pairs = tuple(pairs)
        super().__init__(
            "no rounds recorded for basis pair(s): "
            + ", ".join(f"(a={a}, b={b})" for a, b in self.pairs)
        )


@dataclass(frozen=True)
class ProtocolConfig:
    d: int
    state: EntangledState
    noise: float = 0.0
    theta: complex | None = None
    rounds: int = 10_000
    rng_seed: int = 0
    mode: str = HDDEB_MODE

    def __post_init__(self):
        if self.state.d != self.d:
            raise DimensionMismatchError(
                f"state dimension {self.state.d} != config dimension {self.d}"
            )
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise fraction must be in [0, 1], got {self.noise}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.mode not in (HDDEB_MODE, NDEB_MODE):
            raise ValueError(f"mode must be {HDDEB_MODE!r} or {NDEB_MODE!r}")

    @property
    def num_bases(self) -> int:
        """d bases per party in hdDEB mode, 4 in NDEB mode."""
        return self.d if self.mode == HDDEB_MODE else 4


@dataclass(frozen=True, eq=False)
class Transcript:
    """The rounds of one run as columns; row i is round i.

    ``a`` and ``b`` are the basis choices, ``k`` and ``kp`` the detectors
    that fired (``k'`` in the CSV).  ``alice_labels[a, k]`` and
    ``bob_labels[b, kp]`` are the complex outcome labels those detectors
    report.  The columns are stored read-only in the narrowest unsigned
    dtype that holds them.
    """

    d: int
    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    kp: np.ndarray
    alice_labels: np.ndarray  # (Alice's bases, d)
    bob_labels: np.ndarray  # (Bob's bases, d)

    def __post_init__(self):
        for name in ("alice_labels", "bob_labels"):
            table = np.asarray(getattr(self, name))
            if table.ndim != 2 or table.shape[1] != self.d:
                raise ValueError(f"{name} must have shape (bases, {self.d}), not {table.shape}")
            if not np.all(np.abs(np.abs(table) - 1.0) <= PHASE_TOL):  # NaN fails too
                raise ValueError(f"{name} entries must be finite with unit modulus")
        bounds = {
            "a": len(self.alice_labels), "b": len(self.bob_labels), "k": self.d, "kp": self.d
        }
        dtype = np.min_scalar_type(max(bounds.values()))
        shape = np.shape(self.a)
        for name, bound in bounds.items():
            column = np.asarray(getattr(self, name))
            if len(shape) != 1 or column.shape != shape:
                raise ValueError("transcript columns must be one-dimensional and of equal length")
            if len(column) and (column.min() < 0 or column.max() >= bound):
                raise ValueError(f"column {name} out of range [0, {bound})")
            column = column.astype(dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.a)


def _pair_samples(transcript: Transcript) -> dict[tuple[int, int], np.ndarray]:
    """Outcome-label products alice * bob grouped by basis pair (a, b).

    Pairs come in order of first appearance and each pair's samples in round
    order, so sums and moments see the values in the order a round-by-round
    pass would.  The product is formed from real and imaginary parts exactly
    as Python multiplies two complex numbers; numpy's complex multiply can
    differ from it in the last bit.
    """
    x = transcript.alice_labels[transcript.a, transcript.k]
    y = transcript.bob_labels[transcript.b, transcript.kp]
    products = np.empty(len(transcript), dtype=complex)
    products.real = x.real * y.real - x.imag * y.imag
    products.imag = x.real * y.imag + x.imag * y.real

    n_b = len(transcript.bob_labels)
    code = transcript.a.astype(np.intp) * n_b + transcript.b
    order = np.argsort(code, kind="stable")
    codes, first, counts = np.unique(code, return_index=True, return_counts=True)
    ends = np.cumsum(counts)
    return {
        divmod(int(codes[i]), n_b): products[order[ends[i] - counts[i] : ends[i]]]
        for i in np.argsort(first)
    }


@dataclass(frozen=True)
class TranscriptSummary:
    sift_rate: float
    key_alice: tuple[int, ...]
    key_bob: tuple[int, ...]
    agreement_rate: float
    agreement_defined: bool
    pair_correlations: dict[tuple[int, int], complex]
    pair_counts: dict[tuple[int, int], int]

    def to_dict(self) -> dict:
        """JSON-friendly rendering (complex correlations as [re, im])."""
        return {
            "sift_rate": self.sift_rate,
            "key_alice": list(self.key_alice),
            "key_bob": list(self.key_bob),
            "agreement_rate": self.agreement_rate,
            "agreement_defined": self.agreement_defined,
            "pair_correlations": {
                f"{a},{b}": [c.real, c.imag]
                for (a, b), c in sorted(self.pair_correlations.items())
            },
            "pair_counts": {
                f"{a},{b}": n for (a, b), n in sorted(self.pair_counts.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _ndeb_observables(config: ProtocolConfig) -> tuple[list, list]:
    """Four geometric single-ditter bases per party; Bob uses the conjugate
    phase family so matched bases correlate detectors as k + k' = 0 mod d."""
    d = config.d
    theta = config.theta if config.theta is not None else reference_theta(d)
    alice = [ditter_observable(geometric_phases(d, theta, a, +1)) for a in range(4)]
    bob = [ditter_observable(geometric_phases(d, theta, b, -1)) for b in range(4)]
    return alice, bob


def run_protocol(config: ProtocolConfig) -> tuple[Transcript, TranscriptSummary]:
    """Simulate the full round sequence with a seeded generator.

    Basis indices are drawn uniformly and independently for both parties;
    detector outcomes are sampled from the exact joint distribution of the
    noisy state N I/d^2 + (1 - N)|psi><psi| under the chosen observable pair,
    which is (1 - N) |U_A diag(delta) U_B^T|^2 + N/d^2 for N = config.noise.
    The transcript is a deterministic function of the configuration.
    """
    d = config.d
    if config.mode == HDDEB_MODE:
        basis = protocol_basis(d, config.theta)
        alice_obs, bob_obs = basis.alice_observables, basis.bob_observables
    else:
        alice_obs, bob_obs = _ndeb_observables(config)
    n_bases = config.num_bases

    # exact joint distribution and its flattened CDF for every basis pair
    cdfs = {}
    for a in range(n_bases):
        for b in range(n_bases):
            pure = outcome_distribution(config.state, alice_obs[a], bob_obs[b])
            probs = (1.0 - config.noise) * pure + config.noise / (d * d)
            cdfs[(a, b)] = np.cumsum(probs.ravel())

    rng = np.random.default_rng(config.rng_seed)
    a_draws = rng.integers(0, n_bases, size=config.rounds)
    b_draws = rng.integers(0, n_bases, size=config.rounds)
    u_draws = rng.random(config.rounds)

    k_out = np.empty(config.rounds, dtype=np.int64)
    kp_out = np.empty(config.rounds, dtype=np.int64)
    for (a, b), cdf in cdfs.items():
        mask = (a_draws == a) & (b_draws == b)
        if not mask.any():
            continue
        flat = np.searchsorted(cdf, u_draws[mask], side="right")
        flat = np.minimum(flat, d * d - 1)
        k_out[mask] = flat // d
        kp_out[mask] = flat % d

    labels = [np.stack([o.labels for o in obs]) for obs in (alice_obs, bob_obs)]
    transcript = Transcript(d, a_draws, b_draws, k_out, kp_out, *labels)
    return transcript, summarize(transcript)


def sift(transcript: Transcript) -> tuple[tuple[int, ...], tuple[int, ...], float, bool]:
    """Extract the key from the transcript's matched-basis rounds (a == b).

    Alice's dit is her detector index k; Bob's is (d - k') mod d, so the
    perfect-correlation support k + k' = 0 mod d turns into equal dits.
    Returns (key_alice, key_bob, agreement_rate, agreement_defined); the rate
    is flagged undefined when no round survives sifting.
    """
    d = transcript.d
    matched = transcript.a == transcript.b
    key_a = transcript.k[matched].astype(np.intp)
    key_b = (d - transcript.kp[matched].astype(np.intp)) % d
    if not len(key_a):
        return (), (), float("nan"), False
    agree = int(np.count_nonzero(key_a == key_b)) / len(key_a)
    return tuple(key_a.tolist()), tuple(key_b.tolist()), agree, True


def summarize(transcript: Transcript) -> TranscriptSummary:
    """Sift the transcript and tabulate, per basis pair (a, b), the round
    count and the mean outcome-label product alice * bob."""
    key_a, key_b, agreement, defined = sift(transcript)
    correlations: dict[tuple[int, int], complex] = {}
    counts: dict[tuple[int, int], int] = {}
    for pair, samples in _pair_samples(transcript).items():
        # a sequential sum from 0j: pairwise summation, or a start at the
        # first sample, would change the last bits or the sign of a zero
        total = np.cumsum(np.r_[0j, samples])[-1]
        correlations[pair] = complex(total) / len(samples)
        counts[pair] = len(samples)
    return TranscriptSummary(
        sift_rate=len(key_a) / len(transcript) if len(transcript) else 0.0,
        key_alice=key_a,
        key_bob=key_b,
        agreement_rate=agreement,
        agreement_defined=defined,
        pair_correlations=correlations,
        pair_counts=counts,
    )


def estimate_violation(transcript: Transcript, t: BellOperator) -> tuple[float, float]:
    """Empirical violation factor from transcript correlations.

    Each monomial's expectation is estimated by the sample mean of the complex
    outcome-label products over the rounds measured in its basis pair
    ``m.basis_pair``; the standard error combines the per-pair sample
    variances of the (real) per-round contributions, treating pairs as
    independent samples.
    """
    d = t.d
    if transcript.d != d:
        raise DimensionMismatchError(f"transcript dimension {transcript.d} != operator's {d}")
    by_pair = _pair_samples(transcript)

    starved = [m.basis_pair for m in t.monomials if m.basis_pair not in by_pair]
    if starved:
        raise InsufficientDataError(sorted(set(starved)))

    norm = classical_norm(d)
    phase = rotation_phase(d)
    v_hat = 0.0
    variance = 0.0
    for m in t.monomials:
        samples = by_pair[m.basis_pair]
        contrib = (phase * m.coefficient * samples).real / norm
        n = len(contrib)
        v_hat += float(contrib.mean())
        if n > 1:
            variance += float(contrib.var(ddof=1)) / n
    return v_hat, float(np.sqrt(variance))


def correlation_spectrum(state: EntangledState) -> np.ndarray:
    """Distribution of k + k' mod d under matched geometric bases.

    P(m) = |c_m|^2 / d with c_m = sum_j delta_j omega^{jm}.  It does not
    depend on the base phase theta or the basis index: for matched
    conjugate-paired geometric bases those phase factors cancel between the
    parties.

    P(0) < 1 means matched-basis outcomes are not perfectly correlated and
    the state leaks key errors even on a noiseless channel.
    """
    d = state.d
    w = roots_of_unity(d)
    m = np.arange(d)
    c = (state.deltas[np.newaxis, :] * w[np.newaxis, :] ** m[:, np.newaxis]).sum(axis=1)
    return np.abs(c) ** 2 / d


def transcript_csv_string(transcript: Transcript) -> str:
    """Transcript export: header ``round,a,b,k,k'`` and one row per round,
    every line ended by ``\\r\\n`` as ``csv.writer`` ends them."""
    n = len(transcript)
    cells = np.column_stack(
        (np.arange(n), transcript.a, transcript.b, transcript.k, transcript.kp)
    )
    return "round,a,b,k,k'\r\n" + ("%d,%d,%d,%d,%d\r\n" * n) % tuple(cells.ravel().tolist())


def write_transcript_csv(transcript: Transcript, path) -> None:
    """Write ``transcript_csv_string(transcript)`` to ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(transcript_csv_string(transcript))
