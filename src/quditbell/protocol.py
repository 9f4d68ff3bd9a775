"""Monte-Carlo simulation of the entanglement-based key-distribution rounds.

Each round, Alice and Bob independently pick one measurement basis uniformly
at random, measure their halves of a shared entangled pair, and record which
detector fired.  Rounds with matching basis choices are sifted into key dits.
The Bell-violation estimate used to detect eavesdropping scores the rounds of
every pair (a, b) whose coefficient C[a, b] is nonzero, matched pairs included.

A run's rounds are kept as one columnar :class:`Transcript`: the run's
settings, one ``bell.BasisAssignment``, plus integer columns for Alice's basis
a, Bob's basis b and the detectors k, k' that fired, and no per-round value.
The summary and the violation estimate find each basis pair's rounds through
the transcript's pair index and look them up at (k, k') in a (d, d) table:
the label products P, or the pair's scores W[a, b] (``BellOperator.score_tables``).

A mode is one entry of ``MODES``: its settings builder and its Bell check (or None).

* ``hdDEB``: ``bell.protocol_basis``, d bases per party, the a-th realizing the
  homogeneous monomial A1^{d-1-a} A2^a built from conjugate-paired generator
  phases, so that matched bases are (for uniform Schmidt coefficients) perfectly
  anti-correlated in detector index: k + k' = 0 mod d.  Its check is the
  built-in hCHSH-d operator at d = 3..5, None at any other d.
* ``NDEB``: ``bell.ndeb_basis``, 4 single-ditter geometric bases per party (the
  predecessor protocol's key-generation path); its check is None until CGLMP-d.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import DimensionMismatchError, EntangledState, roots_of_unity
from .bell import (
    BUILTIN_POLYS, BasisAssignment, BellOperator, builtin_operator, ndeb_basis, protocol_basis,
)
from .ditter import ditter_unitaries, outcome_distribution

HDDEB_MODE = "hdDEB"
NDEB_MODE = "NDEB"
#: mode -> (its settings from (d, theta), its Bell check at d, or None: no score)
MODES = {
    HDDEB_MODE: (protocol_basis, lambda d: builtin_operator(d) if d in BUILTIN_POLYS else None),
    NDEB_MODE: (ndeb_basis, lambda d: None),
}
_CSV_CHUNK = 65_536  # transcript rounds rendered to CSV at a time


class InsufficientDataError(RuntimeError):
    """Violation estimation needs at least one round in each basis pair (a, b)
    whose coefficient C[a, b] is nonzero; ``pairs`` lists those that had none."""

    def __init__(self, pairs: Sequence[tuple[int, int]]):
        self.pairs = tuple(pairs)
        super().__init__(
            "no rounds recorded for basis pair(s): "
            + ", ".join(f"(a={a}, b={b})" for a, b in self.pairs)
        )


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    state: EntangledState
    noise: float = 0.0
    theta: complex | None = None
    rounds: int = 10_000
    rng_seed: int = 0
    mode: str = HDDEB_MODE

    def __post_init__(self):
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise fraction must be in [0, 1], got {self.noise}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}")

    @cached_property
    def settings(self) -> BasisAssignment:
        """Both parties' settings, built once per config by the mode's builder in MODES."""
        return MODES[self.mode][0](self.state.d, self.theta)

    @cached_property
    def check(self) -> BellOperator | None:
        """The mode's Bell check at d from MODES, built once per config; None: no score."""
        return MODES[self.mode][1](self.state.d)


@dataclass(frozen=True, eq=False)
class Transcript:
    """The rounds of one run as columns; row i is round i.

    ``settings`` are the run's measurement settings, one (bases, d) phase table
    per party.  ``a`` and ``b`` are the basis choices, ``k`` and ``kp`` the
    detectors that fired (``k'`` in the CSV); detector k reports the complex
    label ``settings.label_convention.labels(d)[k]``.  The columns are stored
    read-only in the narrowest unsigned dtype; ``pair_rounds`` is their pair index.
    """

    settings: BasisAssignment
    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    kp: np.ndarray

    def __post_init__(self):
        table = self.settings.phase_tables[0]
        if table.ndim != 2:
            raise ValueError(f"transcript settings must be (bases, d) tables, not {table.shape}")
        bases, d = table.shape
        bounds = {"a": bases, "b": bases, "k": d, "kp": d}
        dtype = np.min_scalar_type(max(bounds.values()))
        shape = np.shape(self.a)
        for name, bound in bounds.items():
            column = np.asarray(getattr(self, name))
            if len(shape) != 1 or column.shape != shape:
                raise ValueError("transcript columns must be one-dimensional and of equal length")
            if len(column) and not np.issubdtype(column.dtype, np.integer):
                raise ValueError(f"column {name} must hold integers, not {column.dtype}")
            if len(column) and (column.min() < 0 or column.max() >= bound):
                raise ValueError(f"column {name} out of range [0, {bound})")
            column = column.astype(dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def d(self) -> int:
        return self.settings.phase_tables[0].shape[-1]

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def pair_rounds(self) -> dict[tuple[int, int], np.ndarray]:
        """The pair index: ``_pair_rounds`` of the basis columns, or the sampler's own."""
        return _pair_rounds(self.a, self.b, len(self.settings.phase_tables[0]))


def _pair_rounds(a: np.ndarray, b: np.ndarray, n_b: int) -> dict[tuple[int, int], np.ndarray]:
    """Read-only round indices grouped by basis pair (a, b): pairs in order of
    first appearance, each pair's indices in round order."""
    code = a.astype(np.intp) * n_b + b
    order = np.argsort(code, kind="stable")
    order.flags.writeable = False
    sorted_code = code[order]  # stable: each group starts at its pair's first round
    # a group starts where the sorted code changes; the slice keeps 0 rounds at 0 groups
    starts = np.flatnonzero(np.r_[True, sorted_code[1:] != sorted_code[:-1]][: len(code)])
    ends = np.append(starts[1:], len(code))
    return {
        divmod(int(sorted_code[starts[g]]), n_b): order[starts[g] : ends[g]]
        for g in np.argsort(order[starts])
    }


@dataclass(frozen=True)
class TranscriptSummary:
    sift_rate: float
    key_alice: tuple[int, ...]
    key_bob: tuple[int, ...]
    agreement_rate: float | None
    pair_correlations: dict[tuple[int, int], complex]
    pair_counts: dict[tuple[int, int], int]

    def to_dict(self) -> dict:
        """JSON-friendly rendering: complex correlations as [re, im], no rate as None."""
        return {
            "sift_rate": self.sift_rate,
            "key_alice": list(self.key_alice),
            "key_bob": list(self.key_bob),
            "agreement_rate": self.agreement_rate,
            "agreement_defined": self.agreement_rate is not None,
            "pair_correlations": {
                f"{a},{b}": [c.real, c.imag]
                for (a, b), c in sorted(self.pair_correlations.items())
            },
            "pair_counts": {
                f"{a},{b}": n for (a, b), n in sorted(self.pair_counts.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def sample_rounds(config: ProtocolConfig) -> Transcript:
    """Simulate the full round sequence with a seeded generator.

    Basis indices are drawn uniformly and independently for both parties;
    detector outcomes are sampled from the exact joint distribution of the
    noisy state N I/d^2 + (1 - N)|psi><psi| under the chosen ditter pair,
    which is (1 - N) |U_A diag(delta) U_B^T|^2 + N/d^2 for N = config.noise.
    The transcript, whose pair index is the sampler's, is a deterministic
    function of the configuration.
    """
    d, settings = config.state.d, config.settings
    alice_u, bob_u = (ditter_unitaries(table) for table in settings.phase_tables)
    n_bases = len(alice_u)

    rng = np.random.default_rng(config.rng_seed)
    a_draws = rng.integers(0, n_bases, size=config.rounds)
    b_draws = rng.integers(0, n_bases, size=config.rounds)
    u_draws = rng.random(config.rounds)

    # each drawn basis pair samples its rounds from its exact joint distribution
    flat = np.empty(config.rounds, dtype=np.intp)  # detector pair k * d + k'
    for (a, b), idx in (pairs := _pair_rounds(a_draws, b_draws, n_bases)).items():
        pure = outcome_distribution(config.state, alice_u[a], bob_u[b])
        cdf = np.cumsum(((1.0 - config.noise) * pure + config.noise / (d * d)).ravel())
        flat[idx] = np.minimum(np.searchsorted(cdf, u_draws[idx], side="right"), d * d - 1)

    transcript = Transcript(settings, a_draws, b_draws, flat // d, flat % d)
    object.__setattr__(transcript, "pair_rounds", pairs)  # its narrowed columns' index too
    return transcript


def run_protocol(config: ProtocolConfig) -> tuple[Transcript, TranscriptSummary]:
    """``sample_rounds(config)`` and its ``summarize``."""
    return (transcript := sample_rounds(config)), summarize(transcript)


def sift(transcript: Transcript) -> tuple[tuple[int, ...], tuple[int, ...], float | None]:
    """Extract the key from the transcript's matched-basis rounds (a == b).

    Alice's dit is her detector index k; Bob's is (d - k') mod d, so the
    perfect-correlation support k + k' = 0 mod d turns into equal dits.
    Returns (key_alice, key_bob, agreement_rate); the rate is None when no
    round survives sifting.
    """
    d = transcript.d
    matched = transcript.a == transcript.b
    key_a = transcript.k[matched].astype(np.intp)
    key_b = (d - transcript.kp[matched].astype(np.intp)) % d
    if not len(key_a):
        return (), (), None
    agree = int(np.count_nonzero(key_a == key_b)) / len(key_a)
    return tuple(key_a.tolist()), tuple(key_b.tolist()), agree


def summarize(transcript: Transcript) -> TranscriptSummary:
    """Sift the transcript (agreement rate None if nothing is sifted) and tabulate, per
    basis pair (a, b) of ``pair_rounds``, the round count and the mean label product P[k, k']."""
    key_a, key_b, agreement = sift(transcript)
    products = transcript.settings.label_convention.products(transcript.d)
    correlations: dict[tuple[int, int], complex] = {}
    counts: dict[tuple[int, int], int] = {}
    for pair, idx in transcript.pair_rounds.items():
        # a sequential sum from 0j: pairwise summation, or a start at the
        # first sample, would change the last bits or the sign of a zero
        total = np.cumsum(np.r_[0j, products[transcript.k[idx], transcript.kp[idx]]])[-1]
        correlations[pair] = complex(total) / len(idx)
        counts[pair] = len(idx)
    return TranscriptSummary(
        sift_rate=len(key_a) / len(transcript) if len(transcript) else 0.0,
        key_alice=key_a,
        key_bob=key_b,
        agreement_rate=agreement,
        pair_correlations=correlations,
        pair_counts=counts,
    )


def estimate_violation(transcript: Transcript, t: BellOperator) -> tuple[float, float]:
    """Empirical violation factor from transcript correlations.

    A round of basis pair (a, b) whose detectors k, k' fired scores W[a, b][k, k'],
    one of ``t.score_tables``.  The estimate sums the pairs' mean scores over the
    nonzero coefficients C[a, b] in row-major order; a pair whose coefficient is 0
    needs no rounds.  The standard error combines the per-pair sample variances of
    the scores, treating pairs as independent samples.
    """
    if (shape := transcript.settings.phase_tables[0].shape) != (t.d, t.d):
        raise DimensionMismatchError(f"transcript tables {shape} != operator's ({t.d}, {t.d})")
    tables = t.score_tables(transcript.settings.label_convention)
    starved = [(a, b) for a, b, _ in tables if (a, b) not in transcript.pair_rounds]
    if starved:
        raise InsufficientDataError(starved)

    v_hat = variance = 0.0
    for a, b, scores in tables:
        idx = transcript.pair_rounds[a, b]
        contrib = scores[transcript.k[idx], transcript.kp[idx]]
        v_hat += float(contrib.mean())
        if len(idx) > 1:
            variance += float(contrib.var(ddof=1)) / len(idx)
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


def _csv_cells(values: np.ndarray, end: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Each value's right-aligned ASCII digits and ``end`` as a uint8 column, and a keep mask."""
    width = len(str(int(values.max()))) if len(values) else 1
    text = np.empty((width + len(end), len(values)), dtype=np.uint8)
    text[width:] = np.frombuffer(end, dtype=np.uint8)[:, np.newaxis]
    rest = values
    for row in range(width - 1, -1, -1):
        quotient = rest // 10
        text[row], rest = rest - quotient * 10 + ord("0"), quotient
    # keep a digit where the value reaches its place; place 0 keeps the units and end
    places = np.r_[10 ** np.arange(width - 1, 0, -1), [0] * (1 + len(end))]
    return text, values >= places.astype(values.dtype)[:, np.newaxis]


def _csv_chunks(t: Transcript):
    """The transcript CSV as bytes: the header, then one buffer per chunk of
    rounds, its a, b, k, k' cells taken from tables over t's own bounds."""
    yield b"round,a,b,k,k'\r\n"
    bases, d = t.settings.phase_tables[0].shape
    bounds, ends = (bases, bases, d, d), (b",",) * 3 + (b"\r\n",)
    tables = [_csv_cells(np.arange(n, dtype=t.a.dtype), end) for n, end in zip(bounds, ends)]
    for start in range(0, len(t), _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, len(t))
        cells = [_csv_cells(np.arange(start, stop, dtype=np.min_scalar_type(stop)), b",")]
        for table, column in zip(tables, (t.a, t.b, t.k, t.kp)):
            cells.append([np.take(part, column[start:stop], axis=1) for part in table])
        text, keep = (np.vstack(parts).T.ravel() for parts in zip(*cells))
        yield np.compress(keep, text).tobytes()


def transcript_csv_string(transcript: Transcript) -> str:
    """Transcript export: header ``round,a,b,k,k'`` and one row per round,
    every line ended by ``\\r\\n`` as ``csv.writer`` ends them."""
    return b"".join(_csv_chunks(transcript)).decode("ascii")


def write_transcript_csv(transcript: Transcript, path) -> None:
    """Write ``transcript_csv_string(transcript)`` to ``path``, chunk by chunk."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_chunks(transcript))
