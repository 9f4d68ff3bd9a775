"""Dense d^2 x d^2 routes, kept only as test oracles.

The library represents isotropic noise N as a (1 - N) weight on a pure
Schmidt state.  These helpers build the noisy density matrix itself and read
the Bell operator off it by the trace, independently of that shortcut.
``kron_violation`` is the np.kron loop that ``bell.violation`` and each v of
``bell.violation_stack`` must match bit for bit, and ``observable_table_loop``
the one-observable-at-a-time table build that a BasisAssignment's phase
tables and matrices must match byte for byte.  ``optimize_basis_loop``
and ``theta_scan_two_pass`` are the basis searches as separate loops over
``kron_violation``, one basis at a time, which ``optimize_basis`` and
``theta_scan`` must match in the value and in the basis chosen.
``Ditter`` is the single-device view of one phase row: its matrix comes
from ``_observable_matrix``, its unitary is F @ diag(Theta) and its labels
are its convention's, none of them from the library's stacked builders, so
``kron_violation`` and ``bell_matrix`` share no matrix-building code with
``bell.violation_stack``.
``observables`` reads any BasisAssignment, a Bell basis or a protocol
config's settings, as one Ditter per table row; ``ndeb_observables``
builds the NDEB settings one device at a time.
``pair_samples_loop`` multiplies out every round's outcome-label product,
and ``pair_correlations_loop`` and ``estimate_violation_loop`` are the
summary's correlations and the violation estimate computed from those
products, which the table lookups of ``summarize`` and ``estimate_violation``
must match bit for bit.
``lhv_max_loop`` is the local-realism maximum one deterministic strategy at
a time, and ``per_setting_bound`` the maximum of the wider local model that
gives each of the d settings per party its own outcome.  ``rotation_phase``
and ``classical_norm`` compute the hCHSH-d constants here, not from the
``BellOperator`` under test, so every oracle stays independent of its
attributes.
"""
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from quditbell.algebra import complex_product, fourier_matrix
from quditbell.bell import (
    CANONICAL_EXPONENTS, assignment_candidates, exponent_basis, reference_theta
)
from quditbell.ditter import LabelConvention, PhaseVector, geometric_phases
from quditbell.protocol import InsufficientDataError


def rotation_phase(d: int) -> complex:
    """e^{i pi/d}."""
    return np.exp(1j * np.pi / d)


def classical_norm(d: int) -> float:
    """The local bound d^2 cos(pi/d)."""
    return d * d * np.cos(np.pi / d)


@dataclass(frozen=True)
class Ditter:
    """One ditter read with one label convention: Z_Theta under standard labels,
    Z_Theta^dag under conjugate ones."""

    phases: PhaseVector
    label_convention: LabelConvention = LabelConvention.STANDARD

    @cached_property
    def matrix(self) -> np.ndarray:
        return _observable_matrix(self.phases.thetas,
                                  self.label_convention is LabelConvention.CONJUGATE)

    @cached_property
    def ditter_unitary(self) -> np.ndarray:
        """F @ diag(Theta), the transformation applied before detection."""
        return fourier_matrix(self.phases.d) @ np.diag(self.phases.thetas)

    @property
    def labels(self) -> np.ndarray:
        """Complex outcome label reported by each detector index."""
        return self.label_convention.labels(self.phases.d)


def observables(basis, party: int) -> list:
    """One Ditter per row of the basis's phase table for party 0 (Alice) or
    1 (Bob), each with the basis's label convention."""
    return [Ditter(PhaseVector(len(row), row), basis.label_convention)
            for row in basis.phase_tables[party]]


def factors(a: int, b: int, basis):
    """Alice's a-th and Bob's b-th devices, looked up one at a time."""
    return observables(basis, 0)[a], observables(basis, 1)[b]


def entries(t) -> list:
    """(a, b, C[a, b]) of every nonzero coefficient, walking C in row-major order
    and taking each as a Python complex."""
    return [(a, b, complex(c)) for (a, b), c in np.ndenumerate(t.coefficients) if c != 0]


def ndeb_observables(d: int, theta=None) -> tuple[list, list]:
    """The NDEB settings built one device at a time: four geometric
    single-ditter bases per party, Bob's in the conjugate phase family."""
    theta = theta if theta is not None else reference_theta(d)
    alice = [Ditter(geometric_phases(d, theta, a, +1)) for a in range(4)]
    bob = [Ditter(geometric_phases(d, theta, b, -1)) for b in range(4)]
    return alice, bob


def noisy_density(state, noise: float) -> np.ndarray:
    """rho = N I/d^2 + (1 - N) |psi><psi| as a plain d^2 x d^2 array."""
    n = state.d * state.d
    v = state.vector
    return noise * np.eye(n) / n + (1 - noise) * np.outer(v, v.conj())


def bell_matrix(t, basis) -> np.ndarray:
    """T = sum_{a,b} C[a, b] kron(A_a, B_b), the Bell operator as a d^2 x d^2 matrix."""
    return sum(c * np.kron(*(obs.matrix for obs in factors(a, b, basis)))
               for a, b, c in entries(t))


def dense_violation(rho: np.ndarray, t, basis) -> float:
    """Re(e^{i pi/d} Tr(rho T)) / (d^2 cos(pi/d))."""
    d = t.d
    value = np.exp(1j * np.pi / d) * np.trace(rho @ bell_matrix(t, basis))
    return float(value.real / (d * d * np.cos(np.pi / d)))


def kron_violation(state, t, basis) -> float:
    """violation() the np.kron way: per nonzero C[a, b], K = kron(A_a, B_b) and
    state.vector.conj() @ K @ state.vector, summed in row-major order."""
    d, v = t.d, state.vector
    alice, bob = observables(basis, 0), observables(basis, 1)
    total = 0j
    for a, b, c in entries(t):
        total += c * complex(v.conj() @ np.kron(alice[a].matrix, bob[b].matrix) @ v)
    return float((rotation_phase(d) * total).real / classical_norm(d))


def product_phases_loop(theta, lam, i: int) -> np.ndarray:
    """Gamma of Z_Theta^i Z_Lambda^(d-1-i) one entry at a time, each a product
    of two numpy complex scalars."""
    d = theta.d
    idx = np.arange(d)
    gammas = np.empty(d, dtype=complex)
    for k in range(d):
        th_part = theta.thetas[(k + idx[: d - i]) % d].prod()
        la_part = lam.thetas[(k - i + idx[: i + 1]) % d].prod()
        gammas[k] = th_part * la_part
    return gammas


def _observable_matrix(thetas: np.ndarray, conjugate: bool) -> np.ndarray:
    """Z_Theta = sum_k theta_k theta*_{k+1} |k+1><k|, or its adjoint."""
    d = len(thetas)
    z = np.zeros((d, d), dtype=complex)
    rows = (np.arange(d) + 1) % d
    z[rows, np.arange(d)] = thetas * thetas[rows].conj()
    return z.conj().T if conjugate else z


def observable_table_loop(x, y) -> tuple[np.ndarray, np.ndarray, bool]:
    """(phase table, matrix stack, conjugate labels?) of the d observables
    X^{d-1-a} Y^a built one at a time: the pure powers are the generators
    themselves (conjugate labels unless d - 1 = 1), the mixed ones product
    ditters (always conjugate labels)."""
    d = x.d
    rows = [x.thetas, *(product_phases_loop(x, y, d - 1 - a)
                        for a in range(1, d - 1)), y.thetas]
    conjugate = d - 1 != 1
    return np.array(rows), np.array([_observable_matrix(r, conjugate) for r in rows]), conjugate


def optimize_basis_loop(state, t, theta=None):
    """(basis, v) of the first candidate whose violation beats every earlier one."""
    best_v = -np.inf
    best_basis = None
    for basis in assignment_candidates(t.d, theta):
        v = kron_violation(state, t, basis)
        if v > best_v:
            best_v, best_basis = v, basis
    return best_basis, float(best_v)


def theta_scan_two_pass(state, t, num_points: int) -> tuple[complex, float]:
    """(theta, v) of the canonical exponents' best grid phase, then of the best
    of 21 phases spanning one grid step either side of it."""
    def scan(phis):
        vs = np.array(
            [kron_violation(state, t, exponent_basis(t.d, CANONICAL_EXPONENTS, np.exp(1j * p)))
             for p in phis]
        )
        i = int(np.argmax(vs))
        return phis[i], float(vs[i])

    phi, v = scan(np.linspace(0.0, 2 * np.pi, num_points, endpoint=False))
    step = 2 * np.pi / num_points
    phi, v = scan(np.linspace(phi - step, phi + step, 21))
    return complex(np.exp(1j * phi)), v


def pair_rounds_loop(transcript) -> dict:
    """Round indices by basis pair (a, b), one round at a time: pairs in order
    of first appearance, each pair's rounds in round order."""
    groups: dict = {}
    for i, pair in enumerate(zip(transcript.a.tolist(), transcript.b.tolist())):
        groups.setdefault(pair, []).append(i)
    return {pair: np.array(idx, dtype=np.intp) for pair, idx in groups.items()}


def pair_samples_loop(transcript) -> dict:
    """Every round's outcome-label product alice * bob by basis pair: the two
    labels gathered per round and multiplied as Python multiplies complex numbers."""
    labels = transcript.settings.label_convention.labels(transcript.d)
    return {pair: complex_product(labels[transcript.k[idx]], labels[transcript.kp[idx]])
            for pair, idx in pair_rounds_loop(transcript).items()}


def pair_correlations_loop(transcript) -> dict:
    """Per basis pair, the sequential sum from 0j of its products over its rounds."""
    return {pair: complex(np.cumsum(np.r_[0j, products])[-1]) / len(products)
            for pair, products in pair_samples_loop(transcript).items()}


def estimate_violation_loop(transcript, t) -> tuple[float, float]:
    """(v, stderr) from the per-round products: per nonzero C[a, b] in row-major
    order, Re(rotation_phase * C[a, b] * products) / (d^2 cos(pi/d)), its mean
    and its var(ddof=1) / n; InsufficientDataError names every such pair with
    no rounds."""
    d = t.d
    by_pair = pair_samples_loop(transcript)
    terms = entries(t)
    starved = [(a, b) for a, b, _ in terms if (a, b) not in by_pair]
    if starved:
        raise InsufficientDataError(starved)
    phase, norm = rotation_phase(d), classical_norm(d)
    v_hat, variance = 0.0, 0.0
    for a, b, c in terms:
        contrib = (phase * c * by_pair[a, b]).real / norm
        v_hat += float(contrib.mean())
        if len(contrib) > 1:
            variance += float(contrib.var(ddof=1)) / len(contrib)
    return v_hat, float(np.sqrt(variance))


def lhv_max_loop(t) -> float:
    """max over all d^4 deterministic strategies A1 = w^x1, A2 = w^x2, B1 = w^y1,
    B2 = w^y2 of Re(rotation_phase * T) / (d^2 cos(pi/d)), T summed one monomial
    C[a, b] A1^(d-1-a) A2^a B1^(d-1-b) B2^b at a time."""
    d = t.d
    w = np.exp(2j * np.pi / d)
    best = -np.inf
    for x1, x2, y1, y2 in itertools.product(range(d), repeat=4):
        total = sum(c * w ** (((d - 1 - a) * x1 + a * x2 + (d - 1 - b) * y1 + b * y2) % d)
                    for a, b, c in entries(t))
        best = max(best, (rotation_phase(d) * total).real / classical_norm(d))
    return float(best)


def per_setting_bound(t, convention) -> float:
    """max over every outcome x_a of each of Alice's d settings and y_b of each
    of Bob's of sum_{a,b} W[a, b][x_a, y_b], W the operator's score tables: per
    row x of Alice's d^d, each b takes its own best y, so sum_b max_y sum_a."""
    d = t.d
    w = np.zeros((d, d, d, d))
    for a, b, table in t.score_tables(convention):
        w[a, b] = table
    rows = np.array(list(itertools.product(range(d), repeat=d)))
    by_bob = sum(w[a][:, rows[:, a], :] for a in range(d))  # (b, row, y)
    return float(by_bob.max(axis=-1).sum(axis=0).max())
