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
``observables`` reads any BasisAssignment, a Bell basis or a protocol
config's settings, as one DitterObservable per table row; ``ndeb_observables``
builds the NDEB settings one observable at a time.
"""
import numpy as np

from quditbell.bell import (
    CANONICAL_EXPONENTS,
    assignment_candidates,
    classical_norm,
    exponent_basis,
    reference_theta,
    rotation_phase,
)
from quditbell.ditter import DitterObservable, PhaseVector, ditter_observable, geometric_phases


def observables(basis, party: int) -> list:
    """One DitterObservable per row of the basis's phase table for party 0
    (Alice) or 1 (Bob), each with the basis's label convention."""
    return [DitterObservable(PhaseVector(len(row), row), basis.label_convention)
            for row in basis.phase_tables[party]]


def factors(a: int, b: int, basis):
    """Alice's a-th and Bob's b-th observable objects, looked up one at a time."""
    return observables(basis, 0)[a], observables(basis, 1)[b]


def entries(t) -> list:
    """(a, b, C[a, b]) of every nonzero coefficient, walking C in row-major order
    and taking each as a Python complex."""
    return [(a, b, complex(c)) for (a, b), c in np.ndenumerate(t.coefficients) if c != 0]


def ndeb_observables(d: int, theta=None) -> tuple[list, list]:
    """The NDEB settings built one observable at a time: four geometric
    single-ditter bases per party, Bob's in the conjugate phase family."""
    theta = theta if theta is not None else reference_theta(d)
    alice = [ditter_observable(geometric_phases(d, theta, a, +1)) for a in range(4)]
    bob = [ditter_observable(geometric_phases(d, theta, b, -1)) for b in range(4)]
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
