"""Dense d^2 x d^2 routes, kept only as test oracles.

The library represents isotropic noise N as a (1 - N) weight on a pure
Schmidt state.  These helpers build the noisy density matrix itself and read
the Bell operator off it by the trace, independently of that shortcut.
``kron_violation`` is the np.kron loop that ``bell.violation`` must match bit
for bit.
"""
import numpy as np

from quditbell.bell import classical_norm, monomial_observables, rotation_phase


def noisy_density(state, noise: float) -> np.ndarray:
    """rho = N I/d^2 + (1 - N) |psi><psi| as a plain d^2 x d^2 array."""
    n = state.d * state.d
    v = state.vector
    return noise * np.eye(n) / n + (1 - noise) * np.outer(v, v.conj())


def bell_matrix(t, basis) -> np.ndarray:
    """T = sum_m c_m kron(A_m, B_m), the Bell operator as a d^2 x d^2 matrix."""
    return sum(
        m.coefficient * np.kron(*(obs.matrix for obs in monomial_observables(m, basis)))
        for m in t.monomials
    )


def dense_violation(rho: np.ndarray, t, basis) -> float:
    """Re(e^{i pi/d} Tr(rho T)) / (d^2 cos(pi/d))."""
    d = t.d
    value = np.exp(1j * np.pi / d) * np.trace(rho @ bell_matrix(t, basis))
    return float(value.real / (d * d * np.cos(np.pi / d)))


def kron_violation(state, t, basis) -> float:
    """violation() the np.kron way: per monomial, K = kron(A, B) and
    state.vector.conj() @ K @ state.vector, summed in monomial order."""
    d = t.d
    total = 0j
    for m in t.monomials:
        a_obs, b_obs = monomial_observables(m, basis)
        v = state.vector
        total += m.coefficient * complex(v.conj() @ np.kron(a_obs.matrix, b_obs.matrix) @ v)
    return float((rotation_phase(d) * total).real / classical_norm(d))
