"""Dense d^2 x d^2 route for noisy states, kept only as a test oracle.

The library represents isotropic noise N as a (1 - N) weight on a pure
Schmidt state.  These helpers build the noisy density matrix itself and read
the Bell operator off it by the trace, independently of that shortcut.
"""
import numpy as np

from quditbell.bell import monomial_observables


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
