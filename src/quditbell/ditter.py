"""Ditter (multiport beam splitter) measurement devices.

A ditter applies the unitary F @ diag(theta_0..theta_{d-1}) to a qudit, after
which d detectors read out the computational basis.  The combination realizes
a unitary observable with d-th-root-of-unity outcomes:

    Z_Theta = D_{Theta*} F^dag Z F D_Theta
            = sum_k theta_k theta*_{k+1} |k+1><k|        (indices mod d)

Products Z_Theta^i Z_Lambda^j with i + j = d - 1 are again single-ditter
observables, up to detecting Z^dag instead of Z, i.e. relabeling detector k
from omega^k to omega^{-k}: Z_Theta^i Z_Lambda^j = Z_Gamma^dag, where Gamma,
mixed row j of party_phase_table(Theta, Lambda) for 1 <= i <= d-2, is

    gamma_k = theta_k theta_{k+1} .. theta_{k-i-1}
              * lambda_{k-i} lambda_{k-i+1} .. lambda_k   (indices mod d)

which is the particular solution this library fixes as canonical.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import (
    DimensionMismatchError, EntangledState, complex_product, fourier_matrix, roots_of_unity
)

PHASE_TOL = 1e-9


class InvalidPhaseError(ValueError):
    """A phase-shift entry is not unit modulus."""


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """d-tuple of unit-modulus phase shifts parameterizing one ditter, or (..., d) stacked."""

    d: int
    thetas: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=complex)
        if thetas.shape[-1:] != (self.d,):
            raise DimensionMismatchError(
                f"expected {self.d} phases, got shape {thetas.shape}"
            )
        if not (np.abs(np.abs(thetas) - 1.0) <= PHASE_TOL).all():  # NaN fails too
            raise InvalidPhaseError("phase entries must have unit modulus")
        object.__setattr__(self, "thetas", thetas)


class LabelConvention(enum.Enum):
    """How detector index k maps to the complex outcome label.

    STANDARD: detector k reports omega^k (plain Z detection).
    CONJUGATE: detector k reports omega^{-k} (Z^dag detection; physically a
    permutation of the detectors).
    """

    STANDARD = "standard"
    CONJUGATE = "conjugate"

    def labels(self, d: int) -> np.ndarray:
        """Complex outcome label reported by each of the d detector indices."""
        w = roots_of_unity(d)
        return w.conj() if self is LabelConvention.CONJUGATE else w

    def products(self, d: int) -> np.ndarray:
        """(d, d) table P[k, k'] = labels[k] * labels[k'], as Python multiplies them."""
        return complex_product(*np.ix_(self.labels(d), self.labels(d)))


def geometric_phases(d: int, base: complex | np.ndarray, a: int | np.ndarray,
                     sign: int = 1) -> PhaseVector:
    """Phase vector (1, theta^a, theta^{2a}, ..) with theta = base, or its
    conjugate family for sign = -1; an array of bases, or an (n, 1) array of
    exponents a, gives their stack."""
    base = np.asarray(base, dtype=complex)
    if not (abs(abs(base) - 1.0) <= PHASE_TOL).all():  # NaN fails too
        raise InvalidPhaseError(f"base phase must be unit modulus, got |{base}|")
    return PhaseVector(d, base[..., np.newaxis] ** (sign * a * np.arange(d)))


def party_phase_table(x: PhaseVector, y: PhaseVector) -> np.ndarray:
    """(..., d, d) table(s), row a the phase vector of X^{d-1-a} Y^a: X and Y at
    a = 0, d-1, else gamma above (i = d-1-a) from running products of the shifted
    generators."""
    if y.d != x.d:
        raise DimensionMismatchError("phase vectors have different dimensions")
    shifts, (kx, jx), (ky, jy) = _indices(x.d)
    cx, cy = x.thetas[..., shifts].cumprod(axis=-1), y.thetas[..., shifts].cumprod(axis=-1)
    mixed = complex_product(cx[..., kx, jx], cy[..., ky, jy])
    return np.concatenate([x.thetas[..., None, :], mixed, y.thetas[..., None, :]], axis=-2)


@cache
def _indices(d: int) -> tuple:
    """Index arrays at dimension d: the cyclic shifts (row s holds k + s mod d), then
    where party_phase_table's mixed rows read X's and Y's running products."""
    k, i = np.arange(d), np.arange(d - 2, 0, -1)[:, np.newaxis]  # i = d-1-a, a = 1..d-2
    return (k[:, np.newaxis] + k) % d, (k, d - 1 - i), ((k - i) % d, i)


def observable_matrices(thetas: np.ndarray, convention: LabelConvention) -> np.ndarray:
    """(n, d, d) stack of Z_Theta, or Z_Theta^dag if CONJUGATE, one per row of thetas."""
    n, d = thetas.shape
    k, up = _indices(d)[0][:2]
    z = np.zeros((n, d, d), dtype=complex)
    z[:, up, k] = thetas * thetas[:, up].conj()
    return z.conj().transpose(0, 2, 1) if convention is LabelConvention.CONJUGATE else z


def ditter_unitaries(thetas: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of ditter unitaries F @ diag(Theta), one per row of thetas."""
    return fourier_matrix(thetas.shape[1]) * thetas[:, np.newaxis, :]


def outcome_distribution(state: EntangledState, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Joint detector statistics P(k, k') of both parties' ditters, given as
    their (d, d) unitaries U_A and U_B, acting on the pure state
    sum_j delta_j |jj>, as a (d, d) array indexed (k Alice, k' Bob).

    The amplitude of |kk'> is sum_j U_A[k, j] U_B[k', j] delta_j, so

        P = |U_A diag(delta) U_B^T|^2   (elementwise)

    with no d^2 x d^2 operator.  Isotropic noise N mixes it with the uniform
    table: (1 - N) P + N / d^2.
    """
    if np.shape(alice) != (state.d, state.d) or np.shape(bob) != (state.d, state.d):
        raise DimensionMismatchError("state and ditter unitaries must share one dimension")
    amps = (alice * state.deltas) @ bob.T
    return np.abs(amps) ** 2
