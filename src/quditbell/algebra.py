"""Dense complex linear algebra for qudits and qudit pairs.

Everything downstream (ditter observables, Bell operators, the protocol
simulator) works with plain numpy arrays in dimension d or d*d.  States of an
entangled pair are kept in Schmidt-diagonal form sum_j delta_j |jj>, expanded
to a d*d vector on demand with the Alice index major: basis element |k k'> sits
at flat index k*d + k'.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL = 1e-12


class InvalidDimensionError(ValueError):
    """Dimension is not a supported qudit dimension (d >= 2)."""


class DegenerateStateError(ValueError):
    """State coefficients are all zero and cannot be normalized."""


class DimensionMismatchError(ValueError):
    """Operands live in different qudit dimensions."""


def omega(d: int) -> complex:
    """Primitive d-th root of unity e^{2i pi/d}."""
    return np.exp(2j * np.pi / d)


def roots_of_unity(d: int) -> np.ndarray:
    """All d-th roots of unity, omega^0 .. omega^{d-1}."""
    return np.exp(2j * np.pi * np.arange(d) / d)


def complex_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise x * y rounded as Python's complex multiply rounds it;
    numpy's complex multiply can differ from it in the last bit."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    real = xr * yr - xi * yi
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = xr * yi + xi * yr
    return out


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary discrete Fourier matrix, entry (k,l) = omega^{kl} / sqrt(d).

    The 1/sqrt(d) factor is folded in here so that a ditter unitary is simply
    fourier_matrix(d) @ diag(phases).
    """
    if d < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {d}")
    k = np.arange(d)
    return omega(d) ** np.outer(k, k) / np.sqrt(d)


@dataclass(frozen=True, eq=False)
class EntangledState:
    """Bipartite qudit state sum_j delta_j |jj> with unit-norm coefficients."""

    d: int
    deltas: np.ndarray

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=complex)
        if deltas.shape != (self.d,):
            raise DimensionMismatchError(
                f"expected {self.d} coefficients, got shape {deltas.shape}"
            )
        norm = np.linalg.norm(deltas)
        if not abs(norm - 1.0) <= ATOL:  # NaN fails too
            raise ValueError(f"coefficients not normalized (norm {norm})")
        object.__setattr__(self, "deltas", deltas)

    @property
    def vector(self) -> np.ndarray:
        """Expansion into the d*d computational basis (Alice index major)."""
        vec = np.zeros(self.d * self.d, dtype=complex)
        idx = np.arange(self.d)
        vec[idx * self.d + idx] = self.deltas
        return vec


def make_state(d: int, deltas) -> EntangledState:
    """Build an entangled state from (unnormalized) Schmidt coefficients."""
    if d < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {d}")
    deltas = np.array(deltas, dtype=complex)
    if deltas.shape != (d,):
        raise DimensionMismatchError(
            f"expected {d} coefficients, got shape {deltas.shape}"
        )
    if not np.isfinite(deltas).all():
        raise ValueError("coefficients must be finite")
    # an exact power-of-two scaling by the largest |re| or |im| (|delta| itself may overflow)
    # first, so the norm neither underflows nor overflows
    parts = deltas.view(float)
    deltas = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(complex)
    norm = np.linalg.norm(deltas)
    if norm == 0.0:
        raise DegenerateStateError("all coefficients are zero")
    return EntangledState(d, deltas / norm)


def maximally_entangled(d: int) -> EntangledState:
    """The uniform state (1/sqrt(d)) sum_j |jj>."""
    return make_state(d, np.ones(d))


def psi3() -> EntangledState:
    return maximally_entangled(3)


def psi4() -> EntangledState:
    return maximally_entangled(4)


def psi5() -> EntangledState:
    """(|00> + |11> + |22> + |33> - i|44>) / sqrt(5)."""
    return make_state(5, [1, 1, 1, 1, -1j])


REFERENCE_STATES = {"psi3": psi3, "psi4": psi4, "psi5": psi5}
