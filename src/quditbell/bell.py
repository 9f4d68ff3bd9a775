"""Homogeneous Bell operators and their violation factors.

A Bell operator here is a polynomial sum_m c_m A1^{i1} A2^{i2} B1^{j1} B2^{j2}
with i1+i2 = j1+j2 = d-1 (homogeneous of degree d-1 per party).  Under local
realism, with all four variables taking d-th-root-of-unity values,

    Re( rotation_phase * T ) / (d^2 cos(pi/d)) <= 1,

where rotation_phase = e^{i pi/d}.  Quantum mechanically each monomial becomes
a product ditter observable and the left-hand side can exceed 1; the value v
is the violation factor.

The built-in operators for d = 3, 4, 5 are stored as integer polynomials in
omega = e^{2i pi/d}.  Each satisfies a sharpness property that pins the local
bound exactly: for every deterministic assignment of roots of unity to the
four variables, T evaluates to d^2 times a d-th root of unity.  Two printed
coefficients in circulation fail that property and are corrected here (see the
coefficient tables); with the corrections the property holds for all d^4
assignments and the local bound is attained with equality.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    DimensionMismatchError,
    EntangledState,
    InvalidDimensionError,
    omega,
    roots_of_unity,
    tensor,
)
from .ditter import (
    DitterObservable,
    PhaseVector,
    geometric_phases,
    power_observable,
    product_observable,
)

#: default base phase for the reference measurement bases
def reference_theta(d: int) -> complex:
    return np.exp(1j * np.pi / (2 * d))


def rotation_phase(d: int) -> complex:
    """The fixed rotation e^{i pi/d} applied before taking the real part.

    Named to avoid clashing with density matrices, which share the symbol rho
    in most of the literature.
    """
    return np.exp(1j * np.pi / d)


def classical_norm(d: int) -> float:
    return d * d * np.cos(np.pi / d)


@dataclass(frozen=True)
class BellMonomial:
    """One term c * A1^{i1} A2^{i2} B1^{j1} B2^{j2} of a Bell operator."""

    alice_exponents: tuple[int, int]
    bob_exponents: tuple[int, int]
    coefficient: complex

    @property
    def basis_pair(self) -> tuple[int, int]:
        """(a, b) = (A2 power, B2 power): the monomial is read on Alice's a-th
        and Bob's b-th observable of a basis assignment, the same basis pair
        the protocol rounds record."""
        return self.alice_exponents[1], self.bob_exponents[1]


@dataclass(frozen=True)
class BellOperator:
    d: int
    monomials: tuple[BellMonomial, ...]

    def __post_init__(self):
        for m in self.monomials:
            if sum(m.alice_exponents) != self.d - 1 or sum(m.bob_exponents) != self.d - 1:
                raise ValueError(
                    f"monomial {m.alice_exponents}|{m.bob_exponents} is not "
                    f"homogeneous of degree {self.d - 1} per party"
                )

    def coefficient_table(self) -> dict:
        """JSON-friendly coefficient listing for audit."""
        return {
            "d": self.d,
            "monomials": [
                {
                    "alice_exponents": list(m.alice_exponents),
                    "bob_exponents": list(m.bob_exponents),
                    "coefficient": [m.coefficient.real, m.coefficient.imag],
                }
                for m in self.monomials
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.coefficient_table(), indent=indent)


# Integer polynomial tables in omega: ((i1,i2),(j1,j2)) -> [p0, p1, ...] meaning
# p0 + p1*omega + p2*omega^2 + ...  Exponent pairs are (A1 power, A2 power) and
# (B1 power, B2 power).
_T3_POLYS = {
    ((2, 0), (2, 0)): [4, -1],
    ((2, 0), (1, 1)): [-2, -1],
    ((2, 0), (0, 2)): [1, -1],
    ((1, 1), (2, 0)): [-5, -1],
    ((1, 1), (1, 1)): [-2, -1],
    # corrected: [-1, -1] in one printed version breaks the sharpness property
    ((1, 1), (0, 2)): [1, -1],
    ((0, 2), (2, 0)): [-5, -1],
    ((0, 2), (1, 1)): [-2, -1],
    ((0, 2), (0, 2)): [1, -1],
}

_T4_POLYS = {
    ((3, 0), (3, 0)): [-1, -3],
    ((3, 0), (2, 1)): [-1, -1],
    ((3, 0), (1, 2)): [5, -5],
    ((3, 0), (0, 3)): [1, -3],
    ((2, 1), (3, 0)): [1, 1],
    ((2, 1), (2, 1)): [-3, -1],
    ((2, 1), (1, 2)): [-1, -1],
    ((2, 1), (0, 3)): [-1, -3],
    ((1, 2), (3, 0)): [1, 3],
    ((1, 2), (2, 1)): [1, 5],
    ((1, 2), (1, 2)): [-1, -7],
    ((1, 2), (0, 3)): [3, 3],
    ((0, 3), (3, 0)): [-5, -5],
    ((0, 3), (2, 1)): [-1, 1],
    ((0, 3), (1, 2)): [1, 1],
    ((0, 3), (0, 3)): [1, -1],
}

_T5_POLYS = {
    # corrected: [6, -3, 0, 2] in one printed version breaks the sharpness property
    ((4, 0), (4, 0)): [6, -3, 2, 0],
    ((4, 0), (3, 1)): [-5, -6, -4, 0],
    ((4, 0), (2, 2)): [-3, 2, -1, 7],
    ((4, 0), (1, 3)): [-3, -4, 1, 1],
    ((4, 0), (0, 4)): [0, 6, 2, 2],
    ((3, 1), (4, 0)): [-2, -3, -4, -1],
    ((3, 1), (3, 1)): [-4, -3, -3, -5],
    ((3, 1), (2, 2)): [2, -2, -3, -2],
    ((3, 1), (1, 3)): [1, 0, 1, -2],
    ((3, 1), (0, 4)): [3, -2, 4, 0],
    ((2, 2), (4, 0)): [3, 3, -1, 0],
    ((2, 2), (3, 1)): [0, 1, 7, 2],
    ((2, 2), (2, 2)): [-5, -5, -6, -4],
    ((2, 2), (1, 3)): [-2, 0, 0, -3],
    ((2, 2), (0, 4)): [4, 1, 0, 5],
    ((1, 3), (4, 0)): [1, 0, -4, -2],
    ((1, 3), (3, 1)): [2, 1, 1, 1],
    ((1, 3), (2, 2)): [1, 3, 0, 1],
    ((1, 3), (1, 3)): [-7, -4, -7, -7],
    ((1, 3), (0, 4)): [-2, 0, 0, -3],
    ((0, 4), (4, 0)): [2, 3, 2, -2],
    ((0, 4), (3, 1)): [-3, -3, -1, -3],
    ((0, 4), (2, 2)): [-5, -3, 0, -2],
    ((0, 4), (1, 3)): [-4, -2, -5, -4],
    ((0, 4), (0, 4)): [-5, -5, -6, -4],
}

BUILTIN_POLYS = {3: _T3_POLYS, 4: _T4_POLYS, 5: _T5_POLYS}


def builtin_operator(d: int) -> BellOperator:
    """The reference Bell operator for d in {3, 4, 5}."""
    if d not in BUILTIN_POLYS:
        raise InvalidDimensionError(f"built-in Bell operators exist for d in 3..5, got {d}")
    w = omega(d)
    monomials = tuple(
        BellMonomial(ae, be, complex(sum(p * w**k for k, p in enumerate(poly))))
        for (ae, be), poly in BUILTIN_POLYS[d].items()
    )
    return BellOperator(d, monomials)


@dataclass(frozen=True)
class BasisAssignment:
    """Which phase vectors realize the four Bell variables A1, A2, B1, B2."""

    theta: complex
    alice_generators: tuple[PhaseVector, PhaseVector]
    bob_generators: tuple[PhaseVector, PhaseVector]

    @property
    def d(self) -> int:
        return self.alice_generators[0].d

    @cached_property
    def alice_observables(self) -> tuple[DitterObservable, ...]:
        """Entry a is A1^{d-1-a} A2^a."""
        return _observable_table(*self.alice_generators)

    @cached_property
    def bob_observables(self) -> tuple[DitterObservable, ...]:
        """Entry b is B1^{d-1-b} B2^b."""
        return _observable_table(*self.bob_generators)


def _observable_table(x: PhaseVector, y: PhaseVector) -> tuple[DitterObservable, ...]:
    """The d single-ditter observables X^{d-1-a} Y^a, a = 0..d-1.

    The pure powers X^{d-1} and Y^{d-1} are the generator's adjoint (same
    ditter, conjugate labels); mixed powers go through the product-ditter
    composition.
    """
    d = x.d
    mixed = (product_observable(x, y, d - 1 - a, a) for a in range(1, d - 1))
    return (power_observable(x, d - 1), *mixed, power_observable(y, d - 1))


#: generator exponents (Alice A1, Alice A2, Bob B1, Bob B2) of the reference
#: assignment, in units of the base phase; Bob exponents are in the conjugate
#: family (phase theta^{-j*b}).
CANONICAL_EXPONENTS = (0, 2, -1, 1)


def exponent_basis(
    d: int,
    exponents: tuple[int, int, int, int],
    theta: complex | None = None,
) -> BasisAssignment:
    """Geometric-phase basis assignment from four integer exponents."""
    if theta is None:
        theta = reference_theta(d)
    a1, a2, b1, b2 = exponents
    return BasisAssignment(
        theta=complex(theta),
        alice_generators=(
            geometric_phases(d, theta, a1, +1),
            geometric_phases(d, theta, a2, +1),
        ),
        bob_generators=(
            geometric_phases(d, theta, b1, -1),
            geometric_phases(d, theta, b2, -1),
        ),
    )


def canonical_basis(d: int, theta: complex | None = None) -> BasisAssignment:
    """The reference bases: Alice (1,..) and (1, theta^2,..), Bob the conjugate
    family with exponents -1 and 1, all at theta = e^{i pi/2d} by default."""
    return exponent_basis(d, CANONICAL_EXPONENTS, theta)


def protocol_basis(d: int, theta: complex | None = None) -> BasisAssignment:
    """Conjugate-paired generators used by the key-distribution procedure:
    Alice exponents (0, 1), Bob the elementwise conjugates.  Matched bases are
    then perfectly correlated for any state with uniform coefficient moduli."""
    return exponent_basis(d, (0, 1, 0, 1), theta)


def monomial_observables(
    m: BellMonomial, basis: BasisAssignment
) -> tuple[DitterObservable, DitterObservable]:
    """One monomial's Alice and Bob factors, looked up in the basis
    assignment's observable tables at ``m.basis_pair``."""
    d = basis.d
    for exponents in (m.alice_exponents, m.bob_exponents):
        if min(exponents) < 0 or sum(exponents) != d - 1:
            raise ValueError(f"exponents {exponents} must be non-negative and sum to {d - 1}")
    a, b = m.basis_pair
    return basis.alice_observables[a], basis.bob_observables[b]


def _expectation(state, alice: DitterObservable, bob: DitterObservable) -> complex:
    v = state.vector
    return complex(v.conj() @ tensor(alice.matrix, bob.matrix) @ v)


def violation(state: EntangledState, t: BellOperator, basis: BasisAssignment) -> float:
    """Violation factor v = Re(rotation_phase * sum_m c_m E_m) / (d^2 cos(pi/d))
    of a pure state; isotropic noise N scales it by (1 - N)."""
    d = t.d
    if state.d != d or basis.d != d:
        raise DimensionMismatchError("state, operator, and basis dimensions differ")
    total = 0j
    for m in t.monomials:
        a_obs, b_obs = monomial_observables(m, basis)
        total += m.coefficient * _expectation(state, a_obs, b_obs)
    return float((rotation_phase(d) * total).real / classical_norm(d))


LHV_MAX_DIMENSION = 6


def lhv_max(t: BellOperator) -> float:
    """Exact local-realism maximum by enumerating all d^4 deterministic
    strategies (root-of-unity value for each of A1, A2, B1, B2)."""
    d = t.d
    if d > LHV_MAX_DIMENSION:
        raise InvalidDimensionError(
            f"exhaustive enumeration limited to d <= {LHV_MAX_DIMENSION}, got {d}"
        )
    w = roots_of_unity(d)
    # values[x1,x2,y1,y2] = T at assignment (w^x1, w^x2, w^y1, w^y2)
    values = np.zeros((d, d, d, d), dtype=complex)
    k = np.arange(d)
    for m in t.monomials:
        i1, i2 = m.alice_exponents
        j1, j2 = m.bob_exponents
        values += m.coefficient * np.einsum(
            "a,b,c,e->abce", w**(i1 * k), w**(i2 * k), w**(j1 * k), w**(j2 * k)
        )
    return float((rotation_phase(d) * values).real.max() / classical_norm(d))


def assignment_candidates(d: int, theta: complex | None = None):
    """The discrete generator-to-variable assignments searched by
    optimize_basis: swaps of the two generators on either side, and the
    globally conjugated settings."""
    a1, a2, b1, b2 = CANONICAL_EXPONENTS
    seen = set()
    out = []
    for aa in ((a1, a2), (a2, a1)):
        for bb in ((b1, b2), (b2, b1)):
            for s in (1, -1):
                exps = (s * aa[0], s * aa[1], s * bb[0], s * bb[1])
                if exps not in seen:
                    seen.add(exps)
                    out.append(exponent_basis(d, exps, theta))
    return out


def optimize_basis(
    state: EntangledState,
    t: BellOperator,
    theta: complex | None = None,
) -> tuple[BasisAssignment, float]:
    """Best basis assignment for the given state and operator.

    Searches the discrete set of generator-to-variable assignments at the
    reference base phase e^{i pi/2d} (or a caller-supplied theta).  The base
    phase is deliberately not optimized here: the reference violation values
    for the built-in operators are attained exactly at the reference phase,
    and scanning theta moves off them (see theta_scan for the exploratory
    search).
    """
    best_v = -np.inf
    best_basis = None
    for basis in assignment_candidates(t.d, theta):
        v = violation(state, t, basis)
        if v > best_v:
            best_v, best_basis = v, basis
    return best_basis, float(best_v)


def theta_scan(
    state: EntangledState,
    t: BellOperator,
    exponents: tuple[int, int, int, int] = CANONICAL_EXPONENTS,
    num_points: int = 10_000,
    refine: bool = True,
) -> tuple[complex, float]:
    """Grid-scan the base phase over the unit circle for a fixed assignment.

    Returns (best theta, best violation).  Deterministic given num_points; one
    local refinement pass at 10x resolution around the coarse optimum.
    """
    def scan(phis):
        vs = np.array(
            [violation(state, t, exponent_basis(t.d, exponents, np.exp(1j * p)))
             for p in phis]
        )
        i = int(np.argmax(vs))
        return phis[i], float(vs[i])

    coarse = np.linspace(0.0, 2 * np.pi, num_points, endpoint=False)
    phi, v = scan(coarse)
    if refine:
        step = 2 * np.pi / num_points
        phi, v = scan(np.linspace(phi - step, phi + step, 21))
    return complex(np.exp(1j * phi)), v
