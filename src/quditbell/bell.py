"""Homogeneous Bell operators and their violation factors.

A Bell operator here is a polynomial
T = sum_{a,b} C[a, b] A1^{d-1-a} A2^a B1^{d-1-b} B2^b, homogeneous of degree
d-1 per party, held as its (d, d) complex coefficient matrix C.  Entry C[a, b]
belongs to Alice's setting a and Bob's setting b, the basis pair the protocol
rounds record, and a zero entry is an absent monomial.
In the two-variable local model, one d-th-root-of-unity value for each of
A1, A2, B1 and B2,

    Re( rotation_phase * T ) / (d^2 cos(pi/d)) <= 1,

where rotation_phase = e^{i pi/d}.  A local model that gives each of a party's
d settings its own outcome is not covered: for hCHSH-d it reaches 4, 3 and
3.047 at d = 3, 4, 5.  Quantum mechanically each monomial becomes
a product ditter observable and the left-hand side can exceed 1; the value v
is the violation factor.  BellOperator holds both constants (.rotation_phase,
.classical_norm), splits v into per-round .score_tables and needs d >= 3.

The built-in operators for d = 3, 4, 5 (hCHSH-d) are stored as phase tables
g: Z_d^2 -> Z_d, and their integer polynomials in omega = e^{2i pi/d} are
derived from the tables.  Sharpness, which pins the local bound exactly, holds
by construction: every deterministic root-of-unity assignment evaluates T to
d^2 times a d-th root of unity, so the local maximum is d^2 cos(pi/d) and the
bound is attained with equality.  lhv_max re-checks it over all d^4
assignments.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DimensionMismatchError,
    EntangledState,
    InvalidDimensionError,
    complex_product,
    omega,
    roots_of_unity,
)
from .ditter import (
    PHASE_TOL,
    InvalidPhaseError,
    LabelConvention,
    geometric_phases,
    observable_matrices,
    party_phase_table,
)

def reference_theta(d: int) -> complex:
    """Default base phase e^{i pi/2d} of the reference measurement bases."""
    return np.exp(1j * np.pi / (2 * d))


@dataclass(frozen=True, eq=False)
class BellOperator:
    """T = sum_{a,b} C[a, b] A1^{d-1-a} A2^a B1^{d-1-b} B2^b, held as a read-only
    copy of the (d, d) complex coefficient matrix C; a zero entry is no monomial.
    d >= 3, as at d = 2 the local bound d^2 cos(pi/d) is 0 and normalises nothing."""

    d: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.d < 3:
            raise InvalidDimensionError(f"hCHSH-d Bell operators need d >= 3, got {self.d}")
        c = np.array(self.coefficients, dtype=complex)
        if c.shape != (self.d, self.d):
            raise ValueError(f"coefficients must have shape ({self.d}, {self.d}), not {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def entries(self) -> list[tuple[int, int, complex]]:
        """(a, b, C[a, b]) of every nonzero entry, in row-major order."""
        a, b = np.nonzero(self.coefficients)
        return list(zip(a.tolist(), b.tolist(), self.coefficients[a, b].tolist()))

    @property
    def rotation_phase(self) -> complex:
        """e^{i pi/d}, the rotation applied before taking the real part."""
        return np.exp(1j * np.pi / self.d)

    @property
    def classical_norm(self) -> float:
        """d^2 cos(pi/d), the local bound that normalises every score."""
        return self.d * self.d * np.cos(np.pi / self.d)

    def score_tables(self, convention: LabelConvention) -> list[tuple[int, int, np.ndarray]]:
        """(a, b, W[a, b]) per nonzero C[a, b], row-major: W[a, b][k, k'] = Re(rotation_phase
        * C[a, b] * P[k, k']) / classical_norm, one product per entry to keep its last bits."""
        products = convention.products(self.d)
        return [(a, b, (self.rotation_phase * c * products).real / self.classical_norm)
                for a, b, c in self.entries()]

    def coefficient_table(self) -> dict:
        """JSON-friendly coefficient listing for audit."""
        d = self.d
        return {
            "d": d,
            "monomials": [
                {
                    "alice_exponents": [d - 1 - a, a],
                    "bob_exponents": [d - 1 - b, b],
                    "coefficient": [c.real, c.imag],
                }
                for a, b, c in self.entries()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.coefficient_table(), indent=2)


#: hCHSH-d phase tables g[r][s] (Arnault 2012): at the deterministic assignment
#: A1 = w^p, A2 = w^(p+r), B1 = w^q, B2 = w^(q+s) the operator is d^2 w^(g[r][s]-p-q).
PHASE_TABLES = {
    3: ((2, 2, 1), (0, 0, 0), (0, 0, 0)),
    4: ((3, 2, 3, 1), (3, 2, 1, 2), (0, 1, 3, 1), (3, 3, 0, 3)),
    5: ((4, 0, 0, 0, 1), (3, 0, 0, 2, 4), (2, 0, 0, 4, 0), (3, 0, 4, 2, 2), (3, 0, 2, 3, 2)),
}


def phase_table_polys(g) -> dict:
    """The operator of a phase table g as integer polynomials in omega:
    ((i1, i2), (j1, j2)) -> [p0, p1, ...] meaning p0 + p1*omega + ...

    Inverting the d x d Fourier transform gives the coefficient of basis pair
    (a, b) as sum_{r,s} omega^((g[r,s] - a r - b s) mod d): a count of each
    exponent, long-divided by the monic Phi_d (roots: the primitive d-th roots
    of unity) to phi(d) coefficients.
    """
    g = np.asarray(g)
    d = len(g)
    k = np.arange(d)
    a, b, r, s = np.ix_(k, k, k, k)
    counts = np.eye(d, dtype=int)[(g - a * r - b * s) % d].sum(axis=(2, 3))
    cyclotomic = np.round(np.poly(roots_of_unity(d)[np.gcd(k, d) == 1]).real).astype(int)[::-1]
    n = len(cyclotomic) - 1
    for top in range(d - 1, n - 1, -1):
        counts[..., top - n:top + 1] -= counts[..., top, None] * cyclotomic
    return {
        ((d - 1 - i, i), (d - 1 - j, j)): counts[i, j, :n].tolist()
        for i in range(d) for j in range(d)
    }


BUILTIN_POLYS = {d: phase_table_polys(g) for d, g in PHASE_TABLES.items()}


def builtin_operator(d: int) -> BellOperator:
    """The reference Bell operator for d in {3, 4, 5}."""
    if d not in BUILTIN_POLYS:
        raise InvalidDimensionError(f"built-in Bell operators exist for d in 3..5, got {d}")
    w = omega(d)
    c = [complex(sum(p * w**k for k, p in enumerate(poly))) for poly in BUILTIN_POLYS[d].values()]
    return BellOperator(d, np.reshape(c, (d, d)))


def table_convention(d: int) -> LabelConvention:
    """Every party-table entry's labels: those of X^{d-1}, i.e. conjugate but at d = 2."""
    return LabelConvention.STANDARD if d == 2 else LabelConvention.CONJUGATE


@dataclass(frozen=True, eq=False)
class BasisAssignment:
    """Both parties' measurement settings: read-only copies of Alice's and Bob's
    (..., bases, d) phase tables, row a the phase vector of basis a's ditter, and the
    label convention their detectors share.  Leading axes make it a stack of settings."""

    phase_tables: tuple[np.ndarray, np.ndarray]
    label_convention: LabelConvention

    def __post_init__(self):
        alice, bob = self.phase_tables
        if np.ndim(alice) < 2 or np.shape(alice) != np.shape(bob):
            raise DimensionMismatchError("phase tables must share one (..., bases, d) shape")
        tables = np.array((alice, bob), dtype=complex)
        if not (np.abs(np.abs(tables) - 1.0) <= PHASE_TOL).all():  # NaN fails too
            raise InvalidPhaseError("phase table entries must have unit modulus")
        tables.flags.writeable = False
        object.__setattr__(self, "phase_tables", tuple(tables))


#: generator exponents (Alice A1, Alice A2, Bob B1, Bob B2) of the reference
#: assignment, in units of the base phase; Bob exponents are in the conjugate
#: family (phase theta^{-j*b}).
CANONICAL_EXPONENTS = (0, 2, -1, 1)


def exponent_basis(d: int, exponents: tuple[int, int, int, int],
                   theta: complex | None = None) -> BasisAssignment:
    """Geometric-phase basis assignment from four integer exponents; an array of
    base phases gives the stack of their assignments."""
    if theta is None:
        theta = reference_theta(d)
    a1, a2, b1, b2 = exponents
    alice, bob = (party_phase_table(geometric_phases(d, theta, x, sign),
                                    geometric_phases(d, theta, y, sign))
                  for x, y, sign in ((a1, a2, 1), (b1, b2, -1)))
    return BasisAssignment((alice, bob), table_convention(d))


def canonical_basis(d: int, theta: complex | None = None) -> BasisAssignment:
    """The reference bases: Alice (1,..) and (1, theta^2,..), Bob the conjugate
    family with exponents -1 and 1, all at theta = e^{i pi/2d} by default."""
    return exponent_basis(d, CANONICAL_EXPONENTS, theta)


def protocol_basis(d: int, theta: complex | None = None) -> BasisAssignment:
    """Conjugate-paired generators used by the key-distribution procedure:
    Alice exponents (0, 1), Bob the elementwise conjugates.  Matched bases are
    then perfectly correlated for any state with uniform coefficient moduli."""
    return exponent_basis(d, (0, 1, 0, 1), theta)


def ndeb_basis(d: int, theta: complex | None = None) -> BasisAssignment:
    """N-DEB's 4 single-ditter geometric bases per party, row a at exponent a, standard
    labels, Bob's in the conjugate family: matched bases give k + k' = 0 mod d."""
    theta = theta if theta is not None else reference_theta(d)
    exponents = np.arange(4)[:, np.newaxis]  # row a: basis a's exponent
    tables = (geometric_phases(d, theta, exponents, sign).thetas for sign in (+1, -1))
    return BasisAssignment(tuple(tables), LabelConvention.STANDARD)


def monomial_observables(t: BellOperator, basis: BasisAssignment,
                         slices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's factor matrices of the given slices of a stack of n bases,
    its tables' leading axes read as one: with m nonzero entries C[a, b] in row-major
    order, slice s is entry s % m of basis s // m, read at table rows a and b."""
    ia, ib = np.nonzero(t.coefficients)
    n, monomial = np.divmod(slices, len(ia))
    alice, bob = (table.reshape(-1, t.d, t.d) for table in basis.phase_tables)
    rows = np.concatenate([alice[n, ia[monomial]], bob[n, ib[monomial]]])
    matrices = observable_matrices(rows, basis.label_convention)
    return matrices[:len(slices)], matrices[len(slices):]


BLOCK_ENTRIES = 2**15  # complex entries of the A (x) B stack evaluated at once: 512 KiB


def violation_stack(state: EntangledState, t: BellOperator, basis: BasisAssignment) -> np.ndarray:
    """violation() of each basis of a (..., d, d) stack, in an array of shape (...), with
    the np.kron loop's float bits: per block of (basis, monomial) slices np.kron's
    multiply, per slice the zgemv and dot of <v|A (x) B|v>, per basis Python's arithmetic."""
    (ia, ib), alice = np.nonzero(t.coefficients), basis.phase_tables[0]
    d, m, bases = t.d, len(ia), alice.size // t.d**2
    if state.d != d or alice.shape[-2:] != (d, d):
        raise DimensionMismatchError("state, operator, and basis dimensions differ")
    v, step, n = state.vector, max(1, BLOCK_ENTRIES // d**4), bases * m
    vc, expectations = v.conj(), np.empty(n, dtype=complex)
    for lo in range(0, n, step):
        a, b = monomial_observables(t, basis, np.arange(lo, min(lo + step, n)))
        w = vc @ np.multiply(  # the block's A (x) B stack lives only for this zgemv
            a[:, :, None, :, None], b[:, None, :, None, :], order="C").reshape(-1, d * d, d * d)
        expectations[lo:lo + step] = (w[:, None, :] @ v[:, None])[:, 0, 0]
    terms = np.zeros((bases, m + 1), dtype=complex)  # column 0: the 0j a sum starts at
    terms[:, 1:] = complex_product(t.coefficients[ia, ib], expectations.reshape(bases, m))
    total = np.add.accumulate(terms, axis=1)[:, -1].reshape(alice.shape[:-2])
    rotation = t.rotation_phase  # the real part of Python's complex product
    return (rotation.real * total.real - rotation.imag * total.imag) / t.classical_norm


def violation(state: EntangledState, t: BellOperator, basis: BasisAssignment) -> float:
    """Violation factor v = Re(rotation_phase * sum_{a,b} C[a, b] E_ab) / (d^2 cos(pi/d))
    of a pure state in one basis assignment; isotropic noise N scales it by (1 - N)."""
    return float(violation_stack(state, t, basis))


LHV_MAX_DIMENSION = 6


def lhv_max(t: BellOperator) -> float:
    """Maximum of the two-variable local model by enumerating all d^4
    deterministic strategies (one root-of-unity value for each of A1, A2, B1,
    B2).  A model giving each of a party's d settings its own outcome reaches
    more: 4, 3 and 3.047 at d = 3, 4, 5 for the built-in operators."""
    d = t.d
    if d > LHV_MAX_DIMENSION:
        raise InvalidDimensionError(
            f"exhaustive enumeration limited to d <= {LHV_MAX_DIMENSION}, got {d}"
        )
    w = roots_of_unity(d)
    # values[x1,x2,y1,y2] = T at assignment (w^x1, w^x2, w^y1, w^y2)
    values = np.zeros((d, d, d, d), dtype=complex)
    k = np.arange(d)
    for a, b, c in t.entries():
        values += c * np.einsum(
            "a,b,c,e->abce", w**((d - 1 - a) * k), w**(a * k), w**((d - 1 - b) * k), w**(b * k)
        )
    return float((t.rotation_phase * values).real.max() / t.classical_norm)


def assignment_candidates(d: int, theta: complex | None = None):
    """The discrete generator-to-variable assignments searched by
    optimize_basis: swaps of the two generators on either side, and the
    globally conjugated settings."""
    a1, a2, b1, b2 = CANONICAL_EXPONENTS
    return [
        exponent_basis(d, (s * aa[0], s * aa[1], s * bb[0], s * bb[1]), theta)
        for aa in ((a1, a2), (a2, a1)) for bb in ((b1, b2), (b2, b1)) for s in (1, -1)
    ]


def _best(vs: np.ndarray) -> tuple[int, float]:
    """Index and value of the first of the largest violations."""
    i = int(np.argmax(vs))
    return i, float(vs[i])


def optimize_basis(state: EntangledState, t: BellOperator,
                   theta: complex | None = None) -> tuple[BasisAssignment, float]:
    """Best basis assignment for the given state and operator.

    Searches the discrete set of generator-to-variable assignments at the
    reference base phase e^{i pi/2d} (or a caller-supplied theta).  The base
    phase is deliberately not optimized here: the reference violation values
    for the built-in operators are attained exactly at the reference phase,
    and scanning theta moves off them (see theta_scan for the exploratory
    search).
    """
    candidates = assignment_candidates(t.d, theta)
    i, v = _best(np.array([violation(state, t, basis) for basis in candidates]))
    return candidates[i], v


def theta_scan(
    state: EntangledState, t: BellOperator, num_points: int = 10_000
) -> tuple[complex, float]:
    """Grid-scan the base phase of the canonical assignment over the unit circle.

    Returns (best theta, best violation): the first best of num_points phases, then
    of 21 phases spanning one grid step either side of it.  The grid is evaluated as
    canonical_basis stacks of BLOCK_ENTRIES // d^4 phases, bit-equal to violation()."""
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    chunk = max(1, BLOCK_ENTRIES // t.d**4)

    def scan(phis):
        bases = (canonical_basis(t.d, np.exp(1j * phis[lo:lo + chunk]))
                 for lo in range(0, len(phis), chunk))
        i, v = _best(np.concatenate([violation_stack(state, t, b) for b in bases]))
        return phis[i], v

    phi, _ = scan(np.linspace(0.0, 2 * np.pi, num_points, endpoint=False))
    step = 2 * np.pi / num_points
    phi, v = scan(np.linspace(phi - step, phi + step, 21))
    return complex(np.exp(1j * phi)), v
