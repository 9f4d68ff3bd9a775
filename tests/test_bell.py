import hashlib
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditbell import bell
from quditbell.algebra import (
    DimensionMismatchError,
    InvalidDimensionError,
    make_state,
    maximally_entangled,
    omega,
    psi3,
    psi4,
    psi5,
    roots_of_unity,
)
from quditbell.bell import (
    BUILTIN_POLYS,
    BasisAssignment,
    BellOperator,
    assignment_candidates,
    builtin_operator,
    canonical_basis,
    exponent_basis,
    lhv_max,
    monomial_observables,
    optimize_basis,
    phase_table_polys,
    protocol_basis,
    reference_theta,
    theta_scan,
    violation,
    violation_stack,
)
from quditbell.ditter import (
    InvalidPhaseError,
    LabelConvention,
    geometric_phases,
    observable_matrices,
    outcome_distribution,
    party_phase_table,
)

from dense_oracle import (
    bell_matrix,
    dense_violation,
    entries,
    factors,
    kron_violation,
    lhv_max_loop,
    noisy_density,
    observable_table_loop,
    observables,
    optimize_basis_loop,
    per_setting_bound,
    theta_scan_two_pass,
)

STATES = {3: psi3, 4: psi4, 5: psi5}


# Every coefficient of the built-in operators, as integer polynomials in
# omega, with a whole-table checksum to catch silent edits.
@pytest.mark.parametrize(
    "d,n_monomials,poly_sum",
    [(3, 9, [-9, -9]), (4, 16, [0, -16]), (5, 25, [-25, -25, -25, -25])],
)
def test_builtin_tables_checksum(d, n_monomials, poly_sum):
    table = BUILTIN_POLYS[d]
    assert len(table) == n_monomials
    total = [0] * len(next(iter(table.values())))
    for poly in table.values():
        for k, p in enumerate(poly):
            total[k] += p
    assert total == poly_sum


def test_builtin_operator_coefficients_match_polynomials():
    for d in (3, 4, 5):
        t = builtin_operator(d)
        w = omega(d)
        assert t.coefficients.shape == (d, d)
        for ((_, a), (_, b)), poly in BUILTIN_POLYS[d].items():
            expected = sum(p * w**k for k, p in enumerate(poly))
            assert abs(t.coefficients[a, b] - expected) < 1e-12


# sha256 of repr(BUILTIN_POLYS) as recorded from the hand-typed integer tables
# that the phase tables replaced; it holds only integers, so every platform
# must reproduce it.
BUILTIN_POLYS_SHA256 = "4d34c1a0550d19214997d519a0ce8d3f4d39f83c5cd19d715d52d79a32b07677"


def test_builtin_polys_golden():
    assert hashlib.sha256(repr(BUILTIN_POLYS).encode()).hexdigest() == BUILTIN_POLYS_SHA256


def operator_from_polys(d: int, polys: dict) -> BellOperator:
    w = omega(d)
    c = np.zeros((d, d), dtype=complex)
    for ((_, a), (_, b)), poly in polys.items():
        c[a, b] = complex(sum(p * w**k for k, p in enumerate(poly)))
    return BellOperator(d, c)


@pytest.mark.parametrize("d", range(3, 7))
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_phase_table_operator_is_sharp(d, data):
    """For any phase table g, the derived operator takes the value
    d^2 w^(g[r][s] - p - q) at A1 = w^p, A2 = w^(p+r), B1 = w^q, B2 = w^(q+s)."""
    g = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=d * d, max_size=d * d)))
    g = g.reshape(d, d)
    t = operator_from_polys(d, phase_table_polys(g))
    roots = roots_of_unity(d)
    p, q, r, s = np.ix_(*[np.arange(d)] * 4)
    values = np.zeros((d,) * 4, dtype=complex)
    for a, b, c in entries(t):
        values += c * roots[((d - 1 - a) * p + a * (p + r) + (d - 1 - b) * q + b * (q + s)) % d]
    assert np.abs(np.abs(values) - d * d).max() < 1e-9
    assert np.abs((values / (d * d)) ** d - 1).max() < 1e-9
    assert np.abs(values / (d * d) - roots[(g[r, s] - p - q) % d]).max() < 1e-9
    assert lhv_max(t) <= 1 + 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_operator_rejects_d_below_3(d):
    """At d = 2 the local bound d^2 cos(pi/d) is 2.4e-16, so every score it
    normalised was rounding noise: lhv_max of an all-ones C gave 5.0."""
    message = f"^hCHSH-d Bell operators need d >= 3, got {d}$"
    with pytest.raises(InvalidDimensionError, match=message):
        BellOperator(d, np.ones((d, d)))


def test_builtin_operator_rejects_other_dimensions():
    with pytest.raises(InvalidDimensionError):
        builtin_operator(6)


@pytest.mark.parametrize("shape", [(9,), (3, 4), (4, 4), (1, 3, 3)],
                         ids=["flat", "3x4", "4x4", "stacked"])
def test_operator_rejects_coefficients_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"must have shape \(3, 3\), not"):
        BellOperator(3, np.ones(shape))


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)]
)
def test_operator_rejects_non_finite_coefficients(value):
    c = np.ones((3, 3), dtype=complex)
    c[1, 2] = value
    with pytest.raises(ValueError, match="must be finite"):
        BellOperator(3, c)


def test_operator_holds_a_read_only_copy_of_its_coefficients():
    """A later write to the caller's array does not change v, and C refuses writes."""
    c = np.array(builtin_operator(3).coefficients)
    t = BellOperator(3, c)
    state, basis = psi3(), canonical_basis(3)
    v = violation(state, t, basis)
    c[:] = 0
    c[0, 0] = 100.0
    assert violation(state, t, basis) == v == violation(state, builtin_operator(3), basis)
    with pytest.raises(ValueError, match="read-only"):
        t.coefficients[0, 0] = 0
    assert t == t and t != BellOperator(3, c) and hash(t) == hash(t)


def stacked(bases) -> BasisAssignment:
    """The bases as one stack: Alice's and Bob's (len(bases), d, d) phase tables."""
    tables = tuple(np.stack(tables) for tables in zip(*(b.phase_tables for b in bases)))
    return BasisAssignment(tables, bases[0].label_convention)


def test_monomial_observables_gathers_each_monomials_factor_matrices():
    """Slice s of a stack of bases is nonzero entry s % n of basis s // n, with the
    factor matrices of the one-observable-at-a-time objects, byte for byte."""
    d = 4
    c = np.array(builtin_operator(d).coefficients)
    c[1, 2] = c[3, 0] = 0
    t, bases = BellOperator(d, c), [canonical_basis(d), protocol_basis(d)]
    pairs = [(a, b) for a, b, _ in entries(t)]
    n = len(pairs)
    alice, bob = monomial_observables(t, stacked(bases), np.arange(3, 2 * n))
    assert alice.shape == bob.shape == (2 * n - 3, d, d)
    for s, a, b in zip(range(3, 2 * n), alice, bob, strict=True):
        a_obs, b_obs = factors(*pairs[s % n], bases[s // n])
        assert (a.tobytes(), b.tobytes()) == (a_obs.matrix.tobytes(), b_obs.matrix.tobytes())
    with pytest.raises(DimensionMismatchError):
        violation_stack(psi4(), t, stacked([canonical_basis(3)]))


@pytest.mark.parametrize(
    "alice_dims,bob_dims",
    [((3, 3), (4, 4)), ((3, 3), (5, 5)), ((4, 4), (3, 3)), ((3, 4), (3, 3)), ((3, 3), (3, 4))],
    ids=["bob-4", "bob-5", "bob-3", "alice-split", "bob-split"],
)
def test_basis_assignment_rejects_generators_of_different_dimensions(alice_dims, bob_dims):
    """With all-ones generators at theta = 1, Alice at d = 3 and Bob at d = 4 or 5
    once gave violation(psi3(), builtin_operator(3), basis) = +-0.2222 without error.
    A party's split generators fail in its table, parties of different d in the basis."""
    ones = {d: geometric_phases(d, 1, 0) for d in (3, 4, 5)}
    with pytest.raises(DimensionMismatchError, match="different dimensions|share one"):
        tables = [party_phase_table(*(ones[d] for d in dims)) for dims in (alice_dims, bob_dims)]
        BasisAssignment(tables, LabelConvention.CONJUGATE)


@pytest.mark.parametrize(
    "alice_shape,bob_shape",
    [((3, 3), (4, 3)), ((4, 3), (3, 3)), ((2, 3, 3), (3, 3)), ((2, 3, 3), (3, 3, 3)),
     ((3,), (3,))],
    ids=["bob-more-bases", "alice-more-bases", "alice-stacked", "stacks-differ", "one-row"],
)
def test_basis_assignment_rejects_tables_of_different_shapes(alice_shape, bob_shape):
    with pytest.raises(DimensionMismatchError, match=r"must share one \(\.\.\., bases, d\) shape"):
        BasisAssignment((np.ones(alice_shape), np.ones(bob_shape)), LabelConvention.STANDARD)


@pytest.mark.parametrize("party", [0, 1])
@pytest.mark.parametrize(
    "entry", [0.0, 1.5, 1 + 2e-9, np.exp(0.3j) * (1 - 2e-9), np.nan, complex(np.inf, 0.0)]
)
def test_basis_assignment_rejects_entries_off_the_unit_circle(party, entry):
    tables = [np.array(t) for t in canonical_basis(3).phase_tables]
    tables[party][1, 2] = entry
    with pytest.raises(InvalidPhaseError, match="unit modulus"):
        BasisAssignment(tables, LabelConvention.CONJUGATE)


def test_basis_assignment_holds_read_only_copies_of_its_tables():
    """A later write to the caller's tables does not change v, and the tables refuse writes."""
    state, t, basis = psi3(), builtin_operator(3), canonical_basis(3)
    tables = [np.array(table) for table in basis.phase_tables]
    copy = BasisAssignment(tables, basis.label_convention)
    tables[0][:] = tables[1][:] = 1
    assert violation(state, t, copy) == violation(state, t, basis)
    for table in copy.phase_tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    assert copy == copy and copy != BasisAssignment(tables, basis.label_convention)


def table_bytes(basis) -> bytes:
    return b"".join(table.tobytes() for table in basis.phase_tables)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_basis_searches_equal_their_loops(d):
    """optimize_basis and theta_scan choose the basis that the separate loops of
    tests/dense_oracle.py choose (the first of equal maxima), with v to the bit."""
    t = builtin_operator(d)
    rng = np.random.default_rng(d)
    states = [STATES[d](), maximally_entangled(d),
              make_state(d, rng.normal(size=d) + 1j * rng.normal(size=d))]
    for state in states:
        for theta in (None, np.exp(0.7j), np.exp(-2.3j)):
            basis, v = optimize_basis(state, t, theta)
            basis_loop, v_loop = optimize_basis_loop(state, t, theta)
            assert (v, table_bytes(basis)) == (v_loop, table_bytes(basis_loop))
        for num_points in (1, 2, 7, 40):
            assert theta_scan(state, t, num_points=num_points) == theta_scan_two_pass(
                state, t, num_points)


def test_violation_builds_each_observable_table_once(monkeypatch):
    calls = []
    original = bell.party_phase_table

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bell, "party_phase_table", counting)
    for d in range(3, 10):
        calls.clear()
        t = BellOperator(d, np.ones((d, d)))
        basis = canonical_basis(d)
        violation(maximally_entangled(d), t, basis)
        violation(maximally_entangled(d), t, basis)
        # one table per party for all d^2 monomials, none again for the same basis
        assert len(calls) == 2, d


@pytest.mark.parametrize("d", [3, 4, 5])
def test_deterministic_values_are_scaled_roots_of_unity(d):
    """Sharpness property that the phase tables build in: every deterministic
    root-of-unity assignment evaluates the operator to d^2 * (d-th root)."""
    t = builtin_operator(d)
    w = roots_of_unity(d)
    rng = np.random.default_rng(d)
    for _ in range(200):
        x1, x2, y1, y2 = w[rng.integers(0, d, size=4)]
        val = sum(
            c * x1 ** (d - 1 - a) * x2**a * y1 ** (d - 1 - b) * y2**b for a, b, c in entries(t)
        )
        assert abs(abs(val) - d * d) < 1e-9
        assert abs(val**d - (d * d) ** d) < 1e-6 * (d * d) ** d


@pytest.mark.parametrize("d,expected", [(3, 1.0), (4, 1.0), (5, 1.0)])
def test_lhv_max_is_exactly_one(d, expected):
    assert abs(lhv_max(builtin_operator(d)) - expected) < 1e-9


@pytest.mark.parametrize("d", [3, 4])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_lhv_max_is_some_strategys_value(d, data):
    """On drawn complex C, most not sharp, lhv_max never exceeds the largest value
    of the d^4 deterministic strategies taken one at a time (d = 2 is left out:
    there d^2 cos(pi/d) is rounding noise)."""
    values = data.draw(st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=d * d, max_size=d * d))
    t = BellOperator(d, np.reshape(values, (d, d)))
    assert lhv_max(t) <= lhv_max_loop(t) + 1e-12 * max(1.0, np.abs(values).sum())


@pytest.mark.xfail(strict=True, reason="lhv_max raises the root w^x to the power e*x, so a "
                   "variable only takes the values w^(x^2)")
@pytest.mark.parametrize("d,nonzero", [(3, {(0, 0): -1, (1, 0): 1j}), (4, {(0, 2): 1, (0, 3): -1})])
def test_lhv_max_reaches_every_strategy(d, nonzero):
    """Two operators that are not sharp, whose maxima need a variable at a power of w
    that is not a square: lhv_max reports 0.222 (d = 3) and 4e-16 (d = 4) where the
    strategy loop finds 0.415 and 0.125.  A sharp operator, maximal at the all-ones
    strategy, cannot show a strategy that is never reached."""
    c = np.zeros((d, d), dtype=complex)
    for pair, value in nonzero.items():
        c[pair] = value
    t = BellOperator(d, c)
    assert abs(lhv_max(t) - lhv_max_loop(t)) <= 1e-12


def test_lhv_max_refuses_large_dimension():
    t = BellOperator(7, np.ones((7, 7)))
    with pytest.raises(InvalidDimensionError):
        lhv_max(t)


@pytest.mark.parametrize("convention", list(LabelConvention))
@pytest.mark.parametrize("d", [3, 4])
def test_per_setting_bound_equals_brute_force(d, convention):
    """The oracle's per-Alice-row maximum equals the score over every pair of
    Alice's and Bob's d^d outcome rows, each setting with its own outcome."""
    t = builtin_operator(d)
    rows = np.array(list(itertools.product(range(d), repeat=d)))
    total = np.zeros((len(rows), len(rows)))
    for a, b, w in t.score_tables(convention):
        total += w[np.ix_(rows[:, a], rows[:, b])]
    assert abs(per_setting_bound(t, convention) - total.max()) <= 1e-12


@pytest.mark.parametrize("convention", list(LabelConvention))
@pytest.mark.parametrize("d,expected", [(3, 4.0), (4, 3.0), (5, 3.047213595499958)])
def test_per_setting_bound_values(d, expected, convention):
    """The bound of 1 covers the two-variable model (one root-of-unity value each
    for A1, A2, B1, B2); a model giving each of the d settings per party its own
    outcome reaches 4, 3 and 3.047 at d = 3, 4, 5, above the quantum optimum."""
    t = builtin_operator(d)
    bound = per_setting_bound(t, convention)
    assert abs(bound - expected) <= 1e-12
    assert lhv_max(t) <= 1 + 1e-9 and lhv_max(t) <= bound
    assert optimize_basis(STATES[d](), t)[1] <= bound


@pytest.mark.parametrize(
    "d,expected", [(3, 1.5052228), (4, 1.5457401), (5, 1.5739794)]
)
def test_canonical_basis_violation(d, expected):
    v = violation(STATES[d](), builtin_operator(d), canonical_basis(d))
    assert abs(v - expected) < 5e-7


@pytest.mark.parametrize("d", [3, 4, 5])
def test_optimize_basis_reaches_canonical_value(d):
    state = STATES[d]()
    t = builtin_operator(d)
    basis, v = optimize_basis(state, t)
    assert v >= violation(state, t, canonical_basis(d)) - 1e-12


@pytest.mark.parametrize("d", [3, 4, 5])
def test_violation_density_path_matches_pure_path(d):
    state = STATES[d]()
    t = builtin_operator(d)
    basis = canonical_basis(d)
    dense = dense_violation(noisy_density(state, 0.0), t, basis)
    assert abs(violation(state, t, basis) - dense) < 1e-10


@pytest.mark.parametrize("d", [3, 4, 5])
def test_violation_below_hermitian_part_eigenvalue_bound(d):
    """For a fixed basis, no state can exceed the largest eigenvalue of the
    Hermitian part of e^{i pi/d} T / (d^2 cos(pi/d)), with T built densely.
    The search covers 8 candidates, no two with the same generator phases, which
    are rows 0 and d - 1 of each party's table."""
    state = STATES[d]()
    t = builtin_operator(d)
    candidates = assignment_candidates(d)
    phases = {b"".join(table[[0, -1]].tobytes() for table in c.phase_tables) for c in candidates}
    assert len(candidates) == len(phases) == 8
    bounds = []
    for basis in candidates:
        rotated = np.exp(1j * np.pi / d) * bell_matrix(t, basis)
        bound = np.linalg.eigvalsh((rotated + rotated.conj().T) / 2)[-1]
        bound /= d * d * np.cos(np.pi / d)
        assert violation(state, t, basis) <= bound + 1e-12
        bounds.append(bound)
    assert optimize_basis(state, t)[1] <= max(bounds) + 1e-12


def label_correlation(state, a_obs, b_obs) -> complex:
    """E = sum_{k,k'} P(k,k') label_A(k) label_B(k'): the expectation read
    off the detector statistics, as a protocol run estimates it."""
    dist = outcome_distribution(state, a_obs.ditter_unitary, b_obs.ditter_unitary)
    return complex(a_obs.labels @ dist @ b_obs.labels)


def test_correlation_matches_operator_expectation():
    d = 4
    state = psi4()
    basis = canonical_basis(d)
    for a, b, _ in entries(builtin_operator(d)):
        a_obs, b_obs = factors(a, b, basis)
        e_stat = label_correlation(state, a_obs, b_obs)
        op = np.kron(a_obs.matrix, b_obs.matrix)
        e_op = state.vector.conj() @ op @ state.vector
        assert abs(e_stat - e_op) < 1e-12


def test_mixed_state_violation_is_zero():
    rho = noisy_density(psi3(), 1.0)
    assert abs(dense_violation(rho, builtin_operator(3), canonical_basis(3))) < 1e-12


@pytest.mark.parametrize("d,expected", [(3, 1.0), (4, 0.9095961), (5, 1.122544)])
def test_protocol_basis_violation(d, expected):
    """Conjugate-paired generator violations: smaller than the optimized
    canonical values, but these are the values an estimation run sees."""
    v = violation(STATES[d](), builtin_operator(d), protocol_basis(d))
    assert abs(v - expected) < 5e-6


def test_scaled_inequality_components():
    t = builtin_operator(3)
    assert abs(t.rotation_phase - np.exp(1j * np.pi / 3)) < 1e-15
    assert abs(t.classical_norm - 9 * np.cos(np.pi / 3)) < 1e-12
    for name in ("rotation_phase", "classical_norm"):
        with pytest.raises(AttributeError):
            setattr(t, name, 1.0)


def test_coefficient_table_json_round_trip():
    t = builtin_operator(3)
    doc = json.loads(t.to_json())
    assert doc["d"] == 3
    assert len(doc["monomials"]) == 9


def test_exponent_basis_structure():
    """Rows 0 and d - 1 of each party's table are its generators X1 and X2, at the
    default base phase and at a passed-in one."""
    k = np.arange(3)
    for passed, theta in ((None, reference_theta(3)), (np.exp(0.7j), np.exp(0.7j))):
        alice, bob = exponent_basis(3, (0, 2, -1, 1), passed).phase_tables
        assert alice.shape == bob.shape == (3, 3)
        assert np.allclose(alice[0], 1.0)
        assert np.allclose(alice[-1], theta ** (2 * k))
        assert np.allclose(bob[0], theta ** k)
        assert np.allclose(bob[-1], theta ** (-k))


def draw_state(d: int, data):
    """A Schmidt state with drawn moduli (some zero) and phases."""
    moduli = data.draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=d, max_size=d))
    moduli[0] = moduli[0] or 1.0
    angles = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=d, max_size=d))
    return make_state(d, np.array(moduli) * np.exp(1j * np.array(angles)))


def draw_basis(d: int, data) -> BasisAssignment:
    """A geometric basis of drawn exponents at a drawn base phase."""
    exponents = data.draw(st.tuples(*[st.integers(-2 * d, 2 * d)] * 4))
    return exponent_basis(d, exponents, np.exp(1j * data.draw(st.floats(0.0, 2 * np.pi))))


def draw_operator(d: int, data) -> BellOperator:
    """A coefficient matrix C that is 0 but at 1 to 2d drawn basis pairs, each
    holding a drawn coefficient (which may itself be 0)."""
    c = np.zeros((d, d), dtype=complex)
    power = st.integers(0, d - 1)
    value = st.just(0j) | st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    for a, b, v in data.draw(st.lists(st.tuples(power, power, value), min_size=1, max_size=2 * d)):
        c[a, b] = v
    return BellOperator(d, c)


@pytest.mark.parametrize("d", range(3, 10))
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_violation_equals_kron_route_exactly(d, data):
    """Not a tolerance: violation() must give the kron loop's float bits."""
    state, basis = draw_state(d, data), draw_basis(d, data)
    t = draw_operator(d, data)
    assert violation(state, t, basis) == kron_violation(state, t, basis)
    if d in BUILTIN_POLYS:
        t = builtin_operator(d)
        for candidate in assignment_candidates(d):
            assert violation(state, t, candidate) == kron_violation(state, t, candidate)


@pytest.mark.parametrize("d", range(2, 10))
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_stacked_tables_equal_loop_bytes(d, data):
    """Each party's phase table, matrix stack and observables are byte-equal to
    the one-observable-at-a-time build."""
    exponents = data.draw(st.tuples(*[st.integers(-2 * d, 2 * d)] * 4))
    theta = np.exp(1j * data.draw(st.floats(0.0, 2 * np.pi)))
    basis = exponent_basis(d, exponents, theta)
    a1, a2, b1, b2 = exponents
    generators = ((geometric_phases(d, theta, a1), geometric_phases(d, theta, a2)),
                  (geometric_phases(d, theta, b1, -1), geometric_phases(d, theta, b2, -1)))
    for party in (0, 1):
        table = basis.phase_tables[party]
        matrices = observable_matrices(table, basis.label_convention)
        table_loop, matrices_loop, conjugate = observable_table_loop(*generators[party])
        assert table.shape == (d, d) and matrices.shape == (d, d, d)
        assert table.tobytes() == table_loop.tobytes()
        assert matrices.tobytes() == matrices_loop.tobytes()
        for obs, row, matrix in zip(observables(basis, party), table_loop, matrices_loop,
                                    strict=True):
            assert obs.phases.thetas.tobytes() == row.tobytes()
            assert obs.matrix.tobytes() == matrix.tobytes()
            assert (obs.label_convention is LabelConvention.CONJUGATE) == conjugate


@pytest.mark.parametrize("d", range(3, 10))
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_violation_stack_equals_kron_route_per_basis(d, data):
    """Not a tolerance: each v of a stack of 1..4 drawn bases has the bytes of the
    kron loop's float for that basis alone (a zero's sign included), with blocks
    of a drawn number of slices (or of bell.BLOCK_ENTRIES entries) that the
    stack's slices straddle."""
    state, t = draw_state(d, data), draw_operator(d, data)
    bases = [draw_basis(d, data) for _ in range(data.draw(st.integers(1, 4)))]
    slices = len(bases) * np.count_nonzero(t.coefficients)
    step = data.draw(st.none() | st.integers(1, max(1, slices - 1)))
    entries = bell.BLOCK_ENTRIES if step is None else step * d**4
    with mock.patch.object(bell, "BLOCK_ENTRIES", entries):
        vs = violation_stack(state, t, stacked(bases))
    assert vs.tobytes() == np.array([kron_violation(state, t, b) for b in bases]).tobytes()


def test_violation_memory_is_bounded_by_its_block():
    """At d = 9 the 81 Kronecker products would take 8.5 MB at once; the
    blocks keep the peak near one block of bell.BLOCK_ENTRIES entries (512 KiB)."""
    d = 9
    t = BellOperator(d, np.ones((d, d)))
    state, basis = maximally_entangled(d), canonical_basis(d)
    violation(state, t, basis)  # the cached tables and index arrays are not counted
    tracemalloc.start()
    try:
        violation(state, t, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_theta_scan_memory_does_not_grow_with_the_grid():
    """theta_scan evaluates its grid as stacks of BLOCK_ENTRIES // d^4 phases, so a
    10 000-point psi5 scan never holds the whole grid's tables or matrices."""
    state, t = psi5(), builtin_operator(5)
    theta_scan(state, t, num_points=40)  # cached index arrays and tables are not counted
    tracemalloc.start()
    try:
        theta_scan(state, t, num_points=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


@pytest.mark.parametrize("num_points", [0, -3])
def test_theta_scan_rejects_non_positive_num_points(num_points):
    with pytest.raises(ValueError, match=f"num_points must be >= 1, got {num_points}"):
        theta_scan(psi3(), builtin_operator(3), num_points)
