import json

import numpy as np
import pytest

from quditbell import ditter
from quditbell.algebra import (
    InvalidDimensionError,
    maximally_entangled,
    omega,
    psi3,
    psi4,
    psi5,
    roots_of_unity,
)
from quditbell.bell import (
    BUILTIN_POLYS,
    BellMonomial,
    BellOperator,
    assignment_candidates,
    builtin_operator,
    canonical_basis,
    classical_norm,
    exponent_basis,
    lhv_max,
    monomial_observables,
    optimize_basis,
    protocol_basis,
    rotation_phase,
    violation,
)
from quditbell.ditter import outcome_distribution

from dense_oracle import bell_matrix, dense_violation, noisy_density

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
        by_key = {(m.alice_exponents, m.bob_exponents): m.coefficient for m in t.monomials}
        for key, poly in BUILTIN_POLYS[d].items():
            expected = sum(p * w**k for k, p in enumerate(poly))
            assert abs(by_key[key] - expected) < 1e-12


def test_builtin_operator_rejects_other_dimensions():
    with pytest.raises(InvalidDimensionError):
        builtin_operator(6)


def test_operator_homogeneity_enforced():
    with pytest.raises(ValueError):
        BellOperator(3, (BellMonomial((1, 0), (2, 0), 1.0),))


@pytest.mark.parametrize(
    "alice,bob",
    [((1, 0), (2, 0)), ((2, 0), (1, 2)), ((3, -1), (2, 0)), ((2, 0), (-1, 3))],
)
def test_monomial_observables_rejects_non_homogeneous_monomial(alice, bob):
    with pytest.raises(ValueError, match="must be non-negative and sum to 2"):
        monomial_observables(BellMonomial(alice, bob, 1.0), canonical_basis(3))


def test_violation_builds_each_observable_table_once(monkeypatch):
    calls = []
    original = ditter.product_phases

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ditter, "product_phases", counting)
    d = 5
    violation(psi5(), builtin_operator(d), canonical_basis(d))
    # d - 2 product-ditter entries per party, each built once for all d^2 monomials
    assert len(calls) == 2 * (d - 2)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_deterministic_values_are_scaled_roots_of_unity(d):
    """Sharpness property behind the corrected tables: every deterministic
    root-of-unity assignment evaluates the operator to d^2 * (d-th root)."""
    t = builtin_operator(d)
    w = roots_of_unity(d)
    rng = np.random.default_rng(d)
    for _ in range(200):
        x1, x2, y1, y2 = w[rng.integers(0, d, size=4)]
        val = sum(
            m.coefficient
            * x1 ** m.alice_exponents[0]
            * x2 ** m.alice_exponents[1]
            * y1 ** m.bob_exponents[0]
            * y2 ** m.bob_exponents[1]
            for m in t.monomials
        )
        assert abs(abs(val) - d * d) < 1e-9
        assert abs(val**d - (d * d) ** d) < 1e-6 * (d * d) ** d


@pytest.mark.parametrize("d,expected", [(3, 1.0), (4, 1.0), (5, 1.0)])
def test_lhv_max_is_exactly_one(d, expected):
    assert abs(lhv_max(builtin_operator(d)) - expected) < 1e-9


def test_lhv_max_refuses_large_dimension():
    t = BellOperator(7, (BellMonomial((6, 0), (6, 0), 1.0),))
    with pytest.raises(InvalidDimensionError):
        lhv_max(t)


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
    Hermitian part of e^{i pi/d} T / (d^2 cos(pi/d)), with T built densely."""
    state = STATES[d]()
    t = builtin_operator(d)
    bounds = []
    for basis in assignment_candidates(d):
        rotated = np.exp(1j * np.pi / d) * bell_matrix(t, basis)
        bound = np.linalg.eigvalsh((rotated + rotated.conj().T) / 2)[-1]
        bound /= d * d * np.cos(np.pi / d)
        assert violation(state, t, basis) <= bound + 1e-12
        bounds.append(bound)
    assert optimize_basis(state, t)[1] <= max(bounds) + 1e-12


def label_correlation(state, a_obs, b_obs) -> complex:
    """E = sum_{k,k'} P(k,k') label_A(k) label_B(k'): the expectation read
    off the detector statistics, as a protocol run estimates it."""
    return complex(a_obs.labels @ outcome_distribution(state, a_obs, b_obs) @ b_obs.labels)


def test_correlation_matches_operator_expectation():
    d = 4
    state = psi4()
    basis = canonical_basis(d)
    for m in builtin_operator(d).monomials:
        a_obs, b_obs = monomial_observables(m, basis)
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
    d = 3
    assert abs(rotation_phase(d) - np.exp(1j * np.pi / 3)) < 1e-15
    assert abs(classical_norm(d) - 9 * np.cos(np.pi / 3)) < 1e-12


def test_coefficient_table_json_round_trip():
    t = builtin_operator(3)
    doc = json.loads(t.to_json())
    assert doc["d"] == 3
    assert len(doc["monomials"]) == 9


def test_exponent_basis_structure():
    basis = exponent_basis(3, (0, 2, -1, 1))
    theta = basis.theta
    assert np.allclose(basis.alice_generators[0].thetas, 1.0)
    assert np.allclose(basis.alice_generators[1].thetas, theta ** (2 * np.arange(3)))
    assert np.allclose(basis.bob_generators[0].thetas, theta ** (np.arange(3)))
    assert np.allclose(basis.bob_generators[1].thetas, theta ** (-np.arange(3)))
