import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditbell.algebra import (
    DimensionMismatchError,
    EntangledState,
    InvalidDimensionError,
    fourier_matrix,
    make_state,
    maximally_entangled,
    roots_of_unity,
)
from quditbell.bell import exponent_basis
from quditbell.ditter import (
    InvalidPhaseError,
    LabelConvention,
    PhaseVector,
    ditter_unitaries,
    geometric_phases,
    observable_matrices,
    outcome_distribution,
    party_phase_table,
)

from dense_oracle import Ditter, noisy_density, observables, product_phases_loop

STANDARD, CONJUGATE = LabelConvention.STANDARD, LabelConvention.CONJUGATE


def random_phases(d, rng):
    return PhaseVector(d, np.exp(2j * np.pi * rng.random(d)))


def z(phases: PhaseVector, convention=STANDARD) -> np.ndarray:
    """The library's observable matrix of one phase vector."""
    return observable_matrices(phases.thetas[np.newaxis], convention)[0]


def unitary(phases: PhaseVector) -> np.ndarray:
    """The library's ditter unitary of one phase vector."""
    return ditter_unitaries(phases.thetas[np.newaxis])[0]


def dual_form(phases: PhaseVector) -> np.ndarray:
    """Observable built the long way: conjugate the ditter unitary around the
    shift-by-label operator sum_k omega^k |k><k|."""
    d = phases.d
    f = fourier_matrix(d)
    u = f @ np.diag(phases.thetas)
    z = np.diag(roots_of_unity(d))
    return u.conj().T @ z @ u


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_explicit_form_matches_dual_form(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        phases = random_phases(d, rng)
        assert np.abs(z(phases) - dual_form(phases)).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5])
def test_observable_is_unitary_with_root_outcomes(d):
    rng = np.random.default_rng(d)
    obs = z(random_phases(d, rng))
    assert np.allclose(obs @ obs.conj().T, np.eye(d), atol=1e-12)
    eigs = np.linalg.eigvals(obs)
    assert np.abs(np.sort(eigs**d) - 1.0).max() < 1e-9


def test_phase_vector_requires_unit_modulus():
    with pytest.raises(InvalidPhaseError):
        PhaseVector(3, np.array([1.0, 2.0, 1.0]))


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: PhaseVector(3, [1, np.nan, 1]), InvalidPhaseError, "unit modulus"),
        (lambda: geometric_phases(3, np.nan, 1), InvalidPhaseError, "unit modulus"),
        (lambda: geometric_phases(3, np.nan, 0), InvalidPhaseError, "unit modulus"),
        (lambda: EntangledState(3, [np.nan, 0, 0]), ValueError, "normalized"),
    ],
    ids=["phase-vector", "geometric", "geometric-a0", "entangled"],
)
def test_validators_reject_nan(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: PhaseVector(3, np.ones(4)), DimensionMismatchError,
         r"expected 3 phases, got shape \(4,\)"),
        (lambda: make_state(1, [1]), InvalidDimensionError, "need dimension >= 2, got 1"),
        (lambda: make_state(3, [1, 1]), DimensionMismatchError,
         r"expected 3 coefficients, got shape \(2,\)"),
    ],
    ids=["phase-vector-length", "state-dimension", "state-length"],
)
def test_validators_reject_bad_dimensions_and_exponents(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_power_1_is_the_plain_ditter():
    phases = random_phases(5, np.random.default_rng(5))
    assert np.array_equal(z(phases), Ditter(phases).matrix)


def test_conjugate_label_convention_is_adjoint():
    rng = np.random.default_rng(0)
    phases = random_phases(4, rng)
    assert np.abs(z(phases, CONJUGATE) - z(phases).conj().T).max() < 1e-15
    assert np.allclose(CONJUGATE.labels(4), STANDARD.labels(4).conj())


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
def test_power_d_minus_1_is_adjoint(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        phases = random_phases(d, rng)
        zpow = np.linalg.matrix_power(z(phases), d - 1)
        assert np.abs(zpow - z(phases, CONJUGATE)).max() < 1e-12


def phase_vectors(d):
    angles = st.lists(st.floats(0.0, 2 * np.pi), min_size=d, max_size=d)
    return angles.map(lambda x: PhaseVector(d, np.exp(1j * np.array(x))))


@pytest.mark.parametrize("d", range(2, 10))
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_product_identity_all_exponents(d, data):
    theta, lam = data.draw(phase_vectors(d)), data.draw(phase_vectors(d))
    z_theta, z_lam = z(theta), z(lam)
    products = observable_matrices(party_phase_table(theta, lam), CONJUGATE)
    for i in range(1, d - 1):
        j = d - 1 - i
        lhs = np.linalg.matrix_power(z_theta, i) @ np.linalg.matrix_power(z_lam, j)
        rhs = products[j]
        assert np.abs(lhs - rhs).max() < 1e-12

    # a basis assignment's tables hold X1^{d-1-a} X2^a for each party
    base = np.exp(1j * data.draw(st.floats(0.0, 2 * np.pi)))
    a1, a2, b1, b2 = exponents = data.draw(st.tuples(*[st.integers(-d, d)] * 4))
    basis = exponent_basis(d, exponents, base)
    for generators, table in [
        ((geometric_phases(d, base, a1), geometric_phases(d, base, a2)), observables(basis, 0)),
        ((geometric_phases(d, base, b1, -1), geometric_phases(d, base, b2, -1)),
         observables(basis, 1)),
    ]:
        x1, x2 = (z(g) for g in generators)
        assert len(table) == d
        for a, obs in enumerate(table):
            expected = np.linalg.matrix_power(x1, d - 1 - a) @ np.linalg.matrix_power(x2, a)
            assert np.abs(obs.matrix - expected).max() < 1e-12


@pytest.mark.parametrize("d", range(3, 33))
def test_product_phases_equal_loop_bytes(d):
    rng = np.random.default_rng(d)
    for _ in range(8):
        theta, lam = random_phases(d, rng), random_phases(d, rng)
        for i in range(1, d - 1):
            gammas = party_phase_table(theta, lam)[d - 1 - i]
            assert gammas.tobytes() == product_phases_loop(theta, lam, i).tobytes()


def test_geometric_phases():
    theta = np.exp(1j * np.pi / 6)
    pv = geometric_phases(4, theta, 2, +1)
    assert np.allclose(pv.thetas, theta ** (2 * np.arange(4)))
    pv_conj = geometric_phases(4, theta, 2, -1)
    assert np.allclose(pv_conj.thetas, pv.thetas.conj())


def dense_distribution(rho, a: Ditter, b: Ditter) -> np.ndarray:
    """Oracle: the diagonal of (U_A x U_B) rho (U_A x U_B)^dag, built from the
    d^2 x d^2 Kronecker product."""
    u = np.kron(a.ditter_unitary, b.ditter_unitary)
    d = a.phases.d
    return np.einsum("ij,jk,ik->i", u, rho, u.conj()).real.reshape(d, d)


def test_outcome_distribution_normalized_and_matches_density_path():
    """Isotropic noise as a mixing weight on the pure-state table equals the
    statistics of the d^2 x d^2 noisy density matrix."""
    rng = np.random.default_rng(5)
    for d in range(2, 10):
        for noise in (0.0, 0.3, 1.0):
            state = make_state(d, rng.normal(size=d) + 1j * rng.normal(size=d))
            a = Ditter(random_phases(d, rng))
            b = Ditter(random_phases(d, rng))
            dist = outcome_distribution(state, unitary(a.phases), unitary(b.phases))
            probs = (1 - noise) * dist + noise / d**2
            assert probs.shape == (d, d)
            assert abs(probs.sum() - 1.0) < 1e-12
            oracle = dense_distribution(noisy_density(state, noise), a, b)
            assert np.abs(probs - oracle).max() < 1e-12


def test_outcome_distribution_rejects_mismatched_unitaries():
    """Both unitaries must be (d, d) for the state's d."""
    state, u3, u4 = maximally_entangled(3), fourier_matrix(3), fourier_matrix(4)
    for alice, bob in [(u4, u4), (u3, u4), (u4, u3), (u3, u3[:2]), (u3[np.newaxis], u3)]:
        with pytest.raises(DimensionMismatchError):
            outcome_distribution(state, alice, bob)


def test_matched_conjugate_bases_anticorrelate_detectors():
    d = 4
    theta = np.exp(1j * np.pi / (2 * d))
    a = geometric_phases(d, theta, 1, +1)
    b = geometric_phases(d, theta, 1, -1)
    dist = outcome_distribution(maximally_entangled(d), unitary(a), unitary(b))
    for k in range(d):
        for kp in range(d):
            expected = 1.0 / d if (k + kp) % d == 0 else 0.0
            assert abs(dist[k, kp] - expected) < 1e-12
