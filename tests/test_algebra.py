import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditbell.algebra import (
    DegenerateStateError,
    DimensionMismatchError,
    EntangledState,
    InvalidDimensionError,
    complex_product,
    fourier_matrix,
    make_state,
    omega,
    psi3,
    psi4,
    psi5,
    roots_of_unity,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_fourier_matrix_is_unitary(d):
    f = fourier_matrix(d)
    assert np.allclose(f @ f.conj().T, np.eye(d), atol=1e-12)


def test_fourier_matrix_entries(d=4):
    f = fourier_matrix(d)
    w = omega(d)
    for k in range(d):
        for l in range(d):
            assert abs(f[k, l] - w ** (k * l) / np.sqrt(d)) < 1e-12


def test_fourier_matrix_rejects_bad_dimension():
    with pytest.raises(InvalidDimensionError):
        fourier_matrix(1)


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_roots_of_unity(d):
    w = roots_of_unity(d)
    assert np.allclose(w**d, 1.0, atol=1e-12)
    assert abs(w.sum()) < 1e-12
    assert abs(w[1] - omega(d)) < 1e-15


@pytest.mark.parametrize("d", [3, 4, 5])
def test_state_expansion_round_trip(d):
    rng = np.random.default_rng(d)
    state = make_state(d, rng.normal(size=d) + 1j * rng.normal(size=d))
    vec = state.vector
    idx = np.arange(d)
    recovered = vec[idx * d + idx]
    assert np.allclose(recovered, state.deltas, atol=1e-12)
    off = vec.copy()
    off[idx * d + idx] = 0
    assert np.abs(off).max() == 0.0


def test_make_state_normalizes():
    state = make_state(3, [2, 2, 2])
    assert np.allclose(state.deltas, np.ones(3) / np.sqrt(3))


def test_make_state_rejects_zero():
    with pytest.raises(DegenerateStateError):
        make_state(3, [0, 0, 0])


@pytest.mark.parametrize(
    "deltas,expected",
    [
        ([1e-200, 0, 0], [1, 0, 0]),
        ([1e-160, 1e-160, 0], [2**-0.5, 2**-0.5, 0]),
        ([1e300, -1e300j, 0], [2**-0.5, -1j * 2**-0.5, 0]),
    ],
)
def test_make_state_normalizes_tiny_and_huge_coefficients(deltas, expected):
    """The norm of the raw values underflows or overflows; make_state scales first."""
    assert np.allclose(make_state(3, deltas).deltas, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "deltas,expected",
    [
        ([complex(1.7e308, 1.7e308), 1], [(1 + 1j) * 2**-0.5, 0]),
        ([complex(-1.7e308, 1.7e308), complex(1.7e308, -1.7e308), 0],
         [-0.5 + 0.5j, 0.5 - 0.5j, 0]),
    ],
)
def test_make_state_normalizes_coefficients_whose_modulus_overflows(deltas, expected):
    """|delta| overflows though re and im are finite; scaling by the largest part
    keeps every step finite (a RuntimeWarning fails the test)."""
    assert np.allclose(make_state(len(deltas), deltas).deltas, expected, rtol=0, atol=1e-15)


# components whose spread keeps every scaled square normal; power moves them all
# towards either end of the float range
WIDE_PART = st.just(0.0) | st.floats(1e-60, 1e60) | st.floats(-1e60, -1e-60)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    parts=st.lists(st.tuples(WIDE_PART, WIDE_PART), min_size=2, max_size=9),
    power=st.integers(-240, 240),
)
def test_make_state_scaling_by_largest_part_keeps_the_bits_of_largest_modulus(parts, power):
    """Where |delta| stays finite, the power-of-two scale taken from the largest |re| or
    |im| gives the bytes of the one taken from the largest |delta|."""
    deltas = np.array([complex(re, im) for re, im in parts]) * 10.0**power
    if not deltas.any():
        deltas[0] = 1.0
    scaled = np.ldexp(deltas.view(float), -np.frexp(np.abs(deltas).max())[1]).view(complex)
    plain = scaled / np.linalg.norm(scaled)
    assert make_state(len(deltas), deltas).deltas.tobytes() == plain.tobytes()


# components with a normal square even after the power-of-two scaling
PART = st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(parts=st.lists(st.tuples(PART, PART), min_size=2, max_size=9))
def test_make_state_scaling_keeps_the_bits_of_plain_normalization(parts):
    deltas = np.array([complex(re, im) for re, im in parts])
    if not deltas.any():
        deltas[0] = 1.0
    plain = deltas / np.linalg.norm(deltas)
    assert make_state(len(deltas), deltas).deltas.tobytes() == plain.tobytes()


def test_reference_states_keep_the_bits_of_plain_normalization():
    for state, raw in ((psi3, [1, 1, 1]), (psi4, [1, 1, 1, 1]), (psi5, [1, 1, 1, 1, -1j])):
        raw = np.array(raw, dtype=complex)
        assert state().deltas.tobytes() == (raw / np.linalg.norm(raw)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_make_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        make_state(3, [1, bad, 1])


def test_entangled_state_requires_normalization():
    with pytest.raises(ValueError):
        EntangledState(3, np.array([1.0, 1.0, 1.0]))


def test_entangled_state_shape_check():
    with pytest.raises(DimensionMismatchError):
        EntangledState(3, np.array([1.0, 0.0]))


def test_reference_states():
    assert np.allclose(psi3().deltas, np.ones(3) / np.sqrt(3))
    assert np.allclose(psi4().deltas, np.ones(4) / 2)
    expected = np.array([1, 1, 1, 1, -1j]) / np.sqrt(5)
    assert np.allclose(psi5().deltas, expected)


def test_complex_product_is_python_complex_multiply():
    rng = np.random.default_rng(3)
    x, y = (rng.normal(size=(2, 500)) * 10.0 ** rng.integers(-3, 4, size=(2, 500))).view(complex)
    expected = np.array([complex(p) * complex(q) for p, q in zip(x, y)])
    assert complex_product(x, y).tobytes() == expected.tobytes()
