import math
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mipulse.operators import (
    SIGMA_X,
    build_fock,
    displacement_coupling,
    expm_hermitian,
    tensor,
    unitarity_defect,
)


def test_ladder_two_levels():
    fock = build_fock(1)
    assert np.allclose(fock.lower, [[0, 1], [0, 0]])
    assert np.allclose(fock.raise_, [[0, 0], [1, 0]])


def test_ladder_matrix_elements():
    fock = build_fock(2)
    assert fock.lower[1, 2] == pytest.approx(math.sqrt(2))
    assert fock.lower[0, 1] == pytest.approx(1.0)
    assert np.count_nonzero(fock.lower) == 2


def test_number_operator_diagonal():
    fock = build_fock(20)
    assert np.allclose(fock.number, np.diag(np.arange(21)))


def test_zero_truncation_rejected():
    with pytest.raises(ValueError):
        build_fock(0)


def test_displacement_identity_at_zero():
    fock = build_fock(5)
    assert np.allclose(displacement_coupling(0.0, fock), np.eye(6))


def test_displacement_ground_state_overlap():
    # analytic coherent-state overlap: <0|e^{i eta x}|0> = e^{-eta^2/2}
    eta = 0.2156
    fock = build_fock(20)
    disp = displacement_coupling(eta, fock)
    assert disp[0, 0] == pytest.approx(math.exp(-0.5 * eta**2), abs=1e-12)
    assert abs(disp[0, 0].real - 0.97700) < 5e-5


def test_displacement_unitary_at_sufficient_truncation():
    fock = build_fock(20)
    disp = displacement_coupling(0.2156, fock)
    assert unitarity_defect(disp) < 1e-10


def test_displacement_rejects_negative_eta():
    with pytest.raises(ValueError):
        displacement_coupling(-0.1, build_fock(2))


def test_expm_zero_generator():
    assert np.allclose(expm_hermitian(np.zeros((3, 3)), t=2.5), np.eye(3))


def test_expm_pauli_rotation():
    rabi = 2 * math.pi * 20e3
    u = expm_hermitian(0.5 * rabi * SIGMA_X, t=math.pi / rabi)
    assert np.allclose(u, -1j * SIGMA_X, atol=1e-14)


def test_expm_matches_scipy_on_random_hermitian(rng):
    a = rng.normal(size=(42, 42)) + 1j * rng.normal(size=(42, 42))
    h = a + a.conj().T
    t = 0.37
    mine = expm_hermitian(h, t)
    reference = scipy.linalg.expm(-1j * h * t)
    assert np.abs(mine - reference).max() < 1e-11
    assert unitarity_defect(mine) < 1e-12


def test_expm_rejects_non_hermitian(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        expm_hermitian(h)


def test_expm_semigroup(rng):
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    h = a + a.conj().T
    t1, t2 = 0.21, 0.46
    combined = expm_hermitian(h, t1 + t2)
    product = expm_hermitian(h, t1) @ expm_hermitian(h, t2)
    assert np.abs(combined - product).max() < 1e-11


def test_tensor_mixed_product(rng):
    a, c = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    b, d = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    left = tensor(a, b) @ tensor(c, d)
    right = tensor(a @ c, b @ d)
    assert np.allclose(left, right, atol=1e-12)


#: Finite float64 values, with both zeros drawn often.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def operands(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = rows * cols
    real = np.array(draw(st.lists(ENTRIES, min_size=size, max_size=size)))
    if draw(st.booleans()):
        imag = np.array(draw(st.lists(ENTRIES, min_size=size, max_size=size)))
        values = np.empty(size, dtype=complex)
        values.real, values.imag = real, imag
    else:
        values = real
    return values.reshape(rows, cols)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=operands(), b=operands())
def test_tensor_is_kron_bit_for_bit(a, b):
    with np.errstate(all="ignore"):
        expected = np.kron(a, b)
        product = tensor(a, b)
    assert product.shape == expected.shape
    assert product.dtype == expected.dtype
    assert product.tobytes() == expected.tobytes()


def test_fock_ladder_is_shared_and_read_only():
    build_fock.cache_clear()
    fock = build_fock(5)
    assert build_fock(5) is fock
    assert build_fock(6) is not fock
    assert fock.number is fock.number and fock.position is fock.position
    for array in (fock.lower, fock.raise_, fock.number, fock.position):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_fock_ladder_stays_read_only_across_pickling():
    # a worker process rebuilds the ladder through build_fock, read-only
    fock = build_fock(5)
    fock.number
    data = pickle.dumps(fock)
    build_fock.cache_clear()  # as in a fresh worker
    copy = pickle.loads(data)
    assert copy is build_fock(5)
    for array in (copy.lower, copy.raise_, copy.number, copy.position):
        assert not array.flags.writeable
    assert copy.lower.tobytes() == fock.lower.tobytes()
