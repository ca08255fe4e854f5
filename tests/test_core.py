import numpy as np
import pytest
from hypothesis import given, strategies as st

from picopulse import core


def test_pauli_algebra():
    assert np.allclose(core.SX @ core.SX, core.ID2)
    assert np.allclose(core.SY @ core.SY, core.ID2)
    assert np.allclose(core.SZ @ core.SZ, core.ID2)
    assert np.allclose(core.SX @ core.SY - core.SY @ core.SX, 2j * core.SZ)


def test_raising_operator_convention():
    # |1><0| must send |down> -> |up> in the (1,0)/(0,1) basis
    assert np.allclose(core.SIGMA_PLUS @ core.KET_DOWN, core.KET_UP)
    assert np.allclose(core.SIGMA_MINUS @ core.KET_UP, core.KET_DOWN)


def test_single_qubit_hamiltonian_entries():
    h = core.make_single_qubit_hamiltonian(2.0, 0.0)
    assert h[0, 0] == -1.0  # |down> is the ground state
    assert h[1, 1] == 1.0
    h = core.make_single_qubit_hamiltonian(0.0, 3.0)
    assert np.allclose(h, -1.5 * core.SX)


def test_two_qubit_hamiltonian_structure():
    # coupling connects |dd><uu| and |ud><du| only
    h = core.make_two_qubit_hamiltonian(0.0, 0.0, 0.0, 0.0, 2.0)
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = expected[1, 2] = expected[2, 1] = -1.0
    assert np.allclose(h, expected)
    # e1 drives the slow factor: couples indices (0,2) and (1,3)
    h = core.make_two_qubit_hamiltonian(0.0, 0.0, 2.0, 0.0, 0.0)
    assert h[0, 2] == -1.0 and h[1, 3] == -1.0 and h[0, 1] == 0.0


def test_two_qubit_is_kron_sum():
    h1 = core.make_single_qubit_hamiltonian(1.0, 0.3)
    h2 = core.make_single_qubit_hamiltonian(0.7, -0.2)
    h = core.make_two_qubit_hamiltonian(1.0, 0.7, 0.3, -0.2, 0.0)
    assert np.allclose(h, np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h2))


def test_hamiltonians_name_the_first_non_finite_row():
    """One row of a large stack, not the whole stack, in the message."""
    rows = np.zeros((227, 5))
    rows[3:, :2] = np.inf
    with pytest.raises(ValueError, match=r"row 3 of 227: \[inf, inf, 0.0, 0.0, 0.0\]$"):
        core.hamiltonians(rows)
    with pytest.raises(ValueError, match=r"row 0 of 1: \[nan, 1.0\]$"):
        core.hamiltonians([np.nan, 1.0])


def test_check_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        core.check_state([1.0, 1.0])
    with pytest.raises(ValueError):
        core.check_state([1.0, 0.0, 0.0])  # dimension 3
    core.check_state([1 / np.sqrt(2), 1j / np.sqrt(2)])


def test_check_unitary_and_hermitian():
    with pytest.raises(ValueError):
        core.check_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        core.check_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_check_density_matrix():
    core.check_density_matrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        core.check_density_matrix(np.diag([0.9, 0.2]))
    with pytest.raises(ValueError):
        core.check_density_matrix(np.diag([1.5, -0.5]))


def test_fidelity_bounds_and_phase_invariance():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.exp(1j * 0.7) * a
    assert core.state_fidelity(a, b) == pytest.approx(1.0)
    u = np.diag([1.0, 1j])
    assert core.gate_fidelity(u, np.exp(1j * 1.1) * u) == pytest.approx(1.0)


def test_bloch_vector_cardinal_states():
    assert core.bloch_vector(core.KET_DOWN) == pytest.approx((0.0, 0.0, 1.0))
    assert core.bloch_vector(core.KET_UP) == pytest.approx((0.0, 0.0, -1.0))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert core.bloch_vector(plus) == pytest.approx((1.0, 0.0, 0.0))


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_eigendecomposition_reconstructs(delta, eps):
    h = core.make_single_qubit_hamiltonian(delta, eps)
    vals, vecs = core.hermitian_eigendecomposition(h)
    assert vals[0] <= vals[1]
    assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-12)

