import numpy as np
import pytest

from picopulse import register
from picopulse.core import make_two_qubit_hamiltonian
from picopulse.register import ThreeStageSpec

DELTA = 2 * np.pi * 0.25
J = 2 * np.pi * 0.05


def test_coupler_eigensystem_matches_dense():
    vals, vecs = register.coupler_only_eigensystem(DELTA, J)
    h = make_two_qubit_hamiltonian(DELTA, DELTA, 0.0, 0.0, J)
    dense_vals = np.linalg.eigvalsh(h)
    assert np.allclose(vals, dense_vals, atol=1e-12)
    assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-12)


def test_coupler_gap_closed_form():
    vals, _ = register.coupler_only_eigensystem(DELTA, J)
    gap = np.hypot(J, 2 * DELTA)
    # outer-block splitting
    assert vals[-1] - vals[0] == pytest.approx(gap, rel=1e-12)


def test_coupler_flip_probability_against_propagator():
    from picopulse.register import spectral_evolution_unitary
    h = make_two_qubit_hamiltonian(DELTA, DELTA, 0.0, 0.0, J)
    for tau in (0.3, 1.7, 6.1):
        u = spectral_evolution_unitary(h, tau)
        w = abs(u[3, 0]) ** 2
        assert register.coupler_flip_probability(DELTA, J, tau) == pytest.approx(
            w, abs=1e-12)


def test_resonant_coupler_full_flip():
    # Delta = 0: complete |dd> <-> |uu> transfer at tau = pi/J
    w = register.coupler_flip_probability(0.0, J, np.pi / J)
    assert w == pytest.approx(1.0, abs=1e-12)


def test_kick_first_order_structure():
    tau1 = 0.1 / J
    u = register.coupler_kick_unitary(J, tau1, first_order=True)
    g = 0.5 * J * tau1
    assert u[0, 3] == pytest.approx(-1j * g)
    assert u[1, 2] == pytest.approx(-1j * g)
    assert np.allclose(np.diag(u), 1.0)


def test_kick_first_order_limit_enforced():
    with pytest.raises(ValueError):
        register.coupler_kick_unitary(J, 0.3 / J, first_order=True)
    with pytest.warns(UserWarning):
        register.coupler_kick_unitary(J, 0.15 / J, first_order=True)


def test_exact_kick_agrees_with_first_order_for_small_area():
    tau1 = 0.01 / J
    u_exact = register.coupler_kick_unitary(J, tau1)
    u_first = register.coupler_kick_unitary(J, tau1, first_order=True)
    assert np.max(np.abs(u_exact - u_first)) < 5e-5  # O(g^2)


def test_kick_populations_invariant_under_j_sign():
    # the two J-sign conventions are related by a local sz rotation
    tau1 = 0.08 / J
    u_plus = register.coupler_kick_unitary(J, tau1)
    u_minus = register.coupler_kick_unitary(-J, tau1)
    assert np.allclose(np.abs(u_plus), np.abs(u_minus), atol=1e-12)


def test_drive_stage_eigensystem_matches_dense():
    a1, a2 = 30.0, 18.0
    vals, vecs = register.drive_stage_eigensystem(DELTA, a1, a2)
    h = make_two_qubit_hamiltonian(DELTA, DELTA, a1, a2, 0.0)
    assert np.allclose(vals, np.linalg.eigvalsh(h), atol=1e-10)
    assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-10)


def test_drive_stage_eigenvalues_closed_form():
    a1, a2 = 11.0, 4.0
    e1, e2 = np.hypot(a1, DELTA), np.hypot(a2, DELTA)
    vals, _ = register.drive_stage_eigensystem(DELTA, a1, a2)
    expected = np.sort([0.5 * (s1 * e1 + s2 * e2)
                        for s1 in (-1, 1) for s2 in (-1, 1)])
    assert np.allclose(vals, expected, atol=1e-12)


def test_drive_stage_degenerate_fallback():
    # equal amplitudes make E1 = E2; the dense fallback must still reconstruct H
    a = 7.0
    vals, vecs = register.drive_stage_eigensystem(DELTA, a, a)
    h = make_two_qubit_hamiltonian(DELTA, DELTA, a, a, 0.0)
    assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-10)


def test_three_stage_unitary_composition():
    spec = ThreeStageSpec(tau1=0.05 / J, tau2=0.4, j=J, a1=25.0, a2=14.0)
    u = register.three_stage_unitary(spec, DELTA)
    u1 = register.coupler_kick_unitary(J, spec.tau1)
    u2 = register.drive_stage_unitary(DELTA, spec.a1, spec.a2, spec.tau2)
    assert np.allclose(u, u1 @ u2 @ u1, atol=1e-13)
    w = register.three_stage_probability(spec, DELTA)
    assert w == pytest.approx(abs(u[3, 0]) ** 2, abs=1e-14)


def test_asymptotic_form_at_zero_detuning():
    # at Delta = 0 with small kick area the asymptotic form is O(g^4) accurate
    a = 25.0
    g = 0.005
    spec = ThreeStageSpec(tau1=2 * g / J, tau2=0.23, j=J, a1=a, a2=a)
    w_exact = register.three_stage_probability(spec, 0.0)
    w_asym = register.three_stage_probability_asymptotic(spec, 0.0)
    assert w_asym == pytest.approx(w_exact, abs=1e-6)


def test_asymptotic_warns_on_large_detuning():
    spec = ThreeStageSpec(tau1=0.01, tau2=0.2, j=J, a1=1.0, a2=1.0)
    with pytest.warns(UserWarning):
        register.three_stage_probability_asymptotic(spec, 0.5)


def test_stage_parameter_validation():
    with pytest.raises(ValueError):
        ThreeStageSpec(tau1=-1.0, tau2=0.1, j=J, a1=1.0, a2=1.0)
    with pytest.raises(ValueError):
        register.drive_stage_unitary(DELTA, 1.0, 1.0, -0.1)
