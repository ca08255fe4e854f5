import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picopulse import analytic, core, register
from picopulse.analytic import PulsePair, RabiPulse, RectPulse

DELTA = 2 * np.pi * 0.25  # rad/ns


def test_unipolar_unitary_is_unitary_and_matches_expm():
    import scipy.linalg
    p = RectPulse(amplitude=3.7, duration=0.8)
    u = analytic.unipolar_unitary(p, DELTA)
    core.check_unitary(u)
    h = core.make_single_qubit_hamiltonian(DELTA, p.amplitude)
    assert np.allclose(u, scipy.linalg.expm(-1j * h * p.duration), atol=1e-12)


def test_unipolar_probability_closed_form():
    # W = A^2/Omega^2 sin^2(tau Omega / 2)
    a, tau = 5.0, 0.3
    omega = np.hypot(DELTA, a)
    w = analytic.unipolar_probability(RectPulse(a, tau), DELTA)
    assert w == pytest.approx((a / omega) ** 2 * np.sin(tau * omega / 2) ** 2)
    # and it equals |<up| U |down>|^2
    u = analytic.unipolar_unitary(RectPulse(a, tau), DELTA)
    assert w == pytest.approx(abs(u[1, 0]) ** 2, abs=1e-14)


def test_transfer_amplitudes_match_unitary_column():
    p = RectPulse(amplitude=12.0, duration=0.11)
    psi0, psi1 = analytic.unipolar_transfer_amplitudes(p, DELTA)
    u = analytic.unipolar_unitary(p, DELTA)
    assert psi0 == pytest.approx(u[0, 0], abs=1e-14)
    assert psi1 == pytest.approx(u[1, 0], abs=1e-14)
    assert abs(psi0) ** 2 + abs(psi1) ** 2 == pytest.approx(1.0)


def test_pi_area_pulse_flips_when_strong():
    # A >> Delta and A*tau = pi gives a near-complete flip
    a = 100 * DELTA
    w = analytic.unipolar_probability(RectPulse(a, np.pi / a), DELTA)
    assert w > 0.9999


def test_zero_duration_is_identity():
    u = analytic.unipolar_unitary(RectPulse(5.0, 0.0), DELTA)
    assert np.allclose(u, np.eye(2))
    assert analytic.unipolar_probability(RectPulse(5.0, 0.0), DELTA) == 0.0


def test_small_angle_branch_continuity():
    # series branch and trig branch agree across the switchover
    for tau in (1e-9, 2e-8, 1e-7):
        u = analytic.unipolar_unitary(RectPulse(1e-3, tau), 1e-3)
        core.check_unitary(u, tol=1e-12)


def test_rabi_probability_never_exceeds_one():
    # the (A/2)^2 numerator keeps W <= 1 on resonance
    p = RabiPulse(amplitude=1.0, carrier=DELTA, duration=2 * np.pi / 0.5)
    w = analytic.rabi_probability_rwa(p, DELTA)
    assert w <= 1.0 + 1e-12
    assert w == pytest.approx(np.sin(0.25 * p.amplitude * p.duration) ** 2)


def test_rabi_unitary_matches_probability():
    p = RabiPulse(amplitude=0.8, carrier=1.4, duration=3.0)
    u = analytic.rabi_unitary_rwa(p, DELTA)
    assert abs(u[1, 0]) ** 2 == pytest.approx(
        analytic.rabi_probability_rwa(p, DELTA), abs=1e-14)


def test_free_evolution_sign_matches_lab_frame():
    # exp(-i H t) with H = -1/2 Delta sz: the |down> component advances
    import scipy.linalg
    h = core.make_single_qubit_hamiltonian(DELTA, 0.0)
    t = 0.37
    assert np.allclose(analytic.free_evolution_unitary(t, DELTA),
                       scipy.linalg.expm(-1j * h * t), atol=1e-13)


def test_ramsey_unipolar_matches_composition():
    pair = PulsePair(tau1=0.02, tau2=0.02, tau_r=1.3, amplitude=40.0)
    w = analytic.ramsey_probability_unipolar(pair, DELTA)
    u = analytic.compose_pulse_sequence(
        [RectPulse(pair.amplitude, pair.tau1), pair.tau_r,
         RectPulse(pair.amplitude, pair.tau2)], DELTA)
    assert w == pytest.approx(abs(u[1, 0]) ** 2, abs=1e-12)


def test_ramsey_unipolar_rejects_unequal_pulses():
    with pytest.raises(ValueError):
        analytic.ramsey_probability_unipolar(PulsePair(0.1, 0.2, 1.0, 5.0), DELTA)


def test_ramsey_zero_delay_reduces_to_double_pulse():
    pair = PulsePair(0.015, 0.015, 0.0, 60.0)
    w_pair = analytic.ramsey_probability_unipolar(pair, DELTA)
    w_double = analytic.unipolar_probability(RectPulse(60.0, 0.03), DELTA)
    assert w_pair == pytest.approx(w_double, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(0.0, 0.5), st.floats(-10.0, 10.0))
def test_unipolar_probability_in_unit_interval(a, tau, delta):
    w = analytic.unipolar_probability(RectPulse(a, tau), delta)
    assert -1e-12 <= w <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 0.3), min_size=1, max_size=5),
       st.floats(0.0, 20.0))
def test_composition_stays_unitary(gaps, amplitude):
    elements = []
    for g in gaps:
        elements.append(RectPulse(amplitude, g))
        elements.append(g)
    u = analytic.compose_pulse_sequence(elements, DELTA)
    core.check_unitary(u, tol=1e-9)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        RectPulse(1.0, -0.1)
    with pytest.raises(ValueError):
        analytic.free_evolution_unitary(-1.0, DELTA)
    with pytest.raises(ValueError):
        analytic.compose_pulse_sequence([-0.5], DELTA)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: analytic.ramsey_probability_unipolar(PulsePair(NAN, NAN, 0.0, 1.0), 1.0),
    lambda: analytic.ramsey_probability_unipolar(PulsePair(0.1, 0.1, 0.2, INF), 1.0),
    lambda: analytic.ramsey_probability_unipolar(PulsePair(0.1, 0.1, INF, 1.0), 1.0),
    lambda: analytic.rabi_probability_rwa(RabiPulse(1.0, 1.0, NAN), 1.0),
    lambda: register.three_stage_probability(
        register.ThreeStageSpec(0.1, INF, 1.0, 1.0, 1.0), 1.0),
    lambda: register.coupler_flip_probability(0.1, 0.2, NAN),
    lambda: register.coupler_kick_unitary(1.0, NAN),
    lambda: register.drive_stage_unitary(0.1, 1.0, 2.0, NAN),
    lambda: analytic.free_evolution_unitary(INF, 1.0),
    lambda: analytic.compose_pulse_sequence([NAN], 1.0),
    lambda: analytic.ramsey_probabilities_unipolar(1.0, 0.1, [0.0, INF], 1.0),
], ids=["pair-nan-pulses", "pair-inf-amplitude", "pair-inf-delay", "rabi-nan",
        "three-stage-inf", "coupler-flip-nan", "kick-nan", "drive-nan", "free-inf",
        "compose-nan", "ramsey-array-inf"])
def test_closed_forms_refuse_non_finite_durations(call):
    with pytest.raises(ValueError, match="finite"):
        call()
