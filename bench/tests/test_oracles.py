"""Each oracle against a textbook case it must reproduce."""

import math

import numpy as np
import pytest

import oracles


def test_resonant_pi_pulse_flips():
    tau = 0.02
    psi = oracles.propagate([oracles.hamiltonian(0.0, math.pi / tau)], [tau], oracles.ground(2))
    assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_propagate_stops_at_requested_time():
    h = oracles.hamiltonian(0.0, 10.0)
    full = oracles.propagate([h, h], [0.1, 0.2], oracles.ground(2))
    part = oracles.propagate([h, h], [0.1, 0.2], oracles.ground(2), t=0.3)
    mid = oracles.propagate([h], [0.15], oracles.ground(2))
    assert np.allclose(full, part, atol=1e-14)
    assert np.allclose(oracles.propagate([h, h], [0.1, 0.2], oracles.ground(2), t=0.15),
                       mid, atol=1e-14)


def test_single_pulse_closed_form():
    # Rabi: a pi pulse at zero gap flips fully; at a = delta at most half flips
    assert oracles.single_pulse_population([math.pi / 0.5], 0.0, 0.5, [0.5])[0, 0] == \
        pytest.approx(1.0, abs=1e-14)
    w = math.sqrt(2.0)
    t_half = math.pi / w
    assert oracles.single_pulse_population([1.0], 1.0, 10.0, [t_half])[0, 0] == \
        pytest.approx(0.5, abs=1e-14)
    # constant after the pulse
    p = oracles.single_pulse_population([3.0], 1.0, 0.4, [0.4, 0.9, 5.0])
    assert np.ptp(p) == 0.0


@pytest.mark.parametrize("a, delta, t", [(3.0, 1.2, 0.7), (40.0, 1.5, 0.03)])
def test_single_pulse_closed_form_matches_propagation(a, delta, t):
    psi = oracles.propagate([oracles.hamiltonian(delta, a)], [t], oracles.ground(2))
    assert oracles.single_pulse_population([a], delta, t, [t])[0, 0] == \
        pytest.approx(abs(psi[1]) ** 2, abs=1e-13)


def test_coupler_closed_form():
    j, t = 2.0, 0.9
    assert oracles.coupler_population([j], 0.0, 5.0, [t])[0, 0] == \
        pytest.approx(math.sin(0.5 * j * t) ** 2, abs=1e-15)
    delta = 1.3
    h = oracles.hamiltonian(delta, 0.0, delta, 0.0, j, 4)
    psi = oracles.propagate([h], [t], oracles.ground(4))
    assert oracles.coupler_population([j], delta, 5.0, [t])[0, 0] == \
        pytest.approx(abs(psi[3]) ** 2, abs=1e-13)


def test_lindblad_relaxation_and_dephasing():
    zero = np.zeros((2, 2), dtype=complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    rho = oracles.lindblad_evolve(excited, [zero], [3.0], 0.7, 0.0)
    assert rho[1, 1].real == pytest.approx(math.exp(-0.7 * 3.0), abs=1e-12)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    rho = oracles.lindblad_evolve(plus, [zero], [2.0], 0.0, 0.4)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-2 * 0.4 * 2.0), abs=1e-12)


def test_lindblad_without_dissipation_is_unitary():
    hams, durs = oracles.ramsey_schedule(50.0, 1.5, 0.02, 0.8)
    psi = oracles.propagate(hams, durs, oracles.ground(2))
    rho = oracles.lindblad_evolve(np.diag([1.0, 0.0]).astype(complex), hams, durs, 0.0, 0.0)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-11)


def test_power_balance_velocity():
    assert oracles.power_balance_velocity(4 * 0.05 / math.pi, 0.05) == \
        pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert oracles.power_balance_velocity(0.5, 1e-9) == pytest.approx(1.0, abs=1e-12)


def test_plateau_duration_of_top_hat():
    samples = np.zeros(50)
    samples[10:30] = 2.0
    assert oracles.plateau_duration(samples, 0.1) == pytest.approx(2.0, abs=1e-12)
