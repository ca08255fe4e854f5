import math

import numpy as np
import pytest

from picopulse import analytic, dynamics
from picopulse.analytic import RectPulse
from picopulse.core import KET_DOWN, SZ, check_state, make_single_qubit_hamiltonian
from picopulse.dynamics import LindbladParams, Schedule, Segment

DELTA = 2 * np.pi * 0.25


def make_schedule(*segments, delta=DELTA, dim=2):
    return Schedule(delta1=delta, delta2=delta if dim == 4 else 0.0,
                    dimension=dim, segments=tuple(segments))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0.0)
    with pytest.raises(ValueError):
        Segment(1.0, e1=np.inf)
    with pytest.raises(ValueError):
        make_schedule(Segment(1.0, j=0.5))  # no coupling on a single qubit
    with pytest.raises(ValueError):
        Schedule(delta1=0.0, segments=(), dimension=3)


def test_unitary_matches_analytic_single_pulse():
    p = RectPulse(amplitude=20.0, duration=0.13)
    sched = make_schedule(Segment(p.duration, e1=p.amplitude))
    u = dynamics.evolve_unitary(sched)
    assert np.allclose(u, analytic.unipolar_unitary(p, DELTA), atol=1e-12)


def test_unitary_segment_ordering():
    # first segment must act first: U = U2 @ U1
    s1, s2 = Segment(0.1, e1=5.0), Segment(0.2, e1=-3.0)
    u = dynamics.evolve_unitary(make_schedule(s1, s2))
    u1 = dynamics.evolve_unitary(make_schedule(s1))
    u2 = dynamics.evolve_unitary(make_schedule(s2))
    assert np.allclose(u, u2 @ u1, atol=1e-13)


def test_evolve_state_samples_boundaries():
    sched = make_schedule(Segment(0.1, e1=10.0), Segment(0.25), Segment(0.1, e1=10.0))
    traj = dynamics.evolve_state(sched, KET_DOWN, sample_dt=0.04)
    for b in sched.boundaries():
        assert np.any(np.isclose(traj.times, b))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # final state equals the unitary applied to the initial state
    u = dynamics.evolve_unitary(sched)
    assert np.allclose(traj.final, u @ KET_DOWN, atol=1e-12)


def test_populations_shape_and_sum():
    sched = make_schedule(Segment(0.3, e1=7.0))
    traj = dynamics.evolve_state(sched, KET_DOWN, sample_dt=0.05)
    pops = traj.populations()
    assert pops.shape == (len(traj.times), 2)
    assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-12)


def test_stepper_cross_checks_exact_path():
    sched = make_schedule(Segment(0.2, e1=8.0), Segment(0.1))
    exact = dynamics.evolve_state(sched, KET_DOWN, sched.total_duration).final
    dt = 0.01 / np.hypot(DELTA, 8.0)  # at the admission threshold
    approx = dynamics.evolve_state_stepper(sched, KET_DOWN, dt).final
    assert np.max(np.abs(exact - approx)) < 1e-8


def test_stepper_fourth_order_convergence():
    sched = make_schedule(Segment(0.2, e1=8.0))
    exact = dynamics.evolve_state(sched, KET_DOWN, sched.total_duration).final
    dt0 = 0.008 / np.hypot(DELTA, 8.0)
    err = [np.max(np.abs(dynamics.evolve_state_stepper(sched, KET_DOWN, dt).final - exact))
           for dt in (dt0, dt0 / 2)]
    ratio = err[0] / err[1]
    assert 10 < ratio < 22  # ~2^4 for a 4th-order method


def test_stepper_rejects_coarse_step():
    sched = make_schedule(Segment(0.2, e1=50.0))
    with pytest.raises(ValueError):
        dynamics.evolve_state_stepper(sched, KET_DOWN, 0.01)


def test_driven_cosine_needs_carrier_resolution():
    with pytest.raises(ValueError):
        dynamics.evolve_driven_cosine(0.1, DELTA, DELTA, 1.0, KET_DOWN,
                                      dt=2 * np.pi / DELTA / 10)


def test_driven_cosine_weak_drive_follows_rwa():
    # short sanity run; the full RWA bridge lives in the acceptance tests
    a = 0.02 * DELTA
    tau = 0.25 * (2 * np.pi / (a / 2))  # quarter Rabi period
    dt = 2 * np.pi / DELTA / 80
    traj = dynamics.evolve_driven_cosine(a, DELTA, DELTA, tau, KET_DOWN, dt)
    w = abs(traj.final[1]) ** 2
    assert w == pytest.approx(0.5, abs=0.03)


def test_lindblad_zero_rates_reduces_to_unitary():
    sched = make_schedule(Segment(0.2, e1=9.0))
    rho0 = np.outer(KET_DOWN, KET_DOWN.conj())
    traj = dynamics.evolve_lindblad(sched, rho0, LindbladParams(), sched.total_duration)
    u = dynamics.evolve_unitary(sched)
    assert np.allclose(traj.final, u @ rho0 @ u.conj().T, atol=1e-10)


def test_lindblad_relaxation_rate():
    # excited population decays at gamma under free evolution
    gamma = 0.8
    sched = make_schedule(Segment(1.5))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    traj = dynamics.evolve_lindblad(sched, rho0, LindbladParams(gamma=gamma), 0.25)
    p1 = traj.populations()[:, 1]
    assert np.allclose(p1, np.exp(-gamma * traj.times), atol=1e-10)


def test_lindblad_dephasing_rate():
    # coherence decays at 2*gamma_phi (sz rho sz - rho convention)
    gphi = 0.6
    sched = make_schedule(Segment(2.0), delta=0.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho0 = np.outer(plus, plus.conj())
    traj = dynamics.evolve_lindblad(sched, rho0, LindbladParams(gamma_phi=gphi), 0.5)
    coh = np.abs(traj.states[:, 0, 1])
    assert np.allclose(coh, 0.5 * np.exp(-2 * gphi * traj.times), atol=1e-10)


def test_lindblad_trace_and_positivity_preserved():
    sched = make_schedule(Segment(0.05, e1=30.0), Segment(1.0), Segment(0.05, e1=30.0))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = dynamics.evolve_lindblad(sched, rho0, LindbladParams(0.3, 0.6), 0.1)
    for rho in traj.states:
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho)[0] > -1e-10


def test_lindblad_rejects_dimension_4():
    sched = make_schedule(Segment(0.1, j=1.0), dim=4)
    with pytest.raises(ValueError):
        dynamics.evolve_lindblad(sched, np.eye(4) / 4, LindbladParams(), 0.1)


def test_negative_rates_rejected():
    with pytest.raises(ValueError):
        LindbladParams(gamma=-0.1)
    with pytest.raises(ValueError):
        LindbladParams(gamma_phi=-1.0)


@pytest.mark.parametrize("field", ["gamma", "gamma_phi"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_rates_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        LindbladParams(**{field: value})


def test_rk4_step_is_exact_for_a_cubic_rate():
    # dy/dt = p(t) with p cubic: one RK4 step is Simpson's rule, exact for cubics
    p = np.polynomial.Polynomial([1.0, 2.0, -3.0, 4.0])
    t0, h = 0.3, 0.7
    y = dynamics.rk4_step(lambda frac, _: p(t0 + frac * h), 0.25, h)
    integral = p.integ()
    assert abs(y - (0.25 + integral(t0 + h) - integral(t0))) < 1e-14


def test_rk4_step_is_fourth_order():
    lam = -1.0 + 2.0j

    def error(n):
        y = 1.0 + 0.0j
        for _ in range(n):
            y = dynamics.rk4_step(lambda _, v: lam * v, y, 1.0 / n)
        return abs(y - np.exp(lam))

    ratios = [error(n) / error(2 * n) for n in (8, 16, 32)]
    assert all(14 < r < 18 for r in ratios)  # 2^4 per halving


def _reference_stepper(schedule, psi0, dt):
    """Reference: the stepper's loop with the RK4 tableau written out in full."""
    psi = check_state(psi0).copy()
    states = [psi.copy()]
    for duration, h in zip(schedule.durations().tolist(), schedule.hamiltonians()):
        nsteps = max(1, int(math.ceil(duration / dt)))
        hstep = duration / nsteps
        for _ in range(nsteps):
            k1 = -1j * (h @ psi)
            k2 = -1j * (h @ (psi + 0.5 * hstep * k1))
            k3 = -1j * (h @ (psi + 0.5 * hstep * k2))
            k4 = -1j * (h @ (psi + hstep * k3))
            psi = psi + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(psi.copy())
    return np.array(states)


def _reference_cosine(amplitude, omega, delta, tau, psi0, dt):
    """Reference: the cosine drive's loop with the RK4 tableau written out in full."""
    psi = check_state(psi0).copy()
    nsteps = max(1, int(math.ceil(tau / dt)))
    h = tau / nsteps
    hz = -0.5 * delta * SZ
    times = np.linspace(0.0, tau, nsteps + 1)
    states = [psi]

    def ht(t):
        return hz - 0.5 * amplitude * math.cos(omega * t) * np.array(
            [[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    for n in range(nsteps):
        t = times[n]
        k1 = -1j * (ht(t) @ psi)
        hmid = ht(t + 0.5 * h)
        k2 = -1j * (hmid @ (psi + 0.5 * h * k1))
        k3 = -1j * (hmid @ (psi + 0.5 * h * k2))
        k4 = -1j * (ht(t + h) @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(psi)
    return np.array(states)


@pytest.mark.parametrize("e1,tau_r", [(8.0, 0.1), (20.0, 0.05), (3.0, 0.4)])
def test_stepper_and_cosine_match_the_written_out_tableau_bit_for_bit(e1, tau_r):
    sched = make_schedule(Segment(0.1, e1=e1), Segment(tau_r), Segment(0.1, e1=e1))
    dt = 0.01 / np.hypot(DELTA, e1)
    stepper = dynamics.evolve_state_stepper(sched, KET_DOWN, dt).states
    assert stepper.tobytes() == _reference_stepper(sched, KET_DOWN, dt).tobytes()

    args = (0.1 * e1, DELTA, DELTA, 20 * tau_r, KET_DOWN, 2 * np.pi / DELTA / 50)
    cosine = dynamics.evolve_driven_cosine(*args).states
    assert cosine.tobytes() == _reference_cosine(*args).tobytes()


def test_stepper_and_cosine_take_their_steps_with_rk4_step(monkeypatch):
    calls = []

    def counted(f, y, h):
        calls.append(h)
        return step(f, y, h)

    step = dynamics.rk4_step
    monkeypatch.setattr(dynamics, "rk4_step", counted)
    sched = make_schedule(Segment(0.2, e1=8.0))
    traj = dynamics.evolve_state_stepper(sched, KET_DOWN, 0.01 / np.hypot(DELTA, 8.0))
    assert len(calls) == len(traj.times) - 1
    calls.clear()
    traj = dynamics.evolve_driven_cosine(0.1, DELTA, DELTA, 1.0, KET_DOWN,
                                         2 * np.pi / DELTA / 50)
    assert len(calls) == len(traj.times) - 1
