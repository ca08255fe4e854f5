import numpy as np
import pytest

from picopulse import analytic, protocols
from picopulse.analytic import PulsePair, RectPulse
from picopulse.core import KET_DOWN
from picopulse.dynamics import LindbladParams, evolve_state
from picopulse.protocols import Axis, SweepSpec

DELTA = 2 * np.pi * 0.25


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("a", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Axis("a", 1.0, 0.0, 5)
    assert len(Axis("a", 0.0, 1.0, 5).values()) == 5


def test_sweep_single_pulse_spot_check():
    spec = SweepSpec(axis1=Axis("amplitude", 1.0, 30.0, 7),
                     axis2=Axis("t", 0.01, 0.4, 9),
                     fixed={"delta": DELTA, "tau": 0.2}, observable=1)
    grid = protocols.sweep_single_pulse(spec)
    assert grid.values.shape == (7, 9)
    # cell inside the pulse must equal the closed form at that time
    amps = spec.axis1.values()
    times = spec.axis2.values()
    i, k = 4, 3
    assert times[k] < 0.2
    expected = analytic.unipolar_probability(RectPulse(amps[i], times[k]), DELTA)
    assert grid.values[i, k] == pytest.approx(expected, abs=1e-10)


def test_sweep_pulse_pair_spot_check():
    fixed = {"delta": DELTA, "tau1": 0.02, "tau2": 0.02, "tau_r": 1.1}
    spec = SweepSpec(axis1=Axis("amplitude", 10.0, 80.0, 5),
                     axis2=Axis("t", 2.0, 3.0, 4), fixed=fixed, observable=1)
    grid = protocols.sweep_pulse_pair(spec)
    # after both pulses the population is frozen at the closed-form value
    amps = spec.axis1.values()
    w = analytic.ramsey_probability_unipolar(
        PulsePair(0.02, 0.02, 1.1, amps[2]), DELTA)
    assert grid.values[2, -1] == pytest.approx(w, abs=1e-10)


def test_sweep_coupler_pulse_matches_closed_form():
    from picopulse.register import coupler_flip_probability
    spec = SweepSpec(axis1=Axis("j", 0.1, 2.0, 5),
                     axis2=Axis("t", 0.5, 4.0, 6),
                     fixed={"delta": DELTA, "tau": 10.0})
    grid = protocols.sweep_coupler_pulse(spec)
    js = spec.axis1.values()
    ts = spec.axis2.values()
    w = coupler_flip_probability(DELTA, js[3], ts[2])
    assert grid.values[3, 2] == pytest.approx(w, abs=1e-10)


def test_sweep_three_stage_matches_register_module():
    from picopulse.register import ThreeStageSpec, three_stage_probability
    j = 1.0
    spec = SweepSpec(axis1=Axis("a", 5.0, 30.0, 4),
                     axis2=Axis("tau2", 0.05, 0.5, 5),
                     fixed={"delta": DELTA, "j": j, "tau1": 0.05})
    grid = protocols.sweep_three_stage(spec)
    a = spec.axis1.values()[1]
    tau2 = spec.axis2.values()[3]
    # the register module's kick uses the opposite J sign convention from the
    # bare Hamiltonian, so the composed probability matches the numeric sweep
    # only to O((J tau1)^2)
    w = three_stage_probability(
        ThreeStageSpec(tau1=0.05, tau2=tau2, j=j, a1=a, a2=a), DELTA)
    assert grid.values[1, 3] == pytest.approx(w, abs=5 * (j * 0.05) ** 2)


def test_sweep_register_pair_populations_sum_to_one():
    spec = SweepSpec(axis1=Axis("a", 20.0, 60.0, 3),
                     axis2=Axis("t", 0.0, 1.0, 8),
                     fixed={"delta1": DELTA, "delta2": DELTA, "j": 0.2,
                            "tau1": 0.02, "tau2": 0.02, "tau_r": 0.4})
    grids = protocols.sweep_register_pair(spec)
    assert len(grids) == 4
    total = sum(g.values for g in grids)
    assert np.allclose(total, 1.0, atol=1e-9)


def test_populations_at_handles_unsorted_times():
    sched = protocols.single_pulse_schedule(20.0, 0.1, DELTA, tail=1.0)
    times = np.array([0.9, 0.05, 0.5, 0.0])
    pops = protocols.populations_at(sched, np.array([1, 0], dtype=complex), times)
    # compare each against an independent propagation
    for t, p in zip(times, pops):
        traj = evolve_state(sched, KET_DOWN, sample_dt=max(t, 1e-6))
        k = np.argmin(np.abs(traj.times - t))
        assert p[1] == pytest.approx(abs(traj.states[k][1]) ** 2, abs=1e-10)


def test_ramsey_delay_scan_columns_agree():
    rows = protocols.ramsey_delay_scan(40.0, DELTA, 0.02, np.linspace(0.0, 8.0, 30))
    assert rows.shape == (30, 3)
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-9


def test_lindblad_scan_decays_toward_mixture():
    lp = LindbladParams(gamma=0.3, gamma_phi=0.6)
    rows = protocols.lindblad_ramsey_scan(40.0, DELTA, 0.02,
                                          np.array([0.0, 20.0]), lp)
    assert rows[1, 1] < rows[0, 1]  # long delay damps the fringe


def test_bloch_trajectory_stays_on_sphere():
    sched = protocols.pulse_pair_schedule(30.0, 0.03, 0.03, 1.0, DELTA)
    rows = protocols.bloch_trajectory(sched, KET_DOWN, 0.05)
    r = np.linalg.norm(rows[:, 1:], axis=1)
    assert np.allclose(r, 1.0, atol=1e-9)
    assert rows[0, 3] == pytest.approx(1.0)  # starts at the north pole (|down>)


def test_fringe_contrast():
    assert protocols.fringe_contrast([0.2, 0.8]) == pytest.approx(0.6)
    assert protocols.fringe_contrast([0.5, 0.5]) == pytest.approx(0.0)
    assert protocols.fringe_contrast([0.0, 0.0]) == 0.0


def test_peak_positions_quadratic_interpolation():
    x = np.linspace(0.0, 4 * np.pi, 400)
    y = np.sin(x - 0.3) ** 2
    peaks = protocols.peak_positions(x, y)
    expected = [0.3 + np.pi / 2, 0.3 + 3 * np.pi / 2, 0.3 + 5 * np.pi / 2,
                0.3 + 7 * np.pi / 2]
    assert np.allclose(peaks, expected, atol=1e-3)


def test_calibrate_pi_pulse_from_cold_start():
    target = ("state", np.array([0.0, 1.0], dtype=complex))
    a0 = 100 * DELTA

    def template(p):
        return protocols.single_pulse_schedule(p[0], p[1], DELTA)

    result = protocols.calibrate_pulse(
        target, template, bounds=[(0.3 * a0, 3 * a0), (0.2 * np.pi / a0, 3 * np.pi / a0)],
        seed=[0.8 * a0, 1.3 * np.pi / a0])
    assert result.converged
    assert 1.0 - result.fidelity <= 1e-4
    # reported fidelity must reproduce from the rounded parameters
    from picopulse.dynamics import evolve_unitary
    u = evolve_unitary(template(result.params))
    assert abs(u[1, 0]) ** 2 == pytest.approx(result.fidelity, abs=1e-12)


def test_calibrate_unitary_target():
    import scipy.linalg
    from picopulse.core import make_single_qubit_hamiltonian
    goal = scipy.linalg.expm(-1j * make_single_qubit_hamiltonian(DELTA, 25.0) * 0.07)

    def template(p):
        return protocols.single_pulse_schedule(p[0], 0.07, DELTA)

    result = protocols.calibrate_pulse(("unitary", goal), template,
                                       bounds=[(5.0, 60.0)], seed=[10.0])
    assert result.converged
    assert result.params[0] == pytest.approx(25.0, abs=1e-3)


def test_calibrate_respects_budget():
    target = ("state", np.array([0.0, 1.0], dtype=complex))

    def template(p):
        return protocols.single_pulse_schedule(p[0], 0.02, DELTA)

    result = protocols.calibrate_pulse(target, template, bounds=[(1.0, 300.0)],
                                       seed=[1.0], budget=10)
    assert result.iterations <= 11  # seed evaluation plus the budget


def test_calibrate_input_validation():
    target = ("state", np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        protocols.calibrate_pulse(("density", np.eye(2)), lambda p: None,
                                  [(0, 1)], [0.5])
    with pytest.raises(ValueError):
        protocols.calibrate_pulse(target, lambda p: None, [(0, 1)], [0.5, 0.5])


@pytest.mark.parametrize("tau_r", [-1.0, np.nan, np.inf])
def test_pair_builders_reject_bad_delays(tau_r):
    with pytest.raises(ValueError, match="tau_r"):
        protocols.pulse_pair_schedule(30.0, 0.03, 0.03, tau_r, DELTA)
    with pytest.raises(ValueError, match="tau_r"):
        protocols.register_pair_schedule(DELTA, DELTA, 0.1, 30.0, 30.0, 0.03, 0.03, tau_r)


def test_zero_delay_drops_the_free_segment():
    assert len(protocols.pulse_pair_schedule(30.0, 0.03, 0.03, 0.0, DELTA).segments) == 2
    assert len(protocols.register_pair_schedule(DELTA, DELTA, 0.1, 30.0, 30.0, 0.03, 0.03,
                                                0.0).segments) == 2


@pytest.mark.parametrize("start,stop", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
def test_axis_ends_must_be_finite(start, stop):
    with pytest.raises(ValueError, match="'x'"):
        Axis("x", start, stop, 3)
