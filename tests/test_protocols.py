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
    # the array closed form is the scalar one at every delay
    for tau_r, w in zip(rows[:, 0], rows[:, 2]):
        pair = PulsePair(0.02, 0.02, tau_r, 40.0)
        assert abs(w - analytic.ramsey_probability_unipolar(pair, DELTA)) <= 1e-15
    with pytest.raises(ValueError, match="segment durations must be finite and >= 0"):
        protocols.ramsey_delay_scan(40.0, DELTA, 0.02, [0.0, -1.0])
    with pytest.raises(ValueError, match="all durations must be finite and >= 0"):
        analytic.ramsey_probabilities_unipolar(40.0, 0.02, [0.0, -1.0], DELTA)


def test_lindblad_scan_decays_toward_mixture():
    lp = LindbladParams(gamma=0.3, gamma_phi=0.6)
    rows = protocols.lindblad_ramsey_scan(40.0, DELTA, 0.02,
                                          np.array([0.0, 20.0]), lp)
    assert rows[1, 1] < rows[0, 1]  # long delay damps the fringe


def test_fringe_contrast():
    assert protocols.fringe_contrast([0.2, 0.8]) == pytest.approx(0.6)
    assert protocols.fringe_contrast([0.5, 0.5]) == pytest.approx(0.0)
    assert protocols.fringe_contrast([0.0, 0.0]) == 0.0


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
    assert result.iterations <= 80  # 51 of them the seed and the coarse scans
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
    assert result.iterations <= 40  # 26 of them the seed and the coarse scan


def test_calibrate_respects_budget(monkeypatch):
    """No more propagations than the budget, coarse-scan points included, and
    ``iterations`` counts them all; the rounded-parameter check comes on top."""
    target = ("state", np.array([0.0, 1.0], dtype=complex))
    eigh, schedules = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        if np.ndim(a) >= 3:  # a stack of one-segment schedules, not the search's own Hessian
            schedules.append(int(np.prod(np.shape(a)[:-3])))
        return eigh(a, *args, **kwargs)

    def template(p):
        return protocols.single_pulse_schedule(p[0], p[1], DELTA)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for budget in (0, 1, 2, 10, 25, 26, 27, 28, 30, 52, 60):
        schedules.clear()
        result = protocols.calibrate_pulse(target, template, bounds=[(1.0, 300.0), (0.01, 0.1)],
                                           seed=[1.0, 0.02], budget=budget)
        assert result.iterations <= budget
        assert sum(schedules) == result.iterations + 1


def test_seed_that_meets_the_stop_rule_is_returned_after_one_evaluation():
    a = 100 * DELTA
    seed = [a, np.pi / np.hypot(a, DELTA)]  # a pi rotation: 1 - F = 1e-4 * (1 - 1e-4)

    def template(p):
        return protocols.single_pulse_schedule(p[0], p[1], DELTA)

    result = protocols.calibrate_pulse(("state", np.array([0.0, 1.0], dtype=complex)),
                                       template, bounds=[(0.5 * a, 2 * a), (0.005, 0.05)],
                                       seed=seed, tol=1e-3)
    assert result.iterations == 1
    assert list(result.params) == [float(f"{p:.12g}") for p in seed]
    assert result.converged and 1.0 - result.fidelity <= 1e-4


def register_template(p):
    # drive amplitudes on both qubits, and the second pulse's duration
    return protocols.register_pair_schedule(DELTA, 1.3 * DELTA, 0.4, p[0], p[1], 0.02, p[2],
                                            0.1, tail=0.05)


def three_stage_template(p):
    # one amplitude drives both qubits; the kick duration sets two segments
    return protocols.three_stage_schedule(p[0], 0.05, 2.0, p[1], p[1], DELTA)


GOAL4 = np.array([0.1, 0.3j, 0.5, -0.2 + 0.6j])
GOAL4 /= np.linalg.norm(GOAL4)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("target,template,bounds,p", [
    (("state", np.array([0.6, 0.8j])), lambda p: protocols.single_pulse_schedule(
        p[0], p[1], DELTA), [(10.0, 300.0), (0.01, 0.1)], [120.0, 0.02]),
    (("unitary", random_unitary(2, 1)), lambda p: protocols.single_pulse_schedule(
        p[0], p[1], DELTA), [(10.0, 300.0), (0.01, 0.1)], [20.0, 0.05]),
    (("state", GOAL4), register_template, [(10.0, 300.0)] * 2 + [(0.01, 0.1)],
     [100.0, 150.0, 0.03]),
    (("unitary", random_unitary(4, 2)), register_template,
     [(10.0, 300.0)] * 2 + [(0.01, 0.1)], [100.0, 150.0, 0.03]),
    # at the upper bounds the template is differenced toward the interior
    (("unitary", random_unitary(4, 3)), register_template,
     [(10.0, 300.0)] * 2 + [(0.01, 0.1)], [300.0, 150.0, 0.1]),
    (("state", GOAL4), three_stage_template, [(0.01, 0.2), (5.0, 80.0)], [0.07, 30.0]),
], ids=["state-2", "unitary-2", "state-4", "unitary-4", "unitary-4-at-bounds", "three-stage"])
def test_adjoint_gradient_matches_central_differences(target, template, bounds, p):
    lo, hi = np.array(bounds).T
    objective = protocols._Infidelity(target, template, lo, hi)
    p = np.array(p)
    values, gradient = objective([p])
    assert values[0] == objective([p])[0][0]
    numeric = []
    for i in range(len(p)):
        h = np.zeros(len(p))
        h[i] = 1e-6 * (hi[i] - lo[i])
        numeric.append((objective([p + h])[0][0] - objective([p - h])[0][0]) / (2 * h[i]))
    assert np.all(np.abs(numeric) > 1e-5)  # every parameter moves the fidelity
    # gradient() is taken on the unit box, x = (p - lo) / (hi - lo)
    assert np.allclose(gradient() / (hi - lo), numeric, rtol=1e-6, atol=0.0)
    assert objective.evals == 2 + 2 * len(p)


def test_calibrate_input_validation():
    target = ("state", np.array([0.0, 1.0], dtype=complex))

    def template(p):
        return protocols.single_pulse_schedule(p[0], p[1], DELTA)

    with pytest.raises(ValueError):
        protocols.calibrate_pulse(("density", np.eye(2)), lambda p: None,
                                  [(0, 1)], [0.5])
    with pytest.raises(ValueError):
        protocols.calibrate_pulse(target, lambda p: None, [(0, 1)], [0.5, 0.5])
    bounds, seed = [(100.0, 400.0), (0.005, 0.04)], [157.0, 0.02]
    for kwargs, field in [
        (dict(bounds=[(400.0, 100.0), (0.005, 0.04)]), r"bounds\[0\]"),
        (dict(bounds=[(100.0, 400.0), (0.005, 0.005)]), r"bounds\[1\]"),
        (dict(bounds=[(100.0, np.inf), (0.005, 0.04)]), r"bounds\[0\]"),
        (dict(seed=[1570.0, 0.02]), r"seed\[0\]"),
        (dict(seed=[157.0, np.nan]), r"seed\[1\]"),
        (dict(tol=-1.0), "tol"), (dict(tol=np.nan), "tol"), (dict(tol=0.0), "tol"),
        (dict(budget=-5), "budget"), (dict(budget=2.5), "budget"),
        (dict(budget=np.inf), "budget"),
    ]:
        args = dict(dict(bounds=bounds, seed=seed), **kwargs)
        with pytest.raises(ValueError, match=field):
            protocols.calibrate_pulse(target, template, **args)
    with pytest.raises(ValueError, match="dimension"):
        protocols.calibrate_pulse(("state", np.eye(4)[3]), template, bounds, seed)
    with pytest.raises(ValueError, match="layout"):  # a tail segment appears above 200
        protocols.calibrate_pulse(target, lambda p: protocols.single_pulse_schedule(
            p[0], p[1], DELTA, tail=max(p[0] - 200.0, 0.0)), bounds, seed)


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
