import math
import warnings

import numpy as np
import pytest

from picopulse import dynamics
from picopulse import fluxshaper as fs

# shared slow fixtures: one default fluxon run reused across tests


@pytest.fixture(scope="module")
def default_run():
    cfg = fs.LJJConfig()
    return cfg, fs.simulate_ljj_fluxon(cfg)


@pytest.fixture(scope="module")
def default_loop(default_run):
    cfg, result = default_run
    return fs.loop_flux_waveform(result, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        fs.LJJConfig(i_b=1.2)
    with pytest.raises(ValueError):
        fs.LJJConfig(dx=0.05, dt=0.05)  # CFL: dt must be <= 0.5 dx
    with pytest.raises(ValueError):
        fs.LJJConfig(length=10.0)
    with pytest.raises(ValueError):
        fs.LJJConfig(x1=30.0, x2=20.0)
    with pytest.raises(ValueError, match="dx"):
        fs.LJJConfig(dx=1e6)  # the grid has no interior point for the taps
    with pytest.raises(ValueError, match="dx"):
        fs.LJJConfig(dx=1e-320)  # length / dx overflows to inf
    with pytest.raises(ValueError, match="dx"):
        fs.LJJConfig(x1=8.0, x2=8.01)  # both taps round onto one grid point
    with pytest.raises(ValueError, match="kink_position"):
        fs.LJJConfig(kink_position=1e6)
    with pytest.raises(ValueError, match="kink_position"):
        fs.LJJConfig(kink_position=0.0)
    with pytest.raises(ValueError, match="length / dx gives 2e\\+07 grid points"):
        fs.LJJConfig(length=1e6)  # ~5e15 point-steps, where the default takes 1.1e7
    fs.LJJConfig(t_max=1e30)  # steps are counted over the default budget, which is shorter
    with pytest.raises(ValueError):
        fs.InterferometerConfig(alpha_j=0.0)
    with pytest.raises(ValueError):
        fs.Waveform(dt=0.1, samples=np.array([1.0, np.nan]))


@pytest.mark.parametrize("config", [
    lambda: fs.LJJConfig(kink_position=math.nan),
    lambda: fs.LJJConfig(absorber_alpha=math.inf),
    lambda: fs.LJJConfig(t_max=math.inf),
    lambda: fs.LJJConfig(dt=math.nan),
    lambda: fs.InterferometerConfig(ic1=math.nan),
    lambda: fs.InterferometerConfig(inductance=-math.inf),
])
def test_config_rejects_non_finite_fields(config):
    with pytest.raises(ValueError, match="must be finite"):
        config()


def test_divergence_is_detected(monkeypatch):
    # configs can no longer carry a non-finite phase in, so plant one in the kink
    profile = fs._kink_profile

    def poisoned(*args):
        phi = profile(*args)
        phi[len(phi) // 2] = math.inf
        return phi

    monkeypatch.setattr(fs, "_kink_profile", poisoned)
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match="sine-Gordon integration diverged"):
            fs.simulate_ljj_fluxon(fs.LJJConfig())


def test_power_balance_velocity_limits():
    assert fs.power_balance_velocity(0.0, 0.05) == 0.0
    assert fs.power_balance_velocity(0.2, 0.05) < 1.0
    # stronger bias -> faster
    assert fs.power_balance_velocity(0.4, 0.05) > fs.power_balance_velocity(0.2, 0.05)


def test_fluxon_velocity_matches_power_balance(default_run):
    cfg, result = default_run
    u = fs.power_balance_velocity(cfg.i_b, cfg.alpha)
    assert result.exited
    assert result.velocity == pytest.approx(u, rel=0.05)


def test_topological_charge_conserved(default_run):
    _, result = default_run
    assert result.charge_drift <= 1e-3


def test_solve_stops_ten_time_units_after_exit(default_run):
    cfg, result = default_run
    exit_x = cfg.length - cfg.absorber_width - 2.0
    gone = np.isnan(result.positions) | (result.positions >= exit_x)
    t_exit = result.times[np.argmax(gone)]
    frame = result.times[1] - result.times[0]
    assert result.exited
    assert result.times[-1] <= t_exit + 10.0 + frame


def test_stalled_fluxon_raises():
    with pytest.raises(fs.FluxonStalled):
        fs.simulate_ljj_fluxon(fs.LJJConfig(i_b=1e-4, t_max=50.0))


def test_solve_steps_on_the_grid_spacing_whatever_dx_rounds_to():
    """dx 0.35 and 40/114 both give the 40-long junction 114 cells of 40/114."""
    a, b = fs.LJJConfig(dx=0.35, dt=0.05), fs.LJJConfig(dx=40 / 114, dt=0.05)
    assert fs.simulate_ljj_fluxon(a).velocity == fs.simulate_ljj_fluxon(b).velocity
    assert fs.field_energy(a).tobytes() == fs.field_energy(b).tobytes()


def test_leapfrog_converges_at_second_order():
    """Halving dx shrinks the change in velocity about 4-fold: 0.947899, 0.952368 and
    0.953188 at dx 0.1, 0.05 and 0.025 give a ratio of 5.45."""
    v = [fs.simulate_ljj_fluxon(fs.LJJConfig(dx=dx)).velocity for dx in (0.1, 0.05, 0.025)]
    assert 3.0 <= (v[1] - v[0]) / (v[2] - v[1]) <= 6.0


def test_velocity_monotone_in_bias():
    vels = []
    for ib in (0.15, 0.3):
        res = fs.simulate_ljj_fluxon(fs.LJJConfig(i_b=ib))
        vels.append(res.velocity)
    assert vels[1] > vels[0]


def test_undriven_energy_conservation():
    cfg = fs.LJJConfig(i_b=0.0, alpha=0.0, initial_velocity=0.5,
                       absorber_width=0.0, t_max=40.0, require_exit=False)
    e = fs.field_energy(cfg)
    assert (e.max() - e.min()) / e[0] < 1e-3


def test_loop_flux_plateau(default_run, default_loop):
    cfg, result = default_run
    # full flux quantum between the taps
    assert default_loop.samples.max() == pytest.approx(2 * math.pi, rel=0.05)
    # transit-time duration
    u = fs.power_balance_velocity(cfg.i_b, cfg.alpha)
    assert fs.plateau_duration(default_loop) == pytest.approx(
        (cfg.x2 - cfg.x1) / u, rel=0.10)
    # returns near zero after exit
    assert abs(default_loop.samples[-1]) < 0.1


def test_taps_outside_fluxon_path_give_flat_waveform():
    # both taps behind the launch point: the kink never crosses them
    cfg = fs.LJJConfig(kink_position=20.0, x1=2.0, x2=5.0,
                       t_max=60.0, require_exit=False)
    result = fs.simulate_ljj_fluxon(cfg)
    wave = fs.loop_flux_waveform(result, cfg)
    assert np.max(np.abs(wave.samples)) < 0.5


def test_grid_convergence_of_plateau(default_run, default_loop):
    cfg, _ = default_run
    fine = fs.LJJConfig(dx=cfg.dx / 2, dt=0.25 * cfg.dx / 2)
    res = fs.simulate_ljj_fluxon(fine)
    d_fine = fs.plateau_duration(fs.loop_flux_waveform(res, fine))
    assert d_fine == pytest.approx(fs.plateau_duration(default_loop), rel=0.01)


def test_duration_vs_bias_monotone(default_run):
    cfg, _ = default_run
    rows = fs.duration_vs_bias(cfg, np.linspace(0.1, 0.9, 9))
    assert np.all(np.diff(rows[:, 1]) < 0)
    for ib, d in rows:
        oracle = (cfg.x2 - cfg.x1) / fs.power_balance_velocity(ib, cfg.alpha)
        assert d == pytest.approx(oracle, rel=0.10)


def test_duration_vs_bias_reports_stalled_as_nan():
    cfg = fs.LJJConfig(t_max=30.0)
    rows = fs.duration_vs_bias(cfg, [1e-4])
    assert math.isnan(rows[0, 1])


def test_amplitude_stage_null_at_unity(default_loop):
    out = fs.simulate_amplitude_stage(default_loop, fs.InterferometerConfig(ic1=1.0))
    assert np.max(np.abs(out.samples)) <= 1e-6 * np.max(np.abs(default_loop.samples))


def test_amplitude_stage_zero_input():
    zero = fs.Waveform(dt=0.1, samples=np.zeros(50))
    out = fs.simulate_amplitude_stage(zero, fs.InterferometerConfig(ic1=0.6))
    assert np.max(np.abs(out.samples)) == 0.0


def test_amplitude_vs_ic1_monotone_and_odd(default_loop):
    rows = fs.amplitude_vs_ic1(fs.InterferometerConfig(),
                               np.linspace(0.5, 1.5, 11), default_loop)
    peaks = rows[:, 1]
    assert abs(peaks[5]) <= 1e-6 * np.max(np.abs(peaks))
    assert np.all(np.diff(np.abs(peaks[:6])) < 0)   # approaching the null
    assert np.all(np.diff(np.abs(peaks[5:])) > 0)   # leaving the null
    assert peaks[0] * peaks[-1] < 0                  # sign flips across ic1 = 1


def test_amplitude_vs_ic1_requires_points(default_loop):
    with pytest.raises(ValueError):
        fs.amplitude_vs_ic1(fs.InterferometerConfig(), [], default_loop)
    rows = fs.amplitude_vs_ic1(fs.InterferometerConfig(), [0.7], default_loop)
    assert rows.shape == (1, 2)


def test_shaped_pulse_fronts_are_sharp(default_run):
    cfg, _ = default_run
    wave = fs.shape_control_pulse(cfg, fs.InterferometerConfig(), 1.0, 1.0)
    plateau = fs.plateau_duration(wave)
    front = 0.5 * (fs.plateau_duration(wave, 0.1) - fs.plateau_duration(wave, 0.9))
    assert front <= 0.1 * plateau


def test_shaped_pulse_null_at_symmetry(default_run):
    cfg, _ = default_run
    wave = fs.shape_control_pulse(cfg, fs.InterferometerConfig(ic1=1.0), 1.0, 1.0)
    assert np.max(np.abs(wave.samples)) < 1e-9


def test_shaped_pulse_duration_tracks_loop_flux(default_run, default_loop):
    cfg, _ = default_run
    wave = fs.shape_control_pulse(cfg, fs.InterferometerConfig(), 1.0, 1.0)
    assert fs.plateau_duration(wave) == pytest.approx(
        fs.plateau_duration(default_loop), rel=0.10)


def test_waveform_segments_preserve_area(default_loop):
    pairs = fs.waveform_segments(default_loop, max_segments=100)
    assert 0 < len(pairs) <= 100
    area = sum(d * v for d, v in pairs)
    full = float(np.sum(default_loop.samples) * default_loop.dt)
    assert area == pytest.approx(full, rel=1e-6)


def test_demo_schedule_drives_qubit_1_then_qubit_2():
    demo = fs.end_to_end_demo("inversion", j=0.1)
    controls = demo.schedule.controls
    n = (len(controls) - 1) // 2
    assert len(controls) == 2 * n + 1 and n > 0
    first, second, tail = controls[:n], controls[n:2 * n], controls[2 * n]
    assert np.all(first[:, 1] == 0.0) and np.any(first[:, 0] != 0.0)
    assert np.all(second[:, 0] == 0.0) and np.any(second[:, 1] != 0.0)
    assert np.all(controls[:2 * n, 2] == 0.1) and np.all(tail == 0.0)


def test_calibrated_pi_area_pulse_flips_single_qubit(default_run):
    # shaped waveform driving one qubit: scaling to pulse area pi must flip it
    from picopulse import protocols
    from picopulse.dynamics import Schedule, Segment

    cfg, _ = default_run
    delta = 2 * np.pi * 0.25
    wave = fs.shape_control_pulse(cfg, fs.InterferometerConfig(), 1.0, 1e-3)
    pairs = fs.waveform_segments(wave, max_segments=100)
    area = sum(d * v for d, v in pairs)
    seed = math.pi / area

    def template(p):
        return Schedule(delta1=delta, segments=tuple(
            Segment(d, e1=p[0] * v) for d, v in pairs))

    result = protocols.calibrate_pulse(
        ("state", np.array([0.0, 1.0], dtype=complex)), template,
        bounds=[(0.5 * seed, 1.5 * seed)], seed=[seed], tol=1e-3)
    assert result.fidelity >= 0.99
    assert result.iterations <= 40  # 26 of them the seed and the coarse scan


def test_target_state_names():
    assert np.allclose(fs.target_state("inversion"), [0, 0, 0, 1])
    ent = fs.target_state("entangled")
    assert np.allclose(ent, [0, 0, 1 / math.sqrt(2), 1 / math.sqrt(2)])
    with pytest.raises(ValueError):
        fs.target_state("ghz")


@pytest.mark.slow
def test_end_to_end_demo_and_rectangular_baseline(default_run):
    from picopulse import protocols
    from picopulse.dynamics import Schedule, Segment

    demo = fs.end_to_end_demo("inversion")
    assert demo.fidelity >= 0.99

    # ideal rectangular pulses with the same plateau duration must do at least
    # as well (sharp fronts are near-ideal)
    delta = 2 * np.pi * 0.25
    tau = fs.plateau_duration(demo.waveform)
    goal = fs.target_state("inversion")

    def template(p):
        return Schedule(delta1=delta, delta2=delta, dimension=4, segments=(
            Segment(tau, e1=p[0], j=0.3), Segment(tau, e2=p[1], j=0.3),
            Segment(max(p[2], 1e-6))))

    seed = math.pi / tau
    rect = protocols.calibrate_pulse(
        ("state", goal), template,
        bounds=[(0.5 * seed, 1.5 * seed), (0.5 * seed, 1.5 * seed),
                (1e-4, 2 * np.pi / delta)],
        seed=[seed, seed, 0.1], tol=5e-3)
    assert rect.fidelity >= demo.fidelity - 0.005


def test_inversion_demo_keeps_the_tail_at_its_seed():
    # the tail is a J = 0 diagonal segment, so |uu> fidelity cannot constrain it
    delta = math.tau * 0.25
    demo = fs.end_to_end_demo("inversion", delta=delta)
    assert demo.params[2] == 0.5 * math.pi / delta
    assert demo.schedule.segments[-1].duration == demo.params[2]
    assert demo.fidelity >= 0.99


def test_demo_refuses_a_fluxon_that_outruns_the_grid(monkeypatch):
    """Undamped and biased, the fluxon reads 1.0015, above the Swihart velocity 1: the
    library refuses it as ``shape`` does, before the amplitude stage and the calibration."""
    def no_amplitude_stage(*args):
        raise AssertionError("the amplitude stage ran")

    monkeypatch.setattr(fs, "simulate_amplitude_stage", no_amplitude_stage)
    with pytest.raises(ArithmeticError, match=r"velocity = 1\.0015 is not in \(0, 1\)"):
        fs.end_to_end_demo("inversion", ljj=fs.LJJConfig(i_b=0.9, alpha=0.0))


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
def test_waveform_sample_period_must_be_finite_and_positive(dt):
    with pytest.raises(ValueError, match="sample period"):
        fs.Waveform(dt=dt, samples=np.zeros(3))


def _reference_amplitude_stage(wave, cfg):
    """Reference: the amplitude stage's loop with the RK4 tableau and the per-substep
    drive written out in full."""
    phi_ext = 0.25 * wave.samples
    nsub = max(1, int(math.ceil(wave.dt / (0.02 * cfg.alpha_j))))
    h = wave.dt / nsub
    ic = np.array([1.0, cfg.ic1])
    phase = np.zeros(2)
    out = np.empty(len(wave.samples))

    def rhs(p, ext):
        return (-ic * np.sin(p) - (p - ext) / cfg.inductance) / cfg.alpha_j

    for i in range(len(wave.samples)):
        out[i] = (phase[1] - phase[0]) / cfg.inductance
        ext0 = phi_ext[i]
        ext1 = phi_ext[min(i + 1, len(phi_ext) - 1)]
        for s in range(nsub):
            ea = ext0 + (ext1 - ext0) * (s / nsub)
            em = ext0 + (ext1 - ext0) * ((s + 0.5) / nsub)
            eb = ext0 + (ext1 - ext0) * ((s + 1) / nsub)
            k1 = rhs(phase, ea)
            k2 = rhs(phase + 0.5 * h * k1, em)
            k3 = rhs(phase + 0.5 * h * k2, em)
            k4 = rhs(phase + h * k3, eb)
            phase = phase + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


@pytest.mark.parametrize("ic1", [0.6, 0.7, 1.0, 1.3])
def test_amplitude_stage_matches_the_written_out_tableau_bit_for_bit(default_loop, ic1):
    cfg = fs.InterferometerConfig(ic1=ic1)
    out = fs.simulate_amplitude_stage(default_loop, cfg).samples
    assert out.tobytes() == _reference_amplitude_stage(default_loop, cfg).tobytes()


def test_amplitude_stage_takes_its_steps_with_rk4_step(monkeypatch):
    calls = []

    def counted(f, y, h):
        calls.append(h)
        return step(f, y, h)

    step = dynamics.rk4_step
    monkeypatch.setattr(dynamics, "rk4_step", counted)
    wave = fs.Waveform(dt=0.3, samples=np.linspace(0.0, 1.0, 5))
    cfg = fs.InterferometerConfig()
    fs.simulate_amplitude_stage(wave, cfg)
    assert len(calls) == 2 * 5 * math.ceil(0.3 / (0.02 * cfg.alpha_j))  # one per phase


def test_amplitude_stage_divergence_names_its_sample(default_loop):
    # the phases overflow, so math.sin meets inf; no ValueError or warning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="amplitude stage diverged at sample 13$"):
            fs.simulate_amplitude_stage(default_loop, fs.InterferometerConfig(inductance=1e-5))


def test_amplitude_stage_detects_a_nan_phase(monkeypatch, default_loop):
    sin = math.sin
    calls = []

    def sin_nan_after_sample_3(p):  # 4 calls per RK4 step, 2 phases per substep
        calls.append(p)
        return math.nan if len(calls) > 3 * 8 * nsub else sin(p)

    nsub = math.ceil(default_loop.dt / (0.02 * fs.InterferometerConfig().alpha_j))
    monkeypatch.setattr(fs.math, "sin", sin_nan_after_sample_3)
    with pytest.raises(RuntimeError, match="amplitude stage diverged at sample 3$"):
        fs.simulate_amplitude_stage(default_loop, fs.InterferometerConfig())


def _reference_ljj(cfg):
    """Reference: the leapfrog step loop in its original order of operations, with
    2 phi formed twice, keeping every saved frame; returns (phases, phase_rates,
    positions)."""
    dx, dt = cfg.dx, cfg.step
    n = int(round(cfg.length / dx)) + 1
    x = np.linspace(0.0, cfg.length, n)
    offset = math.asin(cfg.i_b)
    u0 = cfg.launch_velocity
    phi = fs._kink_profile(x, cfg.kink_position, u0, 0.0, offset)
    phi_prev = fs._kink_profile(x, cfg.kink_position, u0, -dt, offset)
    alpha_x = np.full(n, cfg.alpha)
    if cfg.absorber_width > 0:
        ramp = np.clip((x - (cfg.length - cfg.absorber_width)) / cfg.absorber_width, 0.0, 1.0)
        alpha_x = alpha_x + cfg.absorber_alpha * ramp**2
    nsteps = int(math.ceil(cfg.time_budget / dt))
    stride = max(1, nsteps // 2000)
    exit_x = cfg.length - cfg.absorber_width - 2.0
    level = math.pi + offset
    frames, rates, positions = [], [], []
    exited = False
    damp_plus = 1.0 + 0.5 * alpha_x * dt
    damp_minus = 1.0 - 0.5 * alpha_x * dt
    dx2, dt2 = dx**2, dt**2
    lap, force, phi_next, tmp = (np.empty(n) for _ in range(4))
    inner = lap[1:-1]
    step = 0
    while step < nsteps:
        np.subtract(phi[2:], np.multiply(2.0, phi[1:-1], out=inner), out=inner)
        np.divide(np.add(inner, phi[:-2], out=inner), dx2, out=inner)
        lap[0] = 2.0 * (phi[1] - phi[0]) / dx2
        lap[-1] = 2.0 * (phi[-2] - phi[-1]) / dx2
        np.add(np.subtract(lap, np.sin(phi, out=force), out=force), cfg.i_b, out=force)
        np.subtract(np.multiply(2.0, phi, out=phi_next),
                    np.multiply(damp_minus, phi_prev, out=tmp), out=phi_next)
        np.add(phi_next, np.multiply(dt2, force, out=tmp), out=phi_next)
        np.divide(phi_next, damp_plus, out=phi_next)
        if step % stride == 0:
            i = int(np.argmax(phi < level))
            pos = (x[i - 1] + (phi[i - 1] - level) / (phi[i - 1] - phi[i]) * (x[i] - x[i - 1])
                   if i > 0 else math.nan)
            frames.append(phi.copy())
            rates.append((phi_next - phi_prev) / (2.0 * dt))
            positions.append(pos)
            if not exited and (math.isnan(pos) or pos >= exit_x):
                exited = True
                nsteps = min(nsteps, step + int(10.0 / dt))
        phi_prev, phi, phi_next = phi, phi_next, phi_prev
        step += 1
    return np.array(frames), np.array(rates), np.array(positions)


@pytest.mark.parametrize("cfg", [
    fs.LJJConfig(), fs.LJJConfig(i_b=0.5, absorber_width=0.0),
    fs.LJJConfig(i_b=0.0, alpha=0.0, initial_velocity=0.5, absorber_width=0.0, t_max=40.0,
                 require_exit=False)], ids=["default", "strong-bias-no-absorber", "energy"])
def test_ljj_leapfrog_matches_the_original_step_bit_for_bit(cfg):
    """Every frame the solve hands on, as field_energy reads it, and every position."""
    phases, rates = [], []

    def keep(phi, phi_next, phi_prev):
        phases.append(phi.copy())
        rates.append((phi_next - phi_prev) / (2.0 * cfg.step))

    result = fs._leapfrog(cfg, keep)
    ref_phases, ref_rates, ref_positions = _reference_ljj(cfg)
    assert np.array(phases).tobytes() == ref_phases.tobytes()
    assert np.array(rates).tobytes() == ref_rates.tobytes()
    assert result.positions.tobytes() == ref_positions.tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
def test_energy_scale_must_be_finite_and_positive_before_the_solve(monkeypatch, value):
    def no_solve(cfg):
        raise AssertionError("the LJJ solve ran")

    monkeypatch.setattr(fs, "simulate_ljj_fluxon", no_solve)
    with pytest.raises(ValueError, match="energy_scale must be finite and > 0"):
        fs.shape_control_pulse(fs.LJJConfig(), fs.InterferometerConfig(), energy_scale=value)
