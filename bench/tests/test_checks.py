"""Every output check passes on real program output and rejects the same
output perturbed by 1e-6; the physical-property checks reject outputs that
break the property."""

import json
import math

import numpy as np
import pytest

import checks
from picopulse import cli, dynamics, fluxshaper
from workloads import SMALL_SCAN, demo_segments, scan_calls, shape_calls

SEED = 7


def rng():
    return np.random.default_rng(SEED)


def run_cli(tmp_path, call):
    cfg = tmp_path / f"{call.name}.json"
    cfg.write_text(json.dumps(call.config))
    out = tmp_path / call.name
    assert cli.main([call.command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def nudge(values):
    """Move every value by 1e-6, towards the middle of [0, 1]."""
    return values + np.where(values > 0.5, -1e-6, 1e-6)


@pytest.fixture(scope="module")
def scan_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scan")
    return {call.name: (call, run_cli(tmp, call)) for call in scan_calls(SEED, SMALL_SCAN)}


@pytest.mark.parametrize("kind", ["single", "pair", "coupler", "three-stage", "register-pair"])
def test_sweep_check(scan_outputs, kind):
    call, out = scan_outputs[kind]
    names = [f"grid_basis{b}.csv" for b in range(4)] if kind == "register-pair" else ["grid.csv"]
    parts = [checks.read_grid(out / n) for n in names]
    a1, a2 = parts[0][0], parts[0][1]
    grids = [g for _, _, g in parts]
    assert checks.check_sweep(call, a1, a2, grids, rng()) == []
    # every cell of the first grid moved: closed forms and spot cells must notice
    assert checks.check_sweep(call, a1, a2, [nudge(grids[0])] + grids[1:], rng())
    assert checks.check_sweep(call, a1, a2 * (1 + 1e-6), grids, rng())


def test_ramsey_check(scan_outputs):
    call, out = scan_outputs["ramsey"]
    rows = checks.read_csv(out / "ramsey.csv")[2]
    assert checks.check_ramsey(call, rows, rng()) == []
    bad = rows.copy()
    bad[:, 1] = nudge(bad[:, 1])
    assert checks.check_ramsey(call, bad, rng())


def test_lindblad_check(scan_outputs):
    call, out = scan_outputs["lindblad"]
    comments, _, rows = checks.read_csv(out / "lindblad.csv")
    assert checks.check_lindblad(call, comments, rows, rng()) == []
    bad = rows.copy()
    bad[:, 1] = nudge(bad[:, 1])
    assert checks.check_lindblad(call, comments, bad, rng())


def fake_demo(delta=1.5, j=0.3):
    """A demo output built from a short, strong pulse that inverts both qubits."""
    pairs = [(0.002, 1.0)]
    params = [math.pi / 0.002, math.pi / 0.002, 0.37]
    segs = tuple(dynamics.Segment(*s) for s in demo_segments(pairs, params, j))
    sched = dynamics.Schedule(delta1=delta, delta2=delta, dimension=4, segments=segs)
    traj = dynamics.evolve_state(sched, np.eye(4, dtype=complex)[0], sched.total_duration / 50)
    target = fluxshaper.target_state("inversion")
    fid = float(abs(np.vdot(target, traj.final)) ** 2)
    rows = np.column_stack([traj.times, traj.populations()])
    return {"fidelity": fid, "params": params}, rows, pairs, delta, j, target


def test_demo_check():
    demo, rows, pairs, delta, j, target = fake_demo()
    assert demo["fidelity"] > 0.99
    assert checks.check_demo(demo, rows, pairs, delta, j, target, rng()) == []
    assert checks.check_demo(dict(demo, fidelity=demo["fidelity"] - 1e-6),
                             rows, pairs, delta, j, target, rng())
    bad = rows.copy()
    bad[:, 1:] = nudge(bad[:, 1:])
    assert checks.check_demo(demo, bad, pairs, delta, j, target, rng())
    bad = rows.copy()
    bad[-1, 4] -= 1e-6
    assert checks.check_demo(demo, bad, pairs, delta, j, target, rng())


@pytest.fixture(scope="module")
def shape_output(tmp_path_factory):
    call = shape_calls(SEED)[0]
    out = run_cli(tmp_path_factory.mktemp("shape"), call)
    summary = json.loads((out / "summary.json").read_text())
    wave = checks.read_csv(out / "waveform.csv")[2]
    durations = checks.read_csv(out / "duration_vs_bias.csv")[2]
    return call, summary, wave, durations


def test_shape_check(shape_output):
    call, summary, wave, durations = shape_output
    assert checks.check_shape(call, summary, wave, durations) == []
    for key in ("duration", "peak"):
        assert checks.check_shape(call, dict(summary, **{key: summary[key] + 1e-6}),
                                  wave, durations)
    shifted = wave.copy()
    shifted[:, 1] += 1e-6
    assert checks.check_shape(call, summary, shifted, durations)


def test_shape_property_checks(shape_output):
    call, summary, wave, durations = shape_output
    slower = durations.copy()
    slower[:, 1] *= 1.1  # fluxon 10% slower than the power balance allows
    assert any("power-balance" in f for f in checks.check_shape(call, summary, wave, slower))
    flat = durations.copy()
    flat[-1, 1] = flat[-2, 1]
    assert any("does not fall" in f for f in checks.check_shape(call, summary, wave, flat))


def test_amplitude_stage_check(shape_output):
    _, _, wave, _ = shape_output
    dt = float(wave[1, 0] - wave[0, 0])
    flux = fluxshaper.Waveform(dt=dt, samples=checks.flux_pulse(rng(), dt, n=400))
    peaks = fluxshaper.amplitude_vs_ic1(fluxshaper.InterferometerConfig(),
                                        checks.AMP_IC1, flux)[:, 1]
    assert checks.check_amplitude_stage(peaks) == []
    bad = peaks.copy()
    bad[checks.AMP_IC1.index(1.0)] += 1e-6
    assert checks.check_amplitude_stage(bad)
    swapped = peaks.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # output no longer grows away from ic1 = 1
    assert checks.check_amplitude_stage(swapped)
