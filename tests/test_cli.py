import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import picopulse
from picopulse import cli, fluxshaper, protocols
from picopulse.cli import main
from picopulse.fluxshaper import power_balance_velocity



def load_csv(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            continue  # header row
    return np.array(rows)

def run(tmp_path, command, config, name="cfg.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    out = tmp_path / f"out_{name}"
    rc = main([command, "--config", str(path), "--out", str(out), *extra])
    return rc, out


def subprocess_env():
    """The environment that lets a child interpreter import this picopulse."""
    src = str(Path(picopulse.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


SWEEP_CFG = {
    "kind": "single",
    "axis1": {"name": "amplitude", "start": 0.5, "stop": 20.0, "count": 6},
    "axis2": {"name": "tau", "start": 5.0, "stop": 150.0, "count": 8},
    "fixed": {"delta": 0.25, "tau": 100.0},
}


def test_sweep_writes_grid_and_manifest(tmp_path):
    rc, out = run(tmp_path, "sweep", SWEEP_CFG)
    assert rc == 0
    lines = (out / "grid.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert comments  # metadata present
    header, rows = data[0], data[1:]
    assert len(rows) == 6
    values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    assert values.shape == (6, 8)
    assert np.all((values >= 0.0) & (values <= 1.0))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    listed = {o["file"]: o["sha256"] for o in manifest["outputs"]}
    for fname, digest in listed.items():
        actual = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        assert actual == digest


def test_sweep_missing_field_exits_2(tmp_path, capsys):
    bad = dict(SWEEP_CFG, fixed={})
    rc, _ = run(tmp_path, "sweep", bad, name="bad.json")
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_unknown_kind_exits_2(tmp_path):
    rc, _ = run(tmp_path, "sweep", dict(SWEEP_CFG, kind="spiral"), name="k.json")
    assert rc == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_determinism_across_runs_and_thread_counts(tmp_path):
    digests = []
    for i, threads in enumerate(("1", "1", "4")):
        rc, out = run(tmp_path, "sweep", SWEEP_CFG, name=f"d{i}.json",
                      extra=("--threads", threads))
        assert rc == 0
        digests.append(hashlib.sha256((out / "grid.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]


RAMSEY_CFG = {"amplitude": 25.0, "delta": 0.25, "tau": 10.0,
              "tau_r": {"start": 0.0, "stop": 8000.0, "count": 40}}


def test_ramsey_columns_agree(tmp_path):
    rc, out = run(tmp_path, "ramsey", RAMSEY_CFG)
    assert rc == 0
    rows = load_csv(out / "ramsey.csv")
    assert rows.shape[1] == 3
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-8


def test_ramsey_zero_detuning_is_constant(tmp_path):
    cfg = dict(RAMSEY_CFG, delta=0.0)
    rc, out = run(tmp_path, "ramsey", cfg, name="flat.json")
    assert rc == 0
    rows = load_csv(out / "ramsey.csv")
    assert np.ptp(rows[:, 1]) < 1e-12


def test_lindblad_negative_rate_exits_2(tmp_path):
    cfg = dict(RAMSEY_CFG, gamma=-0.1, gamma_phi=0.0)
    rc, _ = run(tmp_path, "lindblad", cfg, name="neg.json")
    assert rc == 2


def test_lindblad_scan_runs(tmp_path):
    cfg = dict(RAMSEY_CFG, gamma=0.05, gamma_phi=0.1,
               tau_r={"start": 0.0, "stop": 4000.0, "count": 25})
    rc, out = run(tmp_path, "lindblad", cfg, name="lind.json")
    assert rc == 0
    rows = load_csv(out / "lindblad.csv")
    assert rows.shape == (25, 2)
    assert np.all((rows[:, 1] >= 0) & (rows[:, 1] <= 1))


def test_lindblad_manifest_reports_health(tmp_path):
    cfg = dict(RAMSEY_CFG, gamma=0.05, gamma_phi=0.1)
    rc, out = run(tmp_path, "lindblad", cfg, name="health.json")
    assert rc == 0
    health = json.loads((out / "manifest.json").read_text())["health"]
    assert health["max_trace_defect"] <= 1e-10
    assert health["min_eigenvalue"] >= -1e-8


def test_lindblad_overflow_exits_3(tmp_path):
    """An amplitude of 1e30 GHz overflows the exponentials, so W is nan: a numeric failure,
    with no output written.  Run as a user runs it, where numpy's overflow is a warning."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(RAMSEY_CFG, amplitude=1e30, gamma=0.05, gamma_phi=0.1)))
    proc = subprocess.run([sys.executable, "-m", "picopulse.cli", "lindblad", "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "lindblad.csv").exists()


def test_sweep_and_ramsey_leave_out_fluxshaper(tmp_path):
    """Only ``shape`` and ``demo`` import fluxshaper."""
    for name, config in (("sweep", SWEEP_CFG), ("ramsey", RAMSEY_CFG)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    code = ("import sys; from picopulse.cli import main; d = sys.argv[1]; "
            "rcs = [main([c, '--config', f'{d}/{c}.json', '--out', f'{d}/{c}']) "
            "for c in ('sweep', 'ramsey')]; "
            "print(rcs, 'picopulse.fluxshaper' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] False"
    assert (tmp_path / "sweep" / "grid.csv").exists()
    assert (tmp_path / "ramsey" / "ramsey.csv").exists()


@pytest.mark.parametrize("defect", ["nan", "trace", "eigenvalue"])
def test_lindblad_health_gate_exits_3(tmp_path, capsys, monkeypatch, defect):
    """Final states beyond core.check_density_matrix's tolerances are a numeric failure."""
    scan = protocols.lindblad_ramsey_finals

    def spoiled(*args):
        finals = scan(*args)
        if defect == "nan":
            finals[3, 1, 1] = math.nan
        elif defect == "trace":
            finals[3, 0, 0] += 2e-10
        else:
            finals[3] = np.diag([1.0 + 2e-8, -2e-8])
        return finals

    monkeypatch.setattr(protocols, "lindblad_ramsey_finals", spoiled)
    rc, out = run(tmp_path, "lindblad", dict(RAMSEY_CFG, gamma=0.05, gamma_phi=0.1),
                  name="spoiled.json")
    assert rc == 3
    assert "not density matrices" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,extra", [("ramsey", {}),
                                           ("lindblad", {"gamma": 0.05, "gamma_phi": 0.1})])
def test_negative_delays_exit_2(tmp_path, capsys, command, extra):
    cfg = dict(RAMSEY_CFG, tau_r={"start": -100.0, "stop": 100.0, "count": 5}, **extra)
    rc, out = run(tmp_path, command, cfg, name="negdelay.json")
    assert rc == 2
    assert "durations" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


CAL_CFG = {
    "target": {"kind": "state", "name": "flip"},
    "template": {"type": "single-pulse", "delta": 1.5707963267948966},
    "bounds": [[100.0, 400.0], [0.005, 0.04]],
    "seed": [157.0, 0.02],
}


def test_calibrate_pi_flip(tmp_path):
    rc, out = run(tmp_path, "calibrate", CAL_CFG, extra=("--convention", "angular"))
    assert rc == 0
    result = json.loads((out / "calibration.json").read_text())
    assert result["converged"] is True
    assert 1.0 - result["fidelity"] <= 1e-4


def test_calibrate_zero_budget_not_converged(tmp_path):
    cfg = dict(CAL_CFG, budget=0)
    rc, out = run(tmp_path, "calibrate", cfg, name="zb.json",
                  extra=("--convention", "angular"))
    assert rc == 0  # non-convergence is data, not failure
    result = json.loads((out / "calibration.json").read_text())
    assert result["converged"] is False


SHAPE_CFG = {"ljj": {"i_b": 0.2}, "amp": {"ic1": 0.7},
             "energy_scale": 1.0, "time_scale": 1.0}


def test_shape_outputs(tmp_path):
    rc, out = run(tmp_path, "shape", SHAPE_CFG)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["duration"] > 0
    assert abs(summary["peak"]) > 0.01
    rows = load_csv(out / "waveform.csv")
    assert rows.shape[1] == 2


def test_shape_symmetric_point_null(tmp_path):
    cfg = {"ljj": {"i_b": 0.2}, "amp": {"ic1": 1.0}}
    rc, out = run(tmp_path, "shape", cfg, name="null.json")
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["peak"]) < 1e-9


def test_shape_cfl_violation_exits_2(tmp_path):
    cfg = {"ljj": {"dx": 0.05, "dt": 0.2}}
    rc, _ = run(tmp_path, "shape", cfg, name="cfl.json")
    assert rc == 2


def test_shape_bias_sweep_monotone(tmp_path):
    cfg = dict(SHAPE_CFG, bias_sweep=[0.15, 0.3, 0.5, 0.7])
    rc, out = run(tmp_path, "shape", cfg, name="sweep.json")
    assert rc == 0
    rows = load_csv(out / "duration_vs_bias.csv")
    assert np.all(np.diff(rows[:, 1]) < 0)


def test_shape_unknown_field_exits_2(tmp_path):
    cfg = {"ljj": {"bias": 0.2}}
    rc, _ = run(tmp_path, "shape", cfg, name="unk.json")
    assert rc == 2


def test_csv_values_round_trip(tmp_path):
    rc, out = run(tmp_path, "ramsey", RAMSEY_CFG, name="rt.json")
    assert rc == 0
    for line in (out / "ramsey.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("tau_R"):
            continue
        for tok in line.split(","):
            assert repr(float(tok)) == tok


@pytest.mark.slow
def test_demo_command(tmp_path):
    cfg = {"target": "inversion", "delta": 0.25, "j": 0.05}
    rc, out = run(tmp_path, "demo", cfg)
    assert rc == 0
    result = json.loads((out / "demo.json").read_text())
    assert result["fidelity"] >= 0.99
    rows = load_csv(out / "trajectory.csv")
    assert rows.shape[1] == 5
    assert np.allclose(rows[:, 1:].sum(axis=1), 1.0, atol=1e-9)


def test_diverging_amplitude_stage_exits_3_without_warnings(tmp_path, capsys):
    cfg = {"ljj": {"i_b": 0.2}, "amp": {"ic1": 0.7, "inductance": 1e-5}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _ = run(tmp_path, "shape", cfg, name="diverge.json")
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: amplitude stage diverged at sample 13\n"


@pytest.mark.slow
def test_demo_manifest_reports_fluxon_health(tmp_path):
    rc, out = run(tmp_path, "demo", {"target": "inversion", "delta": 0.25, "j": 0.05},
                  name="demo_health.json")
    assert rc == 0
    health = json.loads((out / "manifest.json").read_text())["health"]
    assert health["power_balance_velocity"] == power_balance_velocity(0.2, 0.05)
    assert health["velocity"] == pytest.approx(health["power_balance_velocity"], rel=0.05)
    assert 0 <= health["charge_drift"] < 1e-2
    # health stays out of the hashed outputs
    assert "velocity" not in (out / "demo.json").read_text()
    assert "health" not in (out / "demo.json").read_text()


def test_shape_manifest_reports_fluxon_health(tmp_path):
    rc, out = run(tmp_path, "shape", {"ljj": {"i_b": 0.2}}, name="shape_health.json")
    assert rc == 0
    health = json.loads((out / "manifest.json").read_text())["health"]
    summary = json.loads((out / "summary.json").read_text())
    alpha = fluxshaper.LJJConfig().alpha
    assert health == {"velocity": summary["velocity"], "charge_drift": summary["charge_drift"],
                      "power_balance_velocity": power_balance_velocity(0.2, alpha)}
    assert health["velocity"] == pytest.approx(health["power_balance_velocity"], rel=0.05)
    # health stays out of the hashed outputs
    for name in ("summary.json", "waveform.csv"):
        assert "power_balance_velocity" not in (out / name).read_text()


@pytest.mark.parametrize("field, value", [("delta", 1e308), ("delta", 5e-324),
                                          ("delta", math.nan), ("j", 1e308), ("j", math.nan)])
def test_demo_bad_delta_or_j_exits_2_before_the_solve(tmp_path, capsys, recwarn, monkeypatch,
                                                      field, value):
    """Non-finite after conversion to rad/ns, or a delay bound 2*pi/|delta| that
    overflows: one line naming the field, and no LJJ solve first."""
    def no_solve(*args, **kwargs):
        raise AssertionError("the LJJ solve ran")

    monkeypatch.setattr(fluxshaper, "shape_control_pulse", no_solve)
    rc, out = run(tmp_path, "demo", {"target": "inversion", field: value}, name="demo_bad.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, f"error: {field} = ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("kink_position", [39.9, 30.0])
def test_shape_without_a_fluxon_velocity_exits_3_and_writes_nothing(tmp_path, capsys,
                                                                    kink_position):
    """A kink launched at or past the taps leaves the velocity NaN, which strict JSON
    parsers reject."""
    rc, out = run(tmp_path, "shape", {"ljj": {"kink_position": kink_position}},
                  name="nofluxon.json")
    assert rc == 3
    assert capsys.readouterr().err == "numeric failure: summary.json's velocity is not finite\n"
    assert list(out.iterdir()) == []


def test_shape_summary_reports_fluxon_health(tmp_path):
    rc, out = run(tmp_path, "shape", SHAPE_CFG, name="health.json")
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["velocity"] == pytest.approx(power_balance_velocity(0.2, 0.05), rel=0.05)
    assert summary["charge_drift"] < 1e-2


def test_shape_whose_charge_breaks_exits_3_and_writes_nothing(tmp_path, capsys):
    """Near the critical bias and undamped, the junction holds more than one fluxon:
    the charge drifts by about 11.6."""
    rc, out = run(tmp_path, "shape", {"ljj": {"i_b": 0.95, "alpha": 0.0}}, name="charge.json")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: charge_drift = ")
    assert f"exceeds {fluxshaper.CHARGE_DRIFT_MAX}" in err[0]
    assert list(out.iterdir()) == []


def test_shape_whose_fluxon_turns_back_exits_3_and_writes_nothing(tmp_path, capsys):
    """A strong absorber on a short junction stops the fluxon before the exit test,
    and the fitted velocity comes out negative."""
    config = {"ljj": {"i_b": 0.2, "length": 16.0, "dx": 0.2, "x1": 3.0, "x2": 9.0,
                      "kink_position": 2.0, "absorber_alpha": 1e6}, "amp": {"ic1": 0.7}}
    rc, out = run(tmp_path, "shape", config, name="turnback.json")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: velocity = -")
    assert list(out.iterdir()) == []


def test_shape_whose_fluxon_outruns_the_grid_exits_3_and_writes_nothing(tmp_path, capsys):
    """Undamped and biased, the fluxon has no steady speed: it contracts below the grid's
    resolution and reads 1.0015, above the Swihart velocity 1."""
    rc, out = run(tmp_path, "shape", {"ljj": {"i_b": 0.9, "alpha": 0.0}}, name="fast.json")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numeric failure: velocity = 1.0015 is not in (0, 1): the fluxon did not "
                   "travel toward the far end, or outran the grid"]
    assert list(out.iterdir()) == []


def both_conventions(spec):
    """(cyclic, angular) configs from ``spec``, whose (value, unit) leaves are
    GHz or ps values; angular values are 2*pi*f rad/ns and t*1e-3 ns."""
    if isinstance(spec, dict):
        pairs = {k: both_conventions(v) for k, v in spec.items()}
        return ({k: c for k, (c, _) in pairs.items()},
                {k: a for k, (_, a) in pairs.items()})
    if isinstance(spec, tuple):
        value, unit = spec
        return value, (2 * math.pi * value if unit == "GHz" else value * 1e-3)
    if isinstance(spec, list):
        pairs = [both_conventions(v) for v in spec]
        return [c for c, _ in pairs], [a for _, a in pairs]
    return spec, spec


def axis(name, start, stop, count, unit):
    return {"name": name, "start": (start, unit), "stop": (stop, unit), "count": count}


AMP_AXIS = axis("amplitude", 0.5, 20.0, 3, "GHz")
TIME_AXIS = axis("time", 10.0, 3000.0, 4, "ps")
DELTA, J = (0.25, "GHz"), (0.05, "GHz")

CONVENTION_CASES = [
    pytest.param("sweep", {"kind": "single", "axis1": AMP_AXIS, "axis2": TIME_AXIS,
                           "fixed": {"delta": DELTA, "tau": (100.0, "ps")}},
                 id="sweep-single"),
    pytest.param("sweep", {"kind": "pair", "axis1": AMP_AXIS, "axis2": TIME_AXIS,
                           "fixed": {"delta": DELTA, "tau1": (20.0, "ps"), "tau2": (20.0, "ps"),
                                     "tau_r": (1000.0, "ps")}},
                 id="sweep-pair"),
    pytest.param("sweep", {"kind": "coupler", "axis1": axis("j", 0.01, 1.0, 3, "GHz"),
                           "axis2": TIME_AXIS, "fixed": {"delta": DELTA, "tau": (2000.0, "ps")}},
                 id="sweep-coupler"),
    pytest.param("sweep", {"kind": "three-stage", "axis1": AMP_AXIS,
                           "axis2": axis("tau2", 5.0, 150.0, 4, "ps"),
                           "fixed": {"delta": DELTA, "j": (0.5, "GHz"), "tau1": (20.0, "ps")}},
                 id="sweep-three-stage"),
    pytest.param("sweep", {"kind": "register-pair", "axis1": AMP_AXIS, "axis2": TIME_AXIS,
                           "fixed": {"delta1": DELTA, "delta2": (0.3, "GHz"), "j": J,
                                     "tau1": (20.0, "ps"), "tau2": (20.0, "ps"),
                                     "tau_r": (1000.0, "ps")}},
                 id="sweep-register-pair"),
    pytest.param("ramsey", {"amplitude": (25.0, "GHz"), "delta": DELTA, "tau": (10.0, "ps"),
                            "tau_r": {"start": (0.0, "ps"), "stop": (8000.0, "ps"), "count": 6}},
                 id="ramsey"),
    pytest.param("lindblad", {"amplitude": (25.0, "GHz"), "delta": DELTA, "tau": (10.0, "ps"),
                              "tau_r": {"start": (0.0, "ps"), "stop": (8000.0, "ps"), "count": 6},
                              "gamma": (0.05, "GHz"), "gamma_phi": (0.1, "GHz")},
                 id="lindblad"),
    pytest.param("calibrate", {"target": {"kind": "state", "name": "flip"},
                               "template": {"type": "single-pulse", "delta": DELTA},
                               "bounds": [[(16.0, "GHz"), (64.0, "GHz")], [(5.0, "ps"), (40.0, "ps")]],
                               "seed": [(25.0, "GHz"), (20.0, "ps")], "budget": 60},
                 id="calibrate-single-pulse"),
    pytest.param("shape", {"ljj": {"i_b": 0.2}, "amp": {"ic1": 0.7}, "bias_sweep": [0.3, 0.5]},
                 id="shape"),
    pytest.param("demo", {"target": "inversion", "delta": DELTA, "j": J},
                 marks=pytest.mark.slow, id="demo"),
]


@pytest.mark.parametrize("command,spec", CONVENTION_CASES)
def test_cyclic_and_angular_configs_write_identical_outputs(tmp_path, command, spec):
    cyclic, angular = both_conventions(spec)
    rc, out_c = run(tmp_path, command, cyclic, name="cyclic.json")
    assert rc == 0
    rc, out_a = run(tmp_path, command, angular, name="angular.json",
                    extra=("--convention", "angular"))
    assert rc == 0
    files = sorted(p.name for p in out_c.iterdir() if p.name != "manifest.json")
    assert files == sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
    for f in files:
        assert (out_c / f).read_bytes() == (out_a / f).read_bytes(), f


def test_unknown_convention_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "sweep", SWEEP_CFG, extra=("--convention", "hz"))
    assert exc.value.code == 2
    assert "argument --convention: invalid choice: 'hz'" in capsys.readouterr().err


def test_axis_unit_comes_from_position_not_name(tmp_path):
    config = {"kind": "pair",
              "axis1": {"name": "amplitude", "start": 1.0, "stop": 30.0, "count": 3},
              "fixed": {"delta": 0.25, "tau1": 20.0, "tau2": 20.0, "tau_r": 1000.0}}
    grids = []
    for label in ("t", "time", "x"):
        cfg = dict(config, axis2={"name": label, "start": 10.0, "stop": 3000.0, "count": 6})
        rc, out = run(tmp_path, "sweep", cfg, name=f"{label}.json")
        assert rc == 0
        grids.append(load_csv(out / "grid.csv"))
    assert np.array_equal(grids[0], grids[1]) and np.array_equal(grids[1], grids[2])
    assert np.ptp(grids[0][:, 1:]) > 0.1  # a fringe, not one value repeated


@pytest.mark.parametrize("command,config,key", [
    ("sweep", dict(SWEEP_CFG, amplitdue=1.0), "amplitdue"),
    ("sweep", dict(SWEEP_CFG, fixed={"delta": 0.25, "tau": 100.0, "tau_R": 5.0}), "tau_R"),
    ("calibrate", dict(CAL_CFG, template={"type": "single-pulse", "delta": 1.5, "detla": 1.5}),
     "detla"),
    ("shape", {"amp": {"ic1": 0.7, "coupling": 1.0}}, "coupling"),
])
def test_unknown_key_exits_2_and_is_named(tmp_path, capsys, command, config, key):
    rc, _ = run(tmp_path, command, config, name="unknown.json")
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command,config,key", [
    ("sweep", dict(SWEEP_CFG, axis1=dict(SWEEP_CFG["axis1"], count=2.9)), "axis1.count"),
    ("sweep", dict(SWEEP_CFG, axis2=dict(SWEEP_CFG["axis2"], count=True)), "axis2.count"),
    ("ramsey", dict(RAMSEY_CFG, tau_r=dict(RAMSEY_CFG["tau_r"], count=40.5)), "tau_r.count"),
    ("calibrate", dict(CAL_CFG, budget=2.5), "budget"),
    ("sweep", dict(SWEEP_CFG, observable=True), "observable"),
    ("sweep", dict(SWEEP_CFG, observable="1"), "observable"),
])
def test_integer_fields_reject_non_integral_values(tmp_path, capsys, command, config, key):
    rc, _ = run(tmp_path, command, config, name="int.json")
    assert rc == 2
    assert key in capsys.readouterr().err


def test_integral_float_reads_as_integer(tmp_path):
    rc, out = run(tmp_path, "sweep", dict(SWEEP_CFG, axis1=dict(SWEEP_CFG["axis1"], count=6.0)))
    assert rc == 0
    assert load_csv(out / "grid.csv").shape == (6, 9)


@pytest.mark.parametrize("command,config", [
    ("sweep", {"kind": "three-stage",
               "axis1": {"name": "amplitude", "start": 0.5, "stop": 20.0, "count": 3},
               "axis2": {"name": "tau2", "start": 0.0, "stop": 150.0, "count": 4},
               "fixed": {"delta": 0.25, "j": 0.5, "tau1": 20.0}}),
    ("ramsey", dict(RAMSEY_CFG, tau=0.0)),
])
def test_zero_pulse_length_exits_2(tmp_path, command, config):
    rc, _ = run(tmp_path, command, config, name="zero.json")
    assert rc == 2


PAIR_CFG = {"kind": "pair", "axis1": SWEEP_CFG["axis1"], "axis2": SWEEP_CFG["axis2"],
            "fixed": {"delta": 0.25, "tau1": 20.0, "tau2": 20.0, "tau_r": 1000.0}}


@pytest.mark.parametrize("config", [
    dict(SWEEP_CFG, observable=5),
    dict(SWEEP_CFG, observable=2),
    dict(SWEEP_CFG, observable=-1),
    dict(PAIR_CFG, observable=-1),
])
def test_out_of_range_observable_exits_2(tmp_path, capsys, config):
    rc, _ = run(tmp_path, "sweep", config, name="observable.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert "observable" in err and "Traceback" not in err


@pytest.mark.parametrize("command,spec", [
    c for c in CONVENTION_CASES if c.id in ("sweep-coupler", "sweep-three-stage",
                                            "sweep-register-pair")])
def test_observable_rejected_where_the_kind_ignores_it(tmp_path, capsys, command, spec):
    cyclic, _ = both_conventions(spec)
    rc, _ = run(tmp_path, command, dict(cyclic, observable=0), name="ignored.json")
    assert rc == 2
    assert "observable" in capsys.readouterr().err


@pytest.mark.parametrize("config,field", [
    ({"ljj": {"i_b": 0.2, "kink_position": math.nan}}, "kink_position"),
    ({"ljj": {"i_b": 0.2, "absorber_alpha": math.inf}}, "absorber_alpha"),
    ({"amp": {"ic1": math.nan}}, "ic1"),
])
def test_non_finite_shaper_fields_exit_2(tmp_path, capsys, config, field):
    rc, _ = run(tmp_path, "shape", config, name="nonfinite.json")
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("dx", 1e6), ("kink_position", 1e6),
                                         ("kink_position", -1.0), ("length", 1e30)])
def test_misplaced_grid_or_kink_exits_2(tmp_path, capsys, field, value):
    """A dx too coarse to place the taps, a kink outside the junction, or a grid whose
    points times steps pass fluxshaper._POINT_STEPS_MAX, is named."""
    rc, _ = run(tmp_path, "shape", {"ljj": {field: value}}, name="misplaced.json")
    assert rc == 2
    assert field in capsys.readouterr().err


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    def too_large(config, out, conv):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "shape", too_large)
    rc, out = run(tmp_path, "shape", {}, name="large.json")
    err = capsys.readouterr().err
    assert rc == 3
    assert "out of memory" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("field,value", [("alpha", -100.0), ("absorber_alpha", -50.0),
                                         ("absorber_width", -4.0)])
def test_negative_damping_exits_2(tmp_path, capsys, field, value):
    rc, _ = run(tmp_path, "shape", {"ljj": {"i_b": 0.2, field: value}}, name="negdamp.json")
    assert rc == 2
    assert field in capsys.readouterr().err


REGISTER_PAIR_CFG = {"kind": "register-pair", "axis1": SWEEP_CFG["axis1"],
                     "axis2": SWEEP_CFG["axis2"],
                     "fixed": {"delta1": 0.25, "delta2": 0.3, "j": 0.01, "tau1": 20.0,
                               "tau2": 20.0, "tau_r": 1000.0}}


def assert_one_error_line(capsys, recwarn, field):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not recwarn.list


@pytest.mark.parametrize("tau_r", [-100.0, math.nan])
@pytest.mark.parametrize("config", [PAIR_CFG, REGISTER_PAIR_CFG], ids=["pair", "register-pair"])
def test_bad_free_delay_exits_2(tmp_path, capsys, recwarn, config, tau_r):
    cfg = dict(config, fixed=dict(config["fixed"], tau_r=tau_r))
    rc, out = run(tmp_path, "sweep", cfg, name="delay.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "tau_r")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("field", ["gamma", "gamma_phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
def test_bad_rates_exit_2(tmp_path, capsys, recwarn, field, value):
    cfg = dict(RAMSEY_CFG, gamma=0.05, gamma_phi=0.1)
    rc, out = run(tmp_path, "lindblad", dict(cfg, **{field: value}), name="rates.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, field)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, 1e308, 5e-324])
def test_bad_time_scale_exits_2(tmp_path, capsys, recwarn, value):
    """Also a scale that overflows the waveform's duration or underflows its sample period."""
    rc, out = run(tmp_path, "shape", {"time_scale": value}, name="scale.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "time_scale")
    assert not (out / "manifest.json").exists()


def test_huge_t_max_ends_in_seconds_and_writes_nothing(tmp_path):
    """t_max 1e30 saves a frame every ~4e28 steps.  The exit test still runs once per
    plasma period, so the solve ends soon after the fluxon exits; its one saved frame
    gives no velocity."""
    path = tmp_path / "tmax.json"
    path.write_text(json.dumps({"ljj": {"t_max": 1e30}}))
    proc = subprocess.run([sys.executable, "-m", "picopulse.cli", "shape", "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3
    assert proc.stderr == "numeric failure: summary.json's velocity is not finite\n"
    assert list((tmp_path / "out").iterdir()) == []


RESTING_KINK = {"i_b": 0.0, "alpha": 0.0, "kink_position": 20.0, "t_max": 1e30}


@pytest.mark.parametrize("ljj,rc,stderr", [
    (RESTING_KINK, 3, "numeric failure: fluxon did not reach x = 34.0 within the wait "
                      "t = 2450 (i_b = 0.0)\n"),
    ({"i_b": 0.0001, "t_max": 1e6}, 3, "numeric failure: fluxon did not reach x = 34.0 "
                                       "within the wait t = 2450 (i_b = 0.0001)\n"),
    (dict(RESTING_KINK, require_exit=False), 2,
     "error: invalid ljj: length / dx gives 801 grid points, which over 8e+31 steps of "
     "t_max / dt make more than 1e+09 point-steps\n")], ids=["resting", "slow", "no-exit"])
def test_fluxon_that_never_exits_ends_in_seconds_and_writes_nothing(tmp_path, ljj, rc, stderr):
    """A fluxon that must exit waits no longer than the default budget, whatever t_max:
    the resting kink would take 8e31 steps, and the slow one (speed 0.00157) would exit
    after ~1.4e6.  Without require_exit, t_max sets the step count, which is refused."""
    path = tmp_path / "stall.json"
    path.write_text(json.dumps({"ljj": ljj}))
    proc = subprocess.run([sys.executable, "-m", "picopulse.cli", "shape", "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == rc
    assert proc.stderr == stderr
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("alpha_j", [1e-12, 5e-324])
def test_tiny_alpha_j_ends_in_seconds_and_writes_nothing(tmp_path, alpha_j):
    """The amplitude stage takes ~dt / (0.02 alpha_j) RK4 substeps per sample: too many
    to run (1e-12), or a division that overflows (5e-324), is refused before any step.
    shape converts no unit, so its error carries no note on internal units."""
    path = tmp_path / "alpha_j.json"
    path.write_text(json.dumps({"amp": {"alpha_j": alpha_j}}))
    proc = subprocess.run([sys.executable, "-m", "picopulse.cli", "shape", "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    substeps = {1e-12: "1.98e+15", 5e-324: "inf"}[alpha_j]
    assert proc.stderr == (f"error: alpha_j = {alpha_j} needs {substeps} RK4 substeps over 452 "
                           "samples, more than 1e+07\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_huge_grid_ends_in_seconds_and_writes_nothing(tmp_path):
    """A 1e6-long junction takes 2e7 grid points over 2.5e8 steps: refused before the
    solve allocates its first array, naming length and dx."""
    path = tmp_path / "length.json"
    path.write_text(json.dumps({"ljj": {"length": 1e6}}))
    proc = subprocess.run([sys.executable, "-m", "picopulse.cli", "shape", "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("error: invalid ljj: length / dx gives 2e+07 grid points, which "
                           "over 2.52e+08 steps of dt make more than 1e+09 point-steps\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("field,value", [("t_max", 1e308), ("t_max", -1.0), ("t_max", 0.0),
                                         ("dt", 0.0), ("dt", -0.01), ("dt", 5e-324)])
def test_bad_ljj_time_step_or_budget_exits_2(tmp_path, capsys, recwarn, field, value):
    """A non-positive t_max or dt, or one whose step count t_max / dt overflows."""
    rc, out = run(tmp_path, "shape", {"ljj": {field: value}}, name="steps.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, field)
    assert not (out / "manifest.json").exists()


def test_non_finite_phase_exits_3_and_writes_nothing(tmp_path, capsys, recwarn):
    """A 1e300-GHz amplitude over 1e12 ps overflows the segment phases."""
    cfg = dict(SWEEP_CFG, axis1=dict(SWEEP_CFG["axis1"], stop=1e300),
               axis2=dict(SWEEP_CFG["axis2"], stop=1e12), fixed={"delta": 0.25, "tau": 1e12})
    rc, out = run(tmp_path, "sweep", cfg, name="phase.json")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:") and "exp(G dt)" in err[0]
    assert not recwarn.list
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("axis,end", [("axis1", "stop"), ("axis2", "stop"), ("axis1", "start")])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_axis_end_exits_2(tmp_path, capsys, recwarn, axis, end, value):
    cfg = dict(SWEEP_CFG, **{axis: dict(SWEEP_CFG[axis], **{end: value})})
    rc, _ = run(tmp_path, "sweep", cfg, name="axis.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, repr(SWEEP_CFG[axis]["name"]))


def test_non_finite_delay_axis_exits_2(tmp_path, capsys, recwarn):
    cfg = dict(RAMSEY_CFG, tau_r=dict(RAMSEY_CFG["tau_r"], stop=math.inf))
    rc, _ = run(tmp_path, "ramsey", cfg, name="delays.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "'tau_r'")


def no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


README_CAL_CFG = {"target": {"kind": "state", "name": "flip"},
                  "template": {"type": "single-pulse", "delta": 0.25},
                  "bounds": [[16.0, 64.0], [5.0, 40.0]], "seed": [25.0, 20.0], "budget": 400}


@pytest.mark.parametrize("change,field", [
    ({"bounds": [[64.0, 16.0], [5.0, 40.0]]}, "bounds[0]"),
    ({"bounds": [[16.0, 64.0], [5.0, math.inf]]}, "bounds[1]"),
    ({"bounds": [[5.0, 1e308], [5.0, 40.0]]}, "bounds[0]"),  # 1e308 GHz is inf rad/ns
    ({"seed": [250.0, 20.0]}, "seed[0]"),
    ({"tol": -1.0}, "tol"),
    ({"tol": math.nan}, "tol"),
    ({"budget": -5}, "budget"),
], ids=["reversed-bounds", "infinite-bound", "overflowing-bound", "seed-outside", "negative-tol",
        "nan-tol", "negative-budget"])
def test_bad_calibration_numbers_exit_2_and_are_named(tmp_path, capsys, recwarn, change, field):
    rc, out = run(tmp_path, "calibrate", dict(README_CAL_CFG, **change), name="numbers.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, field)
    assert not (out / "manifest.json").exists()


def test_calibration_overflow_exits_3_naming_the_bound(tmp_path, capsys, recwarn):
    """A 1e308-ns duration bound takes the coarse scan's phases past dynamics.PHASE_MAX."""
    cfg = dict(README_CAL_CFG, bounds=[[5.0, 64.0], [5.0, 1e308]])
    rc, out = run(tmp_path, "calibrate", cfg, name="wide.json")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:") and "bounds[1]" in err[0]
    assert not recwarn.list
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,config", [
    ("lindblad", dict(RAMSEY_CFG, amplitude=1e18, gamma=0.05, gamma_phi=0.1)),
    ("sweep", dict(SWEEP_CFG, axis1=dict(SWEEP_CFG["axis1"], stop=1e150))),
    ("calibrate", dict(README_CAL_CFG, bounds=[[16.0, 64.0], [5.0, 1e300]])),
], ids=["lindblad", "sweep", "calibrate"])
def test_unresolved_phase_exits_3_and_writes_nothing(tmp_path, capsys, recwarn, command,
                                                      config):
    """A finite phase past dynamics.PHASE_MAX, which float64 cannot resolve modulo 2 pi."""
    rc, out = run(tmp_path, command, config, name="phase.json")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:") and "not resolved" in err[0]
    assert command != "calibrate" or "bounds[1]" in err[0]
    assert not recwarn.list
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cell", [math.nan, 1.0 + 1e-9])
def test_grid_cell_outside_0_1_exits_3_and_writes_no_grid(tmp_path, capsys, monkeypatch, cell):
    """The range check sees the grid before it is clipped to [0, 1]."""
    sampled = protocols._sampled_populations

    def spoiled(*args):
        pops = sampled(*args)
        pops[2, 3, 0] = cell
        return pops

    monkeypatch.setattr(protocols, "_sampled_populations", spoiled)
    rc, out = run(tmp_path, "sweep", SWEEP_CFG, name="cell.json")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: the single sweep's")
    assert not (out / "grid.csv").exists()


def test_benchmark_warm_up_calibration_exits_0_within_its_budget(tmp_path):
    cfg = dict(README_CAL_CFG, bounds=[[100.0, 400.0], [0.005, 0.04]], seed=[157.0, 0.02],
               budget=60)
    rc, out = run(tmp_path, "calibrate", cfg, name="warm.json")
    assert rc == 0
    assert json.loads((out / "calibration.json").read_text())["iterations"] <= 60


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
def test_bad_energy_scale_exits_2_before_the_solve(tmp_path, capsys, recwarn, monkeypatch,
                                                    value):
    monkeypatch.setattr(fluxshaper, "simulate_ljj_fluxon", no_solve)
    rc, out = run(tmp_path, "shape", {"energy_scale": value}, name="energy.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "energy_scale")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("vector,field", [
    ([[1.0], 0], "target.vector[0]"),
    ([{"re": 1}, 0], "target.vector[0]"),
    ([[1, 0, 5], 0], "target.vector[0]"),
    ([True, 0], "target.vector[0]"),
    ([0, [1, False]], "target.vector[1][1]"),
    ("10", "target.vector"),
    ([0, 0], "target.vector"),
    ([], "target.vector"),
])
def test_bad_target_vector_exits_2_before_calibrating(tmp_path, capsys, recwarn, monkeypatch,
                                                      vector, field):
    monkeypatch.setattr(protocols, "calibrate_pulse", no_solve)
    cfg = dict(CAL_CFG, target={"kind": "state", "vector": vector})
    rc, _ = run(tmp_path, "calibrate", cfg, name="vector.json",
                extra=("--convention", "angular"))
    assert rc == 2
    assert_one_error_line(capsys, recwarn, field)


def test_target_vector_takes_numbers_and_pairs(tmp_path):
    cfg = dict(CAL_CFG, target={"kind": "state", "vector": [0, [3, 4]]})
    rc, out = run(tmp_path, "calibrate", cfg, name="pairs.json",
                  extra=("--convention", "angular"))
    assert rc == 0
    assert json.loads((out / "calibration.json").read_text())["converged"] is True


@pytest.mark.parametrize("biases", [[[0.2]], [None], [True], 0.2])
def test_bad_bias_sweep_exits_2_before_any_solve(tmp_path, capsys, recwarn, monkeypatch,
                                                 biases):
    monkeypatch.setattr(fluxshaper, "simulate_ljj_fluxon", no_solve)
    rc, _ = run(tmp_path, "shape", dict(SHAPE_CFG, bias_sweep=biases), name="biases.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "bias_sweep")


@pytest.mark.parametrize("command,config,field", [
    ("ramsey", dict(RAMSEY_CFG, amplitude=True), "amplitude"),
    ("ramsey", dict(RAMSEY_CFG, tau_r=dict(RAMSEY_CFG["tau_r"], stop=False)), "tau_r.stop"),
    ("shape", {"ljj": {"alpha": True}}, "ljj.alpha"),
    ("shape", {"amp": {"ic1": False}}, "amp.ic1"),
    ("shape", {"time_scale": True}, "time_scale"),
])
def test_a_bool_is_not_a_number(tmp_path, capsys, recwarn, config, command, field):
    rc, _ = run(tmp_path, command, config, name="bool.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, field)


def test_bool_fields_still_take_bools(tmp_path):
    rc, _ = run(tmp_path, "shape", {"ljj": {"i_b": 0.2, "require_exit": True}},
                name="exit.json")
    assert rc == 0


def test_library_errors_say_their_numbers_are_in_internal_units(tmp_path, capsys, recwarn):
    cfg = dict(PAIR_CFG, fixed=dict(PAIR_CFG["fixed"], tau_r=-100.0))
    rc, _ = run(tmp_path, "sweep", cfg, name="units.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "got -0.1 (numbers in internal units: rad/ns and ns)")
    # a config error quotes the config itself and carries no note
    rc, _ = run(tmp_path, "sweep", dict(SWEEP_CFG, amplitdue=1.0), name="note.json")
    assert rc == 2
    assert "internal units" not in capsys.readouterr().err


@pytest.mark.parametrize("command,config,field", [
    ("ramsey", dict(RAMSEY_CFG, amplitude="25"), "amplitude"),
    ("ramsey", dict(RAMSEY_CFG, tau_r=dict(RAMSEY_CFG["tau_r"], stop="8000")), "tau_r.stop"),
    ("lindblad", dict(RAMSEY_CFG, gamma="0.05", gamma_phi=0.1), "gamma"),
    ("sweep", dict(SWEEP_CFG, axis1=dict(SWEEP_CFG["axis1"], start="0.5")), "axis1.start"),
    ("sweep", dict(SWEEP_CFG, fixed=dict(SWEEP_CFG["fixed"], tau="100")), "fixed.tau"),
    ("calibrate", dict(CAL_CFG, tol="1e-4"), "tol"),
    ("calibrate", dict(CAL_CFG, target={"kind": "state", "vector": ["1", 0]}),
     "target.vector[0]"),
    ("shape", {"ljj": {"i_b": "0.2"}}, "ljj.i_b"),
    ("shape", {"amp": {"ic1": "0.7"}}, "amp.ic1"),
    ("shape", {"energy_scale": "1"}, "energy_scale"),
    ("shape", {"bias_sweep": [0.2, "0.3"]}, "bias_sweep[1]"),
])
def test_a_string_is_not_a_number(tmp_path, capsys, recwarn, monkeypatch, command, config,
                                  field):
    monkeypatch.setattr(fluxshaper, "simulate_ljj_fluxon", no_solve)
    monkeypatch.setattr(protocols, "calibrate_pulse", no_solve)
    rc, out = run(tmp_path, command, config, name="string.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, f"invalid {field}: expected a number")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("biases,field", [([1.5], "bias_sweep[0]"),
                                          ([0.2, math.nan], "bias_sweep[1]"),
                                          ([0.3, 0.5, -0.1], "bias_sweep[2]")])
def test_out_of_range_bias_exits_2_before_any_solve(tmp_path, capsys, recwarn, monkeypatch,
                                                    biases, field):
    monkeypatch.setattr(fluxshaper, "simulate_ljj_fluxon", no_solve)
    rc, out = run(tmp_path, "shape", dict(SHAPE_CFG, bias_sweep=biases), name="bias.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid {field}: ") and "internal units" not in err
    assert not recwarn.list and not (out / "manifest.json").exists()


@pytest.mark.parametrize("target,field,length", [
    ({"kind": "state", "vector": [1, 0, 0, 0]}, "target.vector", 4),
    ({"kind": "state", "vector": [1]}, "target.vector", 1),
])
def test_target_of_the_wrong_dimension_is_named(tmp_path, capsys, recwarn, monkeypatch,
                                                target, field, length):
    monkeypatch.setattr(protocols, "calibrate_pulse", no_solve)
    rc, _ = run(tmp_path, "calibrate", dict(CAL_CFG, target=target), name="dim.json",
                extra=("--convention", "angular"))
    assert rc == 2
    assert_one_error_line(capsys, recwarn, f"{field} has {length} entries, but the "
                                           "template's states have 2")


@pytest.mark.parametrize("name", ["inversion", "entangled"])
def test_register_target_name_exits_2(tmp_path, capsys, recwarn, monkeypatch, name):
    """The register states are ``demo`` targets; ``calibrate`` states have two entries."""
    monkeypatch.setattr(protocols, "calibrate_pulse", no_solve)
    rc, out = run(tmp_path, "calibrate", dict(CAL_CFG, target={"kind": "state", "name": name}),
                  name="register.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, f"unknown target name {name!r}")
    assert not (out / "manifest.json").exists()


def test_target_with_name_and_vector_exits_2(tmp_path, capsys, recwarn, monkeypatch):
    monkeypatch.setattr(protocols, "calibrate_pulse", no_solve)
    target = {"kind": "state", "name": "flip", "vector": [1, 0]}
    rc, out = run(tmp_path, "calibrate", dict(CAL_CFG, target=target), name="both.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "target.name and target.vector")
    assert not (out / "manifest.json").exists()


def test_shaped_demo_template_is_gone(tmp_path, capsys, recwarn):
    """The shaped pulse is calibrated by ``demo`` alone."""
    rc, out = run(tmp_path, "calibrate",
                  {"target": {"kind": "state", "name": "inversion"},
                   "template": {"type": "shaped-demo", "delta": 0.25, "j": 0.05}},
                  name="shaped.json")
    assert rc == 2
    assert_one_error_line(capsys, recwarn, "template type")
    assert not (out / "manifest.json").exists()


# one repr per distinct value: signed zeros, NaN payloads, subnormals, the layout
# boundaries near 1e-4 and 1e16, powers of two (half the gap below as above), 1e22 and
# 1e23 (one digit, far from the fast path's scale), 1 to 15 significant digits, a
# 17-digit tie (repr rounds it to even) and 3-digit exponents of both signs
CSV_VALUES = [0.0, -0.0, math.nan, *np.array([0x7FF8000000000001, 0xFFF0000000000001],
                                             dtype=np.uint64).view(float).tolist(),
              math.inf, -math.inf, 5e-324, 1e-5, 1e-4, 1e16, 9999999999999998.0,
              0.5, 1.0, 2.0**-30, 2.0**60, 1e22, 1e23,
              *[math.nextafter(v, t) for v in (1e-4, 1e16) for t in (0.0, math.inf)],
              0.1, 0.25, 123456789012345.0, 1125899906842624.25, -1125899906842624.75,
              1.2345678901234567e-123, -9.876543210987654e+200, 1e-280, 1e280]


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(0, 3), (1, 1), (5000, 1), (3, 5000), (40, 121)]),
       seed=st.integers(0, 2**32 - 1), extra=st.lists(st.floats(), max_size=6))
def test_write_csv_writes_repr_of_every_cell(tmp_path_factory, shape, seed, extra):
    """Byte for byte what ``repr`` of every cell gives; (5000, 1) spans two blocks."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([CSV_VALUES, extra, rng.standard_normal(6),
                           rng.integers(0, 2**64, 6, dtype=np.uint64).view(float)])
    rows = rng.choice(pool, size=shape)
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    cli._write_csv(path, ["c"], ["h"], rows)
    body = "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
    assert path.read_bytes() == ("# c\nh\n" + body).encode()


@pytest.mark.parametrize("kind", ["bits", "uniform"])
def test_write_csv_writes_repr_of_random_values(tmp_path, kind):
    """200k random 64-bit patterns (every sign, exponent, nan and inf) or uniform
    [0, 1) values, byte for byte as repr writes them."""
    rng = np.random.default_rng(27)
    if kind == "bits":
        rows = rng.integers(0, 2**64, (2000, 100), dtype=np.uint64).view(float)
    else:
        rows = rng.random((2000, 100))
    cli._write_csv(tmp_path / "rows.csv", ["c"], ["h"], rows)
    body = "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
    assert (tmp_path / "rows.csv").read_bytes() == ("# c\nh\n" + body).encode()


def test_write_csv_writes_repr_of_every_power_of_two(tmp_path):
    """The gap below a power of two is half the gap above, so the digits nearest it
    may not read back where the next ones up do; a quarter of them would go wrong
    with symmetric gaps."""
    rows = np.array([[2.0**e, -2.0**e] for e in range(-1074, 1024)])
    cli._write_csv(tmp_path / "rows.csv", ["c"], ["h"], rows)
    body = "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
    assert (tmp_path / "rows.csv").read_bytes() == ("# c\nh\n" + body).encode()


def test_repr_digits_leave_few_values_to_repr():
    """The double-double product decides all but a few uniform values; had it
    given up on them, the bytes would still match but the writer would lose its speed."""
    x = np.random.default_rng(0).random(10_000)
    sure, digits, count, decpt = cli._shortest_digits(x, {})
    assert sure.mean() > 0.98
    assert set(count[sure].tolist()) <= {15, 16, 17}


def test_write_csv_holds_one_block_of_texts(tmp_path):
    """A 240 x 121 grid peaks under 1 MB; holding the whole file's texts took ~1.7 MB."""
    rows = np.random.default_rng(0).random((240, 121))
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "grid.csv", ["c"], ["a"] * 121, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("stage", ["solve", "shape"])
def test_ljj_solve_holds_no_phase_field_history(stage):
    """The default solve keeps a few numbers per saved frame; holding the phase field and
    its rate at every frame took ~25 MB."""
    tracemalloc.start()
    try:
        if stage == "solve":
            fluxshaper.simulate_ljj_fluxon(fluxshaper.LJJConfig())
        else:
            fluxshaper.shape_control_pulse(fluxshaper.LJJConfig(),
                                           fluxshaper.InterferometerConfig(), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
