"""Command-line front end.

Runs sweeps, delay scans, open-system scans, calibrations, circuit shaping and
the end-to-end demo from JSON configs, writing CSV grids plus a JSON manifest
(with content hashes) for external plotting.  All numeric output is a
deterministic function of the config content; exit codes are 0 on success,
2 for config errors and 3 for numeric failures, and the tool never dumps a
traceback to the shell.

Frequencies and times in configs follow the selected unit convention
(``cyclic-ghz``: GHz and ps; ``angular``: rad/ns and ns).  Keys starting with
``delta``/``j``/``a``/``amp``/``gamma``/``omega`` are treated as frequencies
and keys starting with ``tau``/``time``/``t_`` as times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fluxshaper, protocols
from .dynamics import LindbladParams
from .units import UnitConvention


class ConfigError(ValueError):
    """The config file is malformed or violates the documented schema."""


_FREQ_PREFIXES = ("delta", "j", "a", "amp", "gamma", "omega")
_TIME_PREFIXES = ("tau", "time", "t_")


def _is_freq(name: str) -> bool:
    return any(name.startswith(p) for p in _FREQ_PREFIXES)


def _is_time(name: str) -> bool:
    return any(name.startswith(p) for p in _TIME_PREFIXES)


def _convert_scalar(name: str, value: float, conv: UnitConvention) -> float:
    if _is_freq(name):
        return conv.frequency_in(value)
    if _is_time(name):
        return conv.time_in(value)
    return value


def _require(config: dict, field: str, where: str = "config"):
    if field not in config:
        raise ConfigError(f"missing field {field!r} in {where}")
    return config[field]


def _axis_from(config: dict, key: str, conv: UnitConvention) -> protocols.Axis:
    raw = _require(config, key)
    for f in ("name", "start", "stop", "count"):
        _require(raw, f, where=key)
    name = raw["name"]
    try:
        return protocols.Axis(name=name,
                              start=_convert_scalar(name, float(raw["start"]), conv),
                              stop=_convert_scalar(name, float(raw["stop"]), conv),
                              count=int(raw["count"]))
    except ValueError as exc:
        raise ConfigError(f"invalid axis {key}: {exc}") from exc


def _write_csv(path: Path, comments: list[str], header: list[str],
               rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, config: dict, convention: str,
                    outputs: list[Path], wall_time: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "convention": convention,
        "version": __version__,
        "wall_time_s": round(wall_time, 3),
        "outputs": [{"file": p.name, "sha256": _sha256(p)} for p in sorted(outputs)],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _grid_outputs(grids, names, out: Path, meta_extra: dict) -> list[Path]:
    written = []
    for grid, name in zip(grids, names):
        path = out / f"{name}.csv"
        comments = [f"{k} = {v}" for k, v in sorted({**grid.meta, **meta_extra}.items())]
        comments.insert(0, f"axis1 = {grid.axis1.name}; axis2 = {grid.axis2.name}")
        header = [grid.axis1.name] + [repr(float(v)) for v in grid.axis2.values()]
        rows = [[a1] + list(row)
                for a1, row in zip(grid.axis1.values(), grid.values)]
        _write_csv(path, comments, header, rows)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep(config: dict, out: Path, conv: UnitConvention) -> list[Path]:
    kind = _require(config, "kind")
    fixed = {k: _convert_scalar(k, float(v), conv)
             for k, v in _require(config, "fixed").items()}
    spec = protocols.SweepSpec(axis1=_axis_from(config, "axis1", conv),
                               axis2=_axis_from(config, "axis2", conv),
                               fixed=fixed,
                               observable=int(config.get("observable", 0)))
    runners = {
        "single": protocols.sweep_single_pulse,
        "pair": protocols.sweep_pulse_pair,
        "coupler": protocols.sweep_coupler_pulse,
        "three-stage": protocols.sweep_three_stage,
    }
    try:
        if kind == "register-pair":
            grids = protocols.sweep_register_pair(spec)
            names = [f"grid_basis{i}" for i in range(4)]
        elif kind in runners:
            grids = [runners[kind](spec)]
            names = ["grid"]
        else:
            raise ConfigError(f"unknown sweep kind {kind!r}; expected one of "
                              "single, pair, coupler, three-stage, register-pair")
    except KeyError as exc:
        raise ConfigError(f"missing field {exc.args[0]!r} in fixed") from exc
    return _grid_outputs(grids, names, out, {"kind": kind})


def _delay_values(config: dict, conv: UnitConvention) -> np.ndarray:
    raw = _require(config, "tau_r")
    for f in ("start", "stop", "count"):
        _require(raw, f, where="tau_r")
    start = conv.time_in(float(raw["start"]))
    stop = conv.time_in(float(raw["stop"]))
    count = int(raw["count"])
    if count < 2 or not start < stop:
        raise ConfigError("tau_r range needs start < stop and count >= 2")
    return np.linspace(start, stop, count)


def cmd_ramsey(config: dict, out: Path, conv: UnitConvention) -> list[Path]:
    amplitude = conv.frequency_in(float(_require(config, "amplitude")))
    delta = conv.frequency_in(float(_require(config, "delta")))
    tau = conv.time_in(float(_require(config, "tau")))
    rows = protocols.ramsey_delay_scan(amplitude, delta, tau,
                                       _delay_values(config, conv))
    path = out / "ramsey.csv"
    _write_csv(path,
               [f"amplitude = {amplitude} rad/ns", f"delta = {delta} rad/ns",
                f"tau = {tau} ns"],
               ["tau_R", "W_numeric", "W_analytic"], rows)
    return [path]


def cmd_lindblad(config: dict, out: Path, conv: UnitConvention) -> list[Path]:
    amplitude = conv.frequency_in(float(_require(config, "amplitude")))
    delta = conv.frequency_in(float(_require(config, "delta")))
    tau = conv.time_in(float(_require(config, "tau")))
    try:
        lp = LindbladParams(gamma=conv.frequency_in(float(_require(config, "gamma"))),
                            gamma_phi=conv.frequency_in(float(_require(config, "gamma_phi"))))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = protocols.lindblad_ramsey_scan(amplitude, delta, tau,
                                          _delay_values(config, conv), lp)
    path = out / "lindblad.csv"
    _write_csv(path,
               [f"amplitude = {amplitude} rad/ns", f"delta = {delta} rad/ns",
                f"tau = {tau} ns", f"gamma = {lp.gamma} 1/ns",
                f"gamma_phi = {lp.gamma_phi} 1/ns"],
               ["tau_R", "W"], rows)
    return [path]


def _calibration_target(config: dict):
    raw = _require(config, "target")
    kind = _require(raw, "kind", where="target")
    if kind != "state":
        raise ConfigError(f"unsupported target kind {kind!r}; only 'state' "
                          "targets are accepted from configs")
    if "name" in raw:
        named = {"flip": np.array([0.0, 1.0], dtype=complex),
                 "inversion": fluxshaper.target_state("inversion"),
                 "entangled": fluxshaper.target_state("entangled")}
        if raw["name"] not in named:
            raise ConfigError(f"unknown target name {raw['name']!r}")
        return ("state", named[raw["name"]])
    vector = np.array([complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                       for v in _require(raw, "vector", where="target")])
    return ("state", vector / np.linalg.norm(vector))


def cmd_calibrate(config: dict, out: Path, conv: UnitConvention) -> list[Path]:
    target = _calibration_target(config)
    template_cfg = _require(config, "template")
    ttype = _require(template_cfg, "type", where="template")
    delta = conv.frequency_in(float(_require(template_cfg, "delta", where="template")))

    if ttype == "single-pulse":
        def template(p):
            return protocols.single_pulse_schedule(p[0], p[1], delta)
    elif ttype == "shaped-demo":
        name = _require(config["target"], "name", where="target")
        j = conv.frequency_in(float(template_cfg.get("j", 0.0)))
        result = fluxshaper.end_to_end_demo(name, delta=delta, j=j)
        path = out / "calibration.json"
        path.write_text(json.dumps({
            "params": [float(v) for v in result.params],
            "fidelity": result.fidelity,
            "converged": result.converged,
            "target": name,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return [path]
    else:
        raise ConfigError(f"unknown template type {ttype!r}")

    bounds = [(float(lo), float(hi)) for lo, hi in _require(config, "bounds")]
    seed = [float(v) for v in _require(config, "seed")]
    result = protocols.calibrate_pulse(
        target, template, bounds, seed,
        tol=float(config.get("tol", 1e-4)),
        budget=int(config.get("budget", 4000)))
    path = out / "calibration.json"
    path.write_text(json.dumps({
        "params": [float(v) for v in result.params],
        "fidelity": result.fidelity,
        "iterations": result.iterations,
        "converged": result.converged,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [path]


def _ljj_from(config: dict) -> fluxshaper.LJJConfig:
    allowed = {f for f in fluxshaper.LJJConfig.__dataclass_fields__}
    raw = config.get("ljj", {})
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown ljj fields: {sorted(unknown)}")
    try:
        return fluxshaper.LJJConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid ljj config: {exc}") from exc


def _amp_from(config: dict) -> fluxshaper.InterferometerConfig:
    allowed = {f for f in fluxshaper.InterferometerConfig.__dataclass_fields__}
    raw = config.get("amp", {})
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown amp fields: {sorted(unknown)}")
    try:
        return fluxshaper.InterferometerConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid amp config: {exc}") from exc


def cmd_shape(config: dict, out: Path, conv: UnitConvention) -> list[Path]:
    ljj = _ljj_from(config)
    amp = _amp_from(config)
    energy_scale = float(config.get("energy_scale", 1.0))
    time_scale = float(config.get("time_scale", 1.0))
    written = []

    wave = fluxshaper.shape_control_pulse(ljj, amp, energy_scale, time_scale)
    path = out / "waveform.csv"
    _write_csv(path, [f"stage = {wave.meta.get('stage')}",
                      f"config = {wave.meta.get('config')}"],
               ["t", "value"], np.column_stack([wave.times, wave.samples]))
    written.append(path)

    summary = {
        "duration": fluxshaper.plateau_duration(wave),
        "peak": fluxshaper.peak_amplitude(wave),
        "samples": len(wave.samples),
    }
    spath = out / "summary.json"
    spath.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    written.append(spath)

    if "bias_sweep" in config:
        rows = fluxshaper.duration_vs_bias(ljj, [float(b) for b in config["bias_sweep"]])
        dpath = out / "duration_vs_bias.csv"
        _write_csv(dpath, ["plateau duration of the loop-flux pulse"],
                   ["i_b", "duration"], rows)
        written.append(dpath)
    return written


def cmd_demo(config: dict, out: Path, conv: UnitConvention) -> list[Path]:
    name = _require(config, "target")
    if name not in ("inversion", "entangled"):
        raise ConfigError(f"unknown demo target {name!r}")
    delta = conv.frequency_in(float(config.get("delta", 0.25 if conv.mode == "cyclic-ghz"
                                               else math.tau * 0.25)))
    j = conv.frequency_in(float(config.get("j", 0.0)))
    result = fluxshaper.end_to_end_demo(name, delta=delta, j=j)
    written = []

    path = out / "demo.json"
    path.write_text(json.dumps({
        "target": name,
        "fidelity": result.fidelity,
        "converged": result.converged,
        "params": [float(v) for v in result.params],
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(path)

    traj = result.trajectory
    pops = traj.populations()
    tpath = out / "trajectory.csv"
    _write_csv(tpath, [f"target = {name}", "populations over the final schedule"],
               ["t", "p_dd", "p_ud", "p_du", "p_uu"],
               np.column_stack([traj.times, pops]))
    written.append(tpath)
    return written


# ---------------------------------------------------------------------------
# driver

_COMMANDS = {
    "sweep": cmd_sweep,
    "ramsey": cmd_ramsey,
    "lindblad": cmd_lindblad,
    "calibrate": cmd_calibrate,
    "shape": cmd_shape,
    "demo": cmd_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picopulse",
        description="Pulse-level simulation and calibration of flux qubits "
                    "driven by unipolar rectangular pulses.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--convention", choices=["cyclic-ghz", "angular"],
                        default="cyclic-ghz")
    parser.add_argument("--threads", type=int, default=None,
                        help="reserved: validated (an integer >= 1, overridden by "
                             "PICOPULSE_THREADS) but currently has no effect")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    threads = args.threads
    env = os.environ.get("PICOPULSE_THREADS")
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            print(f"error: PICOPULSE_THREADS = {env!r} is not an integer",
                  file=sys.stderr)
            return 2
    if threads is not None and threads < 1:
        print("error: thread count must be >= 1", file=sys.stderr)
        return 2

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    conv = UnitConvention(args.convention)
    start = time.monotonic()
    try:
        outputs = _COMMANDS[args.command](config, out, conv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invalid physical parameters reaching a library constructor
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _write_manifest(out, args.command, config, args.convention, outputs,
                    time.monotonic() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
