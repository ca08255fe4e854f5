"""Command-line front end.

Runs sweeps, delay scans, open-system scans, calibrations, circuit shaping and
the end-to-end demo from JSON configs, writing CSV grids plus a JSON manifest
(with content hashes) for external plotting.  All numeric output is a
deterministic function of the config content; exit codes are 0 on success,
2 for config errors and 3 for numeric failures, and the tool never dumps a
traceback to the shell.

Every config field a subcommand reads is listed once, with its unit, in the
schemas below.  ``FREQ`` fields are frequencies and decay rates (GHz under the
default ``cyclic-ghz`` convention, multiplied by 2*pi on reading; rad/ns and
1/ns under ``angular``), ``TIME`` fields are times (ps or ns), and any other
entry names the type of a unitless value.  :class:`Items` is a list of any
length whose entries share one unit, and a ``complex`` entry is a number or an
``[re, im]`` pair.  Neither a bool nor a string is a number in any numeric
field.  A sweep's
axis1 is a frequency and its axis2 a time in every kind; the axis ``name`` only
labels the CSV.  A missing field or an unknown key, at any depth, is a config
error.  Outputs, and the numbers in library errors, are in rad/ns and ns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, protocols
from .core import DENSITY_EIG_TOL, DENSITY_TOL
from .dynamics import LindbladParams


class ConfigError(ValueError):
    """The config file is malformed or violates the documented schema."""


FREQ = "frequency"
TIME = "time"

# --convention -> the factor each unit is multiplied by on reading: GHz to rad/ns, ps to ns
_SCALES = {"cyclic-ghz": {FREQ: math.tau, TIME: 1e-3}, "angular": {FREQ: 1.0, TIME: 1.0}}


@dataclass(frozen=True)
class Opt:
    """An optional field: its unit and the value used when it is absent."""

    unit: object
    default: object  # already in internal units


@dataclass(frozen=True)
class Items:
    """A list field of any length whose entries all have ``unit``."""

    unit: object


_AXIS1 = {"name": str, "start": FREQ, "stop": FREQ, "count": int}
_AXIS2 = {"name": str, "start": TIME, "stop": TIME, "count": int}

_OBSERVABLE = {"observable": Opt(int, 0)}
# sweep kind -> (runner, fixed fields, further fields); only the qubit kinds pick an observable
_SWEEPS = {
    "single": (protocols.sweep_single_pulse, {"delta": FREQ, "tau": TIME}, _OBSERVABLE),
    "pair": (protocols.sweep_pulse_pair,
             {"delta": FREQ, "tau1": TIME, "tau2": TIME, "tau_r": TIME}, _OBSERVABLE),
    "coupler": (protocols.sweep_coupler_pulse, {"delta": FREQ, "tau": TIME}, {}),
    "three-stage": (protocols.sweep_three_stage,
                    {"delta": FREQ, "j": FREQ, "tau1": TIME}, {}),
    "register-pair": (protocols.sweep_register_pair,
                      {"delta1": FREQ, "delta2": FREQ, "j": FREQ,
                       "tau1": TIME, "tau2": TIME, "tau_r": TIME}, {}),
}

_RAMSEY = {"amplitude": FREQ, "delta": FREQ, "tau": TIME,
           "tau_r": {"start": TIME, "stop": TIME, "count": int}}
_LINDBLAD = {**_RAMSEY, "gamma": FREQ, "gamma_phi": FREQ}

_TARGET = {"kind": str, "name": Opt(str, None), "vector": Opt(Items(complex), None)}
_CALIBRATE = {"target": _TARGET, "template": {"type": str, "delta": FREQ},
              "bounds": [[FREQ, FREQ], [TIME, TIME]], "seed": [FREQ, TIME],
              "tol": Opt(float, 1e-4), "budget": Opt(int, 4000)}

_DEMO = {"target": str, "delta": Opt(FREQ, math.tau * 0.25), "j": Opt(FREQ, 0.0)}


def _check_keys(raw, allowed, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown fields {unknown} in {where}")


def _read(raw, schema: dict, scale: dict, where: str = "config") -> dict:
    """Every field of ``schema`` read from ``raw`` and converted to internal units."""
    _check_keys(raw, schema, where)
    values = {}
    for key, unit in schema.items():
        if key in raw:
            path = key if where == "config" else f"{where}.{key}"
            values[key] = _convert(raw[key], unit.unit if isinstance(unit, Opt) else unit,
                                   scale, path)
        elif isinstance(unit, Opt):
            values[key] = unit.default
        else:
            raise ConfigError(f"missing field {key!r} in {where}")
    return values


def _number(value, where: str) -> None:
    """Reject a bool or a string, which ``float`` would otherwise read as a number."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"invalid {where}: expected a number, got {value!r}")


def _convert(value, unit, scale: dict, where: str):
    if isinstance(unit, dict):
        return _read(value, unit, scale, where)
    if isinstance(unit, Items):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        unit = [unit.unit] * len(value)
    if isinstance(unit, list):
        if not isinstance(value, list) or len(value) != len(unit):
            raise ConfigError(f"{where} must be a list of {len(unit)} items")
        return [_convert(v, u, scale, f"{where}[{i}]")
                for i, (v, u) in enumerate(zip(value, unit))]
    if unit is complex:  # a number or an [re, im] pair
        if isinstance(value, list):
            return complex(*_convert(value, [float, float], scale, where))
        return complex(_convert(value, float, scale, where))
    if is_dataclass(unit):
        _check_keys(value, [f.name for f in fields(unit)], where)
        for f in fields(unit):  # a bool only where the field's default is one
            if not isinstance(f.default, bool):
                _number(value.get(f.name), f"{where}.{f.name}")
    elif unit in (FREQ, TIME, float, int):
        _number(value, where)
    try:
        if unit in (FREQ, TIME):
            return scale[unit] * float(value)
        if unit is int and int(value) != value:
            raise ValueError(f"expected an integer, got {value!r}")
        return unit(**value) if is_dataclass(unit) else unit(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _select(raw, key: str, table: dict, where: str) -> str:
    """The value of the field that chooses the rest of the schema."""
    value = raw.get(key) if isinstance(raw, dict) else None
    if not isinstance(value, str) or value not in table:
        raise ConfigError(f"{where} must be one of {sorted(table)}, got {value!r}")
    return value


_CSV_BLOCK = 4096  # cells whose texts are held at once
_REPR_MAX = 24  # characters in the longest repr of a float64, '-2.2250738585072014e-308'
_NEAR = 1e-6  # this close to a tie or to the edge of what reads back as x, repr decides


def _pow10(k: int) -> tuple[float, float, float, float]:
    """10**k as hi + lo, two doubles from exact integers (``int / int`` rounds
    correctly), then hi split into halves for Dekker's exact product."""
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        den = 10**-k
        hi = 1 / den
        num, pow2 = hi.as_integer_ratio()
        lo = (pow2 - num * den) / (pow2 * den)
    c = hi * 134217729.0  # 2**27 + 1
    big = c - (c - hi)
    return hi, lo, big, hi - big


def _shortest_digits(x, powers: dict):
    """repr's digits of each float64 in ``x`` that a double-double product decides.

    Returns ``sure``, ``digits``, ``count`` and ``decpt``: where ``sure``, repr(x) has the
    leading ``count`` of the 17 digits of ``digits`` (the rest are zeros) and
    |x| = 0.ddd * 10**decpt.  Elsewhere repr must decide: zero, subnormal, beyond
    1e+-280, inf or nan; a power of two, whose gap below is half the gap above; 14
    digits or fewer, which may be shorter still; log10 one off; or within ``_NEAR`` of a
    tie or of the edge of the values that read back as x.  ``powers`` caches
    :func:`_pow10` by k.
    """
    a = np.abs(x)
    sure = (a >= 1e-280) & (a <= 1e280) & (x.view(np.uint64) & (2**52 - 1) != 0)
    a[~sure] = 1.5  # any such number keeps the arithmetic below free of warnings
    k = (16 - np.floor(np.log10(a))).astype(np.intp)
    k0, k1 = int(k.min(initial=16)), int(k.max(initial=16))  # 16 keeps an empty x valid
    for j in range(k0, k1 + 1):
        if j not in powers:
            powers[j] = _pow10(j)
    # a table made per block, not kept across blocks: a longer-lived one let the
    # process's memory creep up by ~2 KB a scan pass
    table = np.array([powers[j] for j in range(k0, k1 + 1)]).T
    ph, pl, bh, bl = (row.take(k - k0) for row in table)
    # s = |x| * 10**k, in [1e16, 1e17), is h + err: Dekker's exact product with hi,
    # plus the rounded product with lo, the two good to ~1e-15 in units of s
    h = a * ph
    c = a * 134217729.0
    ah = c - (c - a)
    al = np.subtract(a, ah, out=c)
    err = ah * bh - h
    err += np.multiply(ah, bl, out=ah)
    err += np.multiply(al, bh, out=bh)
    err += np.multiply(al, bl, out=bl)
    err += np.multiply(a, pl, out=pl)
    del ah, al, bh, bl, pl  # freed as soon as spent, so a block's arrays stay small
    whole = np.floor(err)
    n = h.astype(np.int64) + whole.astype(np.int64)
    f = np.subtract(err, whole, out=err)  # s = n + f, 0 <= f < 1
    del h, whole
    # half the gap between x and either neighbour, 2**(exponent - 53), in units of s
    half = np.multiply(((a.view(np.uint64) & (0x7FF << 52)) - (53 << 52)).view(float), ph,
                       out=ph)
    del a
    # the integer parts of the edges s - half and s + half of what reads back as x
    ends = []
    for side in (np.subtract, np.add):
        edge = side(f, half)
        low = np.floor(edge)
        sure &= np.abs(edge - low - 0.5) < 0.5 - _NEAR
        ends.append(n + low.astype(np.int64))
    lo, hi = ends
    del ends, edge, low, half
    # 17 - drop digits fit, where a multiple of 10**drop lies between the edges
    drop = (hi // 10 > lo // 10).astype(np.intp)
    drop += hi // 100 > lo // 100
    drop += hi // 1000 > lo // 1000
    del lo, hi
    sure &= (drop < 3) & (n >= 10**16) & (n < 10**17)
    # repr's digits are the multiple of that step nearest s
    step = np.array([1, 10, 100, 1000]).take(drop)
    base = n // step * step
    t = (n - base) + f
    del n, f
    sure &= np.abs(t - step / 2) > _NEAR
    base += step * (t > step / 2)
    return sure, base, 17 - drop, 17 - k


def _repr_chars(x, powers: dict):
    """``chars`` (len(x), _REPR_MAX + 1) uint8 and ``lengths``: ``chars[i, :lengths[i]]``
    is repr(x[i]) in ASCII.  Rows with one sign and point place lay out together, so
    an ``x`` sorted by its bits takes few slices."""
    m = len(x)
    sure, digits, count, decpt = _shortest_digits(x, powers)
    # the 17 digit characters, one row each, from two int32 halves
    top = (digits // 10**9).astype(np.int32)
    low = (digits - digits // 10**9 * 10**9).astype(np.int32)
    d = np.empty((17, m), np.uint8)  # wraps modulo 256; digit = q - 10 * (q // 10)
    d[:8] = top // 10 ** np.arange(7, -1, -1, dtype=np.int32)[:, None]
    d[8:] = low // 10 ** np.arange(8, -1, -1, dtype=np.int32)[:, None]
    d[9:] -= 10 * d[8:16]
    d[1:8] -= 10 * d[:7]
    d += ord("0")
    neg = np.signbit(x)
    fixed = (decpt > -4) & (decpt <= 16)
    # repr's layouts: 0.000ddd, ddd.ddd, ddd00.0 for -4 < decpt <= 16, else d.ddde+XX
    text = np.empty((_REPR_MAX + 1, m), np.uint8)
    point = np.where(fixed, decpt, 17)
    key = np.where(sure, 2 * point + neg, 99)
    first = np.ones(m, bool)  # where a run of one layout starts
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first).tolist()
    text[0] = ord("-")  # overwritten where there is no sign
    for s, e, k in zip(starts, starts[1:] + [m], key[starts].tolist()):
        if k == 99:
            continue
        point, sign = divmod(k, 2)
        if point == 17:  # d.ddd, then the exponent below
            point = 1
        elif point <= 0:  # 0.000ddd
            lead = 2 - point
            text[sign:sign + lead, s:e] = np.frombuffer(b"0.000", np.uint8)[:lead, None]
            text[sign + lead:sign + lead + 17, s:e] = d[:, s:e]
            continue
        text[sign:sign + point, s:e] = d[:point, s:e]
        text[sign + point, s:e] = ord(".")
        text[sign + point + 1:sign + 18, s:e] = d[point:, s:e]
    lengths = neg + np.where(fixed, np.maximum(decpt, 1) + 1 + np.maximum(count - decpt, 1),
                             count + 5)
    ex = np.flatnonzero(sure & ~fixed)  # the exponent, two digits or three
    power = decpt[ex] - 1
    size = np.abs(power)
    lengths[ex] += size >= 100
    end = lengths[ex]
    for place, back in ((100, 3), (10, 2), (1, 1)):  # a sign then covers a hundreds 0
        text[end - back, ex] = size // place % 10 + ord("0")
    at = neg[ex] + count[ex] + 1
    text[at, ex] = ord("e")
    text[at + 1, ex] = np.where(power < 0, ord("-"), ord("+"))
    chars = text.T.copy()
    del text
    slow = np.flatnonzero(~sure)
    texts = list(map(repr, x[slow].tolist()))
    chars[slow, :_REPR_MAX] = np.frombuffer(
        "".join(t.ljust(_REPR_MAX) for t in texts).encode(), np.uint8).reshape(-1, _REPR_MAX)
    lengths[slow] = list(map(len, texts))
    return chars, lengths


def _write_csv(path: Path, comments: list[str], header: list[str],
               rows) -> None:
    rows = np.ascontiguousarray(rows, dtype=float)
    width = rows.shape[-1]
    block = max(1, _CSV_BLOCK // max(1, width))
    upto = np.arange(_REPR_MAX + 1) <= np.arange(_REPR_MAX + 2)[:, None]  # upto[n, j]: j <= n
    powers = {}
    with path.open("w", encoding="utf-8") as f:
        f.write("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n")
        for start in range(0, len(rows), block):
            # each distinct value of a block, told apart by its bits (-0.0 is not 0.0),
            # is formatted once, and sorted by its bits it shares a layout with its
            # neighbours
            bits, index = np.unique(rows[start:start + block].view(np.uint64),
                                    return_inverse=True)
            chars, lengths = _repr_chars(bits.view(float), powers)
            chars[np.arange(len(bits)), lengths] = ord(",")
            index = index.ravel()
            cells = chars.take(index, axis=0)
            lengths = lengths.take(index)
            del bits, chars
            ends = np.arange(width - 1, len(index), width)
            cells[ends, lengths[ends]] = ord("\n")
            f.write(cells[upto.take(lengths, axis=0)].tobytes().decode("ascii"))


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _write_manifest(out: Path, command: str, config: dict, convention: str,
                    outputs: list[Path], wall_time: float, extra: dict) -> None:
    _write_json(out / "manifest.json", {
        **extra,
        "command": command,
        "config": config,
        "convention": convention,
        "version": __version__,
        "wall_time_s": round(wall_time, 3),
        "outputs": [{"file": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                    for p in sorted(outputs)],
    })


def _grid_outputs(grids, names, out: Path, meta_extra: dict) -> list[Path]:
    written = []
    for grid, name in zip(grids, names):
        path = out / f"{name}.csv"
        comments = [f"{k} = {v}" for k, v in sorted({**grid.meta, **meta_extra}.items())]
        comments.insert(0, f"axis1 = {grid.axis1.name}; axis2 = {grid.axis2.name}")
        header = [grid.axis1.name] + [repr(float(v)) for v in grid.axis2.values()]
        _write_csv(path, comments, header, np.column_stack([grid.axis1.values(), grid.values]))
        written.append(path)
    return written


def _calibration_json(result, **extra) -> dict:
    return {"params": [float(v) for v in result.params], "fidelity": result.fidelity,
            "iterations": result.iterations, "converged": result.converged, **extra}


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep(config: dict, out: Path, scale: dict) -> tuple[list[Path], dict]:
    kind = _select(config, "kind", _SWEEPS, "sweep kind")
    runner, fixed, further = _SWEEPS[kind]
    cfg = _read(config, {"kind": str, "axis1": _AXIS1, "axis2": _AXIS2,
                         "fixed": fixed, **further}, scale)
    grids = runner(protocols.SweepSpec(axis1=protocols.Axis(**cfg["axis1"]),
                                       axis2=protocols.Axis(**cfg["axis2"]),
                                       fixed=cfg["fixed"],
                                       observable=cfg.get("observable", 0)))
    if isinstance(grids, tuple):
        names = [f"grid_basis{i}" for i in range(len(grids))]
    else:
        grids, names = [grids], ["grid"]
    return _grid_outputs(grids, names, out, {"kind": kind}), {}


def _delay_scan(config: dict, schema: dict, scale: dict):
    cfg = _read(config, schema, scale)
    return cfg, protocols.Axis("tau_r", **cfg["tau_r"]).values()


def cmd_ramsey(config: dict, out: Path, scale: dict) -> tuple[list[Path], dict]:
    cfg, delays = _delay_scan(config, _RAMSEY, scale)
    amplitude, delta, tau = cfg["amplitude"], cfg["delta"], cfg["tau"]
    rows = protocols.ramsey_delay_scan(amplitude, delta, tau, delays)
    path = out / "ramsey.csv"
    _write_csv(path,
               [f"amplitude = {amplitude} rad/ns", f"delta = {delta} rad/ns",
                f"tau = {tau} ns"],
               ["tau_R", "W_numeric", "W_analytic"], rows)
    return [path], {}


def cmd_lindblad(config: dict, out: Path, scale: dict) -> tuple[list[Path], dict]:
    cfg, delays = _delay_scan(config, _LINDBLAD, scale)
    amplitude, delta, tau = cfg["amplitude"], cfg["delta"], cfg["tau"]
    lp = LindbladParams(gamma=cfg["gamma"], gamma_phi=cfg["gamma_phi"])
    finals = protocols.lindblad_ramsey_finals(amplitude, delta, tau, delays, lp)
    w = finals[:, 1, 1].real
    health = {"max_trace_defect": float(np.max(np.abs(np.trace(finals, axis1=1, axis2=2) - 1))),
              "min_eigenvalue": float(np.min(np.linalg.eigvalsh(finals)))}
    # a nan fails every comparison
    if not (np.isfinite(w).all() and health["max_trace_defect"] <= DENSITY_TOL
            and health["min_eigenvalue"] >= -DENSITY_EIG_TOL):
        raise ArithmeticError(f"the scan's final states are not density matrices: {health}")
    path = out / "lindblad.csv"
    _write_csv(path,
               [f"amplitude = {amplitude} rad/ns", f"delta = {delta} rad/ns",
                f"tau = {tau} ns", f"gamma = {lp.gamma} 1/ns",
                f"gamma_phi = {lp.gamma_phi} 1/ns"],
               ["tau_R", "W"], np.column_stack([delays, w]))
    return [path], {"health": health}


def _calibration_target(raw: dict):
    """The normalized two-level target state."""
    if raw["kind"] != "state":
        raise ConfigError(f"unsupported target kind {raw['kind']!r}; only 'state' "
                          "targets are accepted from configs")
    if raw["name"] is not None and raw["vector"] is not None:
        raise ConfigError("target.name and target.vector are exclusive; give one of them")
    if raw["name"] is not None:
        if raw["name"] != "flip":
            raise ConfigError(f"unknown target name {raw['name']!r}")
        return ("state", np.array([0.0, 1.0], dtype=complex))
    if raw["vector"] is None:
        raise ConfigError("missing field 'vector' in target")
    state = np.array(raw["vector"], dtype=complex)
    norm = np.linalg.norm(state)
    if not 0 < norm < math.inf:
        raise ConfigError(f"target.vector must have a finite, non-zero norm, got {norm}")
    if len(state) != 2:
        raise ConfigError(f"target.vector has {len(state)} entries, but the template's "
                          "states have 2")
    return ("state", state / norm)


def cmd_calibrate(config: dict, out: Path, scale: dict) -> tuple[list[Path], dict]:
    _select(config.get("template"), "type", ("single-pulse",), "template type")
    cfg = _read(config, _CALIBRATE, scale)
    target = _calibration_target(cfg["target"])
    delta = cfg["template"]["delta"]

    def template(p):
        return protocols.single_pulse_schedule(p[0], p[1], delta)

    result = protocols.calibrate_pulse(target, template, cfg["bounds"], cfg["seed"],
                                       tol=cfg["tol"], budget=cfg["budget"])
    return [_write_json(out / "calibration.json", _calibration_json(result))], {}


def _fluxon_health(meta: dict, ljj) -> dict:
    """The manifest's fluxon health, never written to the hashed outputs."""
    from .fluxshaper import power_balance_velocity
    return {"velocity": meta["velocity"], "charge_drift": meta["charge_drift"],
            "power_balance_velocity": power_balance_velocity(ljj.i_b, ljj.alpha)}


def cmd_shape(config: dict, out: Path, scale: dict) -> tuple[list[Path], dict]:
    from . import fluxshaper
    # normalized circuit units, and internal units for the two scales: nothing is converted
    cfg = _read(config, {
        "ljj": Opt(fluxshaper.LJJConfig, fluxshaper.LJJConfig()),
        "amp": Opt(fluxshaper.InterferometerConfig, fluxshaper.InterferometerConfig()),
        "energy_scale": Opt(float, 1.0), "time_scale": Opt(float, 1.0),
        "bias_sweep": Opt(Items(float), None)}, scale)
    ljj = cfg["ljj"]
    for i, bias in enumerate(cfg["bias_sweep"] or ()):  # each bias is a valid LJJ run
        try:
            replace(ljj, i_b=bias)
        except ValueError as exc:
            raise ConfigError(f"invalid bias_sweep[{i}]: {exc}") from exc
    wave = fluxshaper.shape_control_pulse(ljj, cfg["amp"], cfg["energy_scale"],
                                          cfg["time_scale"])
    summary = {"duration": fluxshaper.plateau_duration(wave),
               "peak": fluxshaper.peak_amplitude(wave), "samples": len(wave.samples),
               "velocity": wave.meta["velocity"], "charge_drift": wave.meta["charge_drift"]}
    path = out / "waveform.csv"
    _write_csv(path, [f"stage = {wave.meta.get('stage')}",
                      f"config = {wave.meta.get('config')}"],
               ["t", "value"], np.column_stack([wave.times, wave.samples]))
    written = [path, _write_json(out / "summary.json", summary)]

    if cfg["bias_sweep"] is not None:
        rows = fluxshaper.duration_vs_bias(ljj, cfg["bias_sweep"])
        dpath = out / "duration_vs_bias.csv"
        _write_csv(dpath, ["plateau duration of the loop-flux pulse"],
                   ["i_b", "duration"], rows)
        written.append(dpath)
    return written, {"health": _fluxon_health(wave.meta, ljj)}


def cmd_demo(config: dict, out: Path, scale: dict) -> tuple[list[Path], dict]:
    from . import fluxshaper
    cfg = _read(config, _DEMO, scale)
    name = cfg["target"]
    if name not in ("inversion", "entangled"):
        raise ConfigError(f"unknown demo target {name!r}")
    ljj = fluxshaper.LJJConfig()
    result = fluxshaper.end_to_end_demo(name, delta=cfg["delta"], j=cfg["j"], ljj=ljj)
    written = [_write_json(out / "demo.json", _calibration_json(result, target=name))]

    traj = result.trajectory
    pops = traj.populations()
    tpath = out / "trajectory.csv"
    _write_csv(tpath, [f"target = {name}", "populations over the final schedule"],
               ["t", "p_dd", "p_ud", "p_du", "p_uu"],
               np.column_stack([traj.times, pops]))
    written.append(tpath)
    return written, {"health": _fluxon_health(result.waveform.meta, ljj)}


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
    parser.add_argument("--convention", choices=list(_SCALES),
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
    start = time.monotonic()
    try:
        outputs, extra = _COMMANDS[args.command](config, out, _SCALES[args.convention])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # invalid physical parameters, checked after unit conversion
        # shape reads every field as given, so its numbers need no note
        note = "" if args.command == "shape" else " (numbers in internal units: rad/ns and ns)"
        print(f"error: {exc}{note}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a config too large for this machine
        print(f"numeric failure: out of memory ({exc})", file=sys.stderr)
        return 3
    _write_manifest(out, args.command, config, args.convention, outputs,
                    time.monotonic() - start, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
