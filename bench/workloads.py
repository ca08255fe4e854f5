"""The benchmark's three workloads: the CLI runs each pass makes, built from a seed.

Every value is kept twice: ``config`` is what the CLI reads (GHz and ps, the
default cyclic convention) and ``internal`` is the same value converted by
the benchmark itself (rad/ns and ns), so the output checks never rely on the
program's own unit handling.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("calibrate", "scan", "shape")
DEFAULT_SEED = 20201124


def ghz(f: float) -> float:
    return 2.0 * math.pi * f


def ps(t: float) -> float:
    return t * 1e-3


@dataclass
class Call:
    """One CLI invocation: ``picopulse <command> --config <config> --out <dir>``."""

    command: str
    name: str
    config: dict
    internal: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# calibrate: one long shaped schedule, calibrated by ~185 propagations

DEMO = {"target": "inversion", "delta": 0.25, "j": 0.05}


def demo_defaults() -> dict:
    """Waveform settings ``end_to_end_demo`` uses when the CLI calls it."""
    from picopulse.fluxshaper import end_to_end_demo

    params = inspect.signature(end_to_end_demo).parameters
    return {"time_scale": params["time_scale"].default,
            "max_segments": params["max_segments"].default,
            "tol": params["tol"].default}


def demo_pairs():
    """The demo's shaped waveform as (duration, value) blocks."""
    from picopulse import fluxshaper as fs

    d = demo_defaults()
    wave = fs.shape_control_pulse(fs.LJJConfig(), fs.InterferometerConfig(),
                                  1.0, d["time_scale"])
    return fs.waveform_segments(wave, max_segments=d["max_segments"])


def demo_segments(pairs, params, j: float):
    """(duration, e1, e2, j) of the demo schedule: the shaped pulse on qubit 1,
    then on qubit 2, both with the coupling on, then a coupling-free delay."""
    s1, s2, tail = params
    segs = [(d, s1 * v, 0.0, j) for d, v in pairs]
    segs += [(d, 0.0, s2 * v, j) for d, v in pairs]
    segs.append((max(tail, 1e-6), 0.0, 0.0, 0.0))
    return segs


def calibrate_calls(seed: int) -> list[Call]:
    # The calibration's evaluation count depends on delta and j, so the seed
    # does not move them: it only draws the trajectory rows the oracle checks.
    return [Call("demo", "demo", dict(DEMO),
                 {"delta": ghz(DEMO["delta"]), "j": ghz(DEMO["j"])})]


# ---------------------------------------------------------------------------
# scan: thousands of short schedules, sampled sweeps and delay scans

# Sizes put the three-stage grid, the four sampled sweeps and the two delay
# scans at comparable shares of a pass (see README).
SCAN_SIZES = {
    "three-stage": (40, 60),
    "single": (240, 120),
    "pair": (240, 120),
    "coupler": (200, 120),
    "register-pair": (120, 120),
    "ramsey": 3000,
    "lindblad": 600,
}
SMALL_SCAN = {k: (4, 5) if isinstance(v, tuple) else 6 for k, v in SCAN_SIZES.items()}


def _jitter(rng: np.random.Generator, value: float, rel: float = 0.02) -> float:
    """``value`` moved by up to ``rel`` of itself; grid sizes never change."""
    return round(value * (1.0 + rel * rng.uniform(-1.0, 1.0)), 6)


def _axis(rng, name: str, start: float, stop: float, count: int, unit: str):
    lo, hi = _jitter(rng, start), _jitter(rng, stop)
    conv = ghz if unit == "GHz" else ps
    return ({"name": name, "start": lo, "stop": hi, "count": count},
            np.linspace(conv(lo), conv(hi), count))


def _sweep(rng, sizes: dict, kind: str, axis1, axis2, fixed: dict) -> Call:
    n1, n2 = sizes[kind]
    a1_cfg, a1 = _axis(rng, *axis1[:3], n1, axis1[3])
    a2_cfg, a2 = _axis(rng, *axis2[:3], n2, axis2[3])
    raw = {k: _jitter(rng, v) for k, (v, _) in fixed.items()}
    internal = {k: (ghz if unit == "GHz" else ps)(raw[k]) for k, (_, unit) in fixed.items()}
    internal.update(axis1=a1, axis2=a2)
    cfg = {"kind": kind, "axis1": a1_cfg, "axis2": a2_cfg, "fixed": raw}
    return Call("sweep", kind, cfg, internal)


def _delay_scan(rng, command: str, count: int, rates: bool) -> Call:
    cfg = {"amplitude": _jitter(rng, 25.0), "delta": _jitter(rng, 0.25),
           "tau": _jitter(rng, 10.0),
           "tau_r": {"start": 0.0, "stop": _jitter(rng, 8000.0), "count": count}}
    if rates:
        cfg.update(gamma=_jitter(rng, 0.05), gamma_phi=_jitter(rng, 0.1))
    internal = {"amplitude": ghz(cfg["amplitude"]), "delta": ghz(cfg["delta"]),
                "tau": ps(cfg["tau"]),
                "tau_r": np.linspace(0.0, ps(cfg["tau_r"]["stop"]), count)}
    return Call(command, command, cfg, internal)


def scan_calls(seed: int, sizes: dict = SCAN_SIZES) -> list[Call]:
    rng = np.random.default_rng([seed, 1])
    amp = ("amplitude", 0.5, 20.0, "GHz")
    return [
        _sweep(rng, sizes, "three-stage", amp, ("tau2", 5.0, 150.0, "ps"),
               {"delta": (0.25, "GHz"), "j": (0.5, "GHz"), "tau1": (20.0, "ps")}),
        _sweep(rng, sizes, "single", amp, ("time", 5.0, 150.0, "ps"),
               {"delta": (0.25, "GHz"), "tau": (100.0, "ps")}),
        _sweep(rng, sizes, "pair", amp, ("time", 10.0, 3000.0, "ps"),
               {"delta": (0.25, "GHz"), "tau1": (20.0, "ps"), "tau2": (20.0, "ps"),
                "tau_r": (1000.0, "ps")}),
        _sweep(rng, sizes, "coupler", ("j", 0.01, 1.0, "GHz"), ("time", 5.0, 3000.0, "ps"),
               {"delta": (0.25, "GHz"), "tau": (2000.0, "ps")}),
        _sweep(rng, sizes, "register-pair", amp, ("time", 10.0, 3000.0, "ps"),
               {"delta1": (0.25, "GHz"), "delta2": (0.3, "GHz"), "j": (0.05, "GHz"),
                "tau1": (20.0, "ps"), "tau2": (20.0, "ps"), "tau_r": (1000.0, "ps")}),
        _delay_scan(rng, "ramsey", sizes["ramsey"], rates=False),
        _delay_scan(rng, "lindblad", sizes["lindblad"], rates=True),
    ]


# ---------------------------------------------------------------------------
# shape: sine-Gordon leapfrog and amplitude-stage RK4, no qubit propagation

SHAPE_BIASES = (0.15, 0.3, 0.5)
SHAPE_TAPS = (8.0, 32.0)


def shape_calls(seed: int) -> list[Call]:
    rng = np.random.default_rng([seed, 2])
    # the main bias stays at the library default so the LJJ run is the
    # default one (its integrated time is comparable across seeds)
    biases = [round(b + 0.01 * rng.uniform(-1.0, 1.0), 4) for b in SHAPE_BIASES]
    cfg = {"ljj": {"i_b": 0.2, "alpha": 0.05, "x1": SHAPE_TAPS[0], "x2": SHAPE_TAPS[1]},
           "amp": {"ic1": round(0.7 + 0.05 * rng.uniform(-1.0, 1.0), 4)},
           "energy_scale": 1.0, "time_scale": 1.0, "bias_sweep": biases}
    return [Call("shape", "shape", cfg, {})]


def calls(workload: str, seed: int) -> list[Call]:
    """The CLI runs one timed pass of ``workload`` makes, in order."""
    return {"calibrate": calibrate_calls, "scan": scan_calls,
            "shape": shape_calls}[workload](seed)


def warmup_calls(workload: str) -> list[Call]:
    """Short runs through the same code paths, made once before timing."""
    if workload == "calibrate":
        return [Call("shape", "warm_shape", {"ljj": {"i_b": 0.2}, "amp": {"ic1": 0.7}}),
                Call("calibrate", "warm_calibrate",
                     {"target": {"kind": "state", "name": "flip"},
                      "template": {"type": "single-pulse", "delta": 0.25},
                      "bounds": [[100.0, 400.0], [0.005, 0.04]],
                      "seed": [157.0, 0.02], "budget": 60})]
    if workload == "shape":
        return [Call("shape", "warm_shape", {"ljj": {"i_b": 0.2}, "amp": {"ic1": 0.7}})]
    return scan_calls(DEFAULT_SEED, SMALL_SCAN)
