"""Output checks: each CLI output is compared with the oracles or with a
property the method must have.

Exact comparisons use tolerances a 1e-6 change of any checked number breaks.
Physical-property checks (fluxon velocity, monotone durations) allow what the
discretisation allows.  No check pins sample counts, calibrated parameters or
waveform lengths, so a correct change to the optimizer or the LJJ stopping
rule still passes.  Every check returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles
from workloads import SHAPE_TAPS, Call, demo_segments

EXACT = 1e-9          # closed forms and expm oracle against the program
LINDBLAD_TOL = 5e-7   # RK4 oracle against the program (agree to ~1e-13)
VELOCITY_TOL = 0.05   # fluxon speed against the power-balance law
SPOT_CHECKS = 8       # seed-drawn cells per grid recomputed by the oracle


def read_csv(path: Path):
    """(comment lines, header fields, float rows) of a picopulse CSV file."""
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


def read_grid(path: Path):
    """(axis1 values, axis2 values, grid) of a sweep CSV."""
    _, header, rows = read_csv(path)
    return rows[:, 0], np.array([float(v) for v in header[1:]]), rows[:, 1:]


def _close(actual, expected, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(actual) - np.asarray(expected)) <= tol))


def _axis_failures(name, actual, expected) -> list[str]:
    if len(actual) != len(expected) or not _close(actual, expected,
                                                   1e-12 * np.max(np.abs(expected))):
        return [f"{name}: axis values differ from the configured range"]
    return []


def _pick(rng, n: int, k: int = SPOT_CHECKS):
    return rng.choice(n, size=min(k, n), replace=False)


# ---------------------------------------------------------------------------
# calibrate


def oracle_schedule(delta1, delta2, segs):
    hams = [oracles.hamiltonian(delta1, e1, delta2, e2, j, 4) for _, e1, e2, j in segs]
    return hams, [s[0] for s in segs]


def check_demo(demo: dict, traj: np.ndarray, pairs, delta: float, j: float,
               target: np.ndarray, rng) -> list[str]:
    """``demo``: demo.json; ``traj``: trajectory.csv rows (t, four populations)."""
    fails = []
    if not demo["fidelity"] >= 0.99:
        fails.append(f"demo: fidelity {demo['fidelity']} below 0.99")
    hams, durs = oracle_schedule(delta, delta, demo_segments(pairs, demo["params"], j))
    psi0 = oracles.ground(4)
    final = oracles.propagate(hams, durs, psi0)
    fid = abs(np.vdot(target, final)) ** 2
    if abs(fid - demo["fidelity"]) > EXACT:
        fails.append(f"demo: fidelity {demo['fidelity']!r} but the oracle gives {fid!r}")
    pops = traj[:, 1:]
    if not _close(pops.sum(axis=1), 1.0, EXACT):
        fails.append("demo: trajectory rows do not sum to 1")
    if not _close(pops[-1], np.abs(final) ** 2, EXACT):
        fails.append("demo: final trajectory row differs from the oracle state")
    for i in _pick(rng, len(traj)):
        psi = oracles.propagate(hams, durs, psi0, t=traj[i, 0])
        if not _close(pops[i], np.abs(psi) ** 2, EXACT):
            fails.append(f"demo: trajectory row {i} (t = {traj[i, 0]}) differs from the oracle")
    return fails


# ---------------------------------------------------------------------------
# scan


def _sweep_oracle(kind: str, p: dict, a: float, t: float) -> np.ndarray:
    """Populations of one sweep cell: axis1 value ``a``, axis2 value ``t``."""
    h = oracles.hamiltonian
    if kind == "three-stage":
        kick = h(p["delta"], 0.0, p["delta"], 0.0, p["j"], 4)
        drive = h(p["delta"], a, p["delta"], a, 0.0, 4)
        return np.abs(oracles.propagate([kick, drive, kick], [p["tau1"], t, p["tau1"]],
                                        oracles.ground(4))) ** 2
    if kind == "pair":
        hams = [h(p["delta"], a), h(p["delta"], 0.0), h(p["delta"], a), h(p["delta"], 0.0)]
        durs = [p["tau1"], p["tau_r"], p["tau2"], t]
        return np.abs(oracles.propagate(hams, durs, oracles.ground(2), t=t)) ** 2
    if kind == "register-pair":
        d1, d2, j = p["delta1"], p["delta2"], p["j"]
        hams = [h(d1, a, d2, 0.0, j, 4), h(d1, 0.0, d2, 0.0, j, 4),
                h(d1, 0.0, d2, a, j, 4), h(d1, 0.0, d2, 0.0, j, 4)]
        durs = [p["tau1"], p["tau_r"], p["tau2"], t]
        return np.abs(oracles.propagate(hams, durs, oracles.ground(4), t=t)) ** 2
    raise ValueError(kind)


def check_sweep(call: Call, axis1, axis2, grids: list[np.ndarray], rng) -> list[str]:
    """``grids``: one grid, or the four basis grids of ``register-pair``."""
    kind, p = call.config["kind"], call.internal
    fails = _axis_failures(kind, axis1, p["axis1"]) + _axis_failures(kind, axis2, p["axis2"])
    a1, a2 = p["axis1"], p["axis2"]
    for g in grids:
        if g.shape != (len(a1), len(a2)) or np.any(g < 0.0) or np.any(g > 1.0):
            fails.append(f"{kind}: grid shape wrong or values outside [0, 1]")
            return fails
    if kind == "single":  # the grid holds the ground-state population
        flip = oracles.single_pulse_population(a1, p["delta"], p["tau"], a2)
        if not _close(grids[0], 1.0 - flip, EXACT):
            fails.append("single: grid differs from the closed form")
        return fails
    if kind == "coupler":
        if not _close(grids[0], oracles.coupler_population(a1, p["delta"], p["tau"], a2), EXACT):
            fails.append("coupler: grid differs from the closed form")
        return fails
    if kind == "register-pair" and not _close(sum(grids), 1.0, EXACT):
        fails.append("register-pair: basis grids do not sum to 1")
    observable = {"three-stage": [3], "pair": [0], "register-pair": [0, 1, 2, 3]}[kind]
    flat = _pick(rng, len(a1) * len(a2))
    for i, k in zip(*np.unravel_index(flat, (len(a1), len(a2)))):
        pops = _sweep_oracle(kind, p, a1[i], a2[k])
        got = [g[i, k] for g in grids]
        if not _close(got, pops[observable], EXACT):
            fails.append(f"{kind}: cell ({i}, {k}) differs from the expm oracle")
    return fails


def check_ramsey(call: Call, rows: np.ndarray, rng) -> list[str]:
    """``rows``: ramsey.csv columns (tau_R, W_numeric, W_analytic)."""
    p = call.internal
    fails = _axis_failures("ramsey", rows[:, 0], p["tau_r"])
    if not _close(rows[:, 1], rows[:, 2], EXACT):
        fails.append("ramsey: W_numeric differs from W_analytic")
    for i in _pick(rng, len(rows)):
        hams, durs = oracles.ramsey_schedule(p["amplitude"], p["delta"], p["tau"], p["tau_r"][i])
        w = abs(oracles.propagate(hams, durs, oracles.ground(2))[1]) ** 2
        if not _close(rows[i, 1], w, EXACT):
            fails.append(f"ramsey: row {i} differs from the expm oracle")
    return fails


def _comment_rate(comments, name: str) -> float:
    for c in comments:
        key, _, value = c.partition(" = ")
        if key == name:
            return float(value.split()[0])
    raise ValueError(f"lindblad.csv does not state {name}")


def check_lindblad(call: Call, comments, rows: np.ndarray, rng) -> list[str]:
    """``rows``: lindblad.csv columns (tau_R, W).

    The decay rates are taken as the program states them in the CSV header:
    their unit convention is an open question of the program, not of the
    integration checked here.
    """
    p = call.internal
    fails = _axis_failures("lindblad", rows[:, 0], p["tau_r"])
    if np.any(rows[:, 1] < 0.0) or np.any(rows[:, 1] > 1.0):
        fails.append("lindblad: W outside [0, 1]")
    gamma = _comment_rate(comments, "gamma")
    gamma_phi = _comment_rate(comments, "gamma_phi")
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    for i in _pick(rng, len(rows), 4):
        hams, durs = oracles.ramsey_schedule(p["amplitude"], p["delta"], p["tau"], p["tau_r"][i])
        w = oracles.lindblad_evolve(rho0, hams, durs, gamma, gamma_phi)[1, 1].real
        if abs(rows[i, 1] - w) > LINDBLAD_TOL:
            fails.append(f"lindblad: row {i} differs from the RK4 integration by {rows[i, 1] - w:.3g}")
    return fails


# ---------------------------------------------------------------------------
# shape


def check_shape(call: Call, summary: dict, wave: np.ndarray, durations: np.ndarray) -> list[str]:
    """``wave``: waveform.csv rows (t, value); ``durations``: duration_vs_bias.csv rows."""
    fails = []
    t, v = wave[:, 0], wave[:, 1]
    dt = t[1] - t[0]
    if not _close(t, dt * np.arange(len(t)), 1e-9 * t[-1]):
        fails.append("shape: waveform times are not uniform")
    if summary["samples"] != len(v):
        fails.append("shape: summary sample count differs from waveform.csv")
    if not v[np.argmax(np.abs(v))] == summary["peak"] or summary["peak"] == 0.0:
        fails.append("shape: summary peak is not the largest waveform sample")
    if abs(oracles.plateau_duration(v, dt) - summary["duration"]) > EXACT * max(1.0, summary["duration"]):
        fails.append("shape: summary duration is not the half-maximum width of waveform.csv")
    biases, widths = durations[:, 0], durations[:, 1]
    if not _close(biases, call.config["bias_sweep"], 1e-12):
        fails.append("shape: duration_vs_bias lists other biases than configured")
    if not (np.all(np.isfinite(widths)) and np.all(widths > 0)):
        fails.append("shape: a bias point has no plateau")
        return fails
    if np.any(np.diff(widths) >= 0):
        fails.append("shape: plateau duration does not fall as the bias rises")
    alpha = call.config["ljj"]["alpha"]
    for i_b, width in zip(biases, widths):
        speed = (SHAPE_TAPS[1] - SHAPE_TAPS[0]) / width
        law = oracles.power_balance_velocity(i_b, alpha)
        if abs(speed / law - 1.0) > VELOCITY_TOL:
            fails.append(f"shape: fluxon speed {speed:.4f} at i_b = {i_b} is not within "
                         f"5% of the power-balance {law:.4f}")
    return fails


AMP_IC1 = (0.6, 0.8, 1.0, 1.2, 1.4)


def flux_pulse(rng, dt: float, n: int = 1200) -> np.ndarray:
    """A 2*pi flat-top loop-flux pulse with seed-drawn edges and rise time."""
    t = dt * np.arange(n)
    rise = rng.uniform(0.5, 1.5)
    start = rng.uniform(0.1, 0.2) * t[-1]
    stop = start + rng.uniform(0.3, 0.5) * t[-1]
    return math.pi * (np.tanh((t - start) / rise) - np.tanh((t - stop) / rise))


def check_amplitude_stage(peaks) -> list[str]:
    """``peaks``: signed output peaks of the amplitude stage at ``AMP_IC1``.

    The balanced circuit (ic1 = 1) is null, and the output grows as ic1 moves away.
    """
    peaks = np.abs(np.asarray(peaks, dtype=float))
    mid = AMP_IC1.index(1.0)
    fails = []
    if peaks[mid] > 1e-6 * peaks.max():
        fails.append(f"amplitude stage: output {peaks[mid]!r} at ic1 = 1 is not null")
    if not (np.all(np.diff(peaks[:mid + 1]) < 0) and np.all(np.diff(peaks[mid:]) > 0)):
        fails.append("amplitude stage: output is not monotone away from ic1 = 1")
    return fails


# ---------------------------------------------------------------------------
# dispatch


def check_call(call: Call, out: Path, rng, context: dict) -> list[str]:
    """Check one CLI run's output directory.  ``context`` supplies what the
    demo check needs: the waveform ``pairs`` and the ``target`` state."""
    if call.command == "demo":
        demo = json.loads((out / "demo.json").read_text())
        _, _, traj = read_csv(out / "trajectory.csv")
        return check_demo(demo, traj, context["pairs"], call.internal["delta"],
                          call.internal["j"], context["target"], rng)
    if call.command == "sweep":
        if call.config["kind"] == "register-pair":
            parts = [read_grid(out / f"grid_basis{b}.csv") for b in range(4)]
        else:
            parts = [read_grid(out / "grid.csv")]
        return check_sweep(call, parts[0][0], parts[0][1], [g for _, _, g in parts], rng)
    if call.command == "ramsey":
        return check_ramsey(call, read_csv(out / "ramsey.csv")[2], rng)
    if call.command == "lindblad":
        comments, _, rows = read_csv(out / "lindblad.csv")
        return check_lindblad(call, comments, rows, rng)
    if call.command == "shape":
        summary = json.loads((out / "summary.json").read_text())
        wave = read_csv(out / "waveform.csv")[2]
        durations = read_csv(out / "duration_vs_bias.csv")[2]
        return check_shape(call, summary, wave, durations)
    raise ValueError(f"no check for {call.command}")
