"""Traced run: replays of each workload through the public functions the CLI
calls, with spans recorded here around every call into a layer, plus
medians of many calls for the layers whose single calls are short.

Spans are kept in memory and written out once at the end.  The timed passes
never run with tracing on.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from workloads import Call, demo_defaults, demo_segments, scan_calls


class Tracer:
    """Spans (id, trace, name, parent, start, end), kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace = ""

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "trace": self.trace, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, rec: dict) -> float:
        return rec["end"] - rec["start"]

    def named(self, name: str, trace: str | None = None) -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and (trace is None or s["trace"] == trace)]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += self.duration(s)
        out: dict[str, float] = {}
        for s in self.spans:
            key = f"{s['trace']}/{s['name']}"
            out[key] = out.get(key, 0.0) + self.duration(s) - child[s["id"]]
        return out


def span_cost(n: int = 2000) -> float:
    """Seconds one empty span costs, measured on a scratch tracer."""
    scratch = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with scratch.span("probe"):
            pass
    return (time.perf_counter() - t0) / n


def median_call(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` batches of the seconds one call of ``fn`` takes."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# replays


def demo_seed_and_bounds(pairs, delta: float, target: str):
    """The analytic seed and search box ``end_to_end_demo`` calibrates from."""
    signed_area = sum(d * v for d, v in pairs)
    s1 = (1.0 if signed_area >= 0 else -1.0) * math.pi / abs(signed_area)
    s2 = s1 if target == "inversion" else 0.5 * s1
    seed = [s1, s2, 0.5 * math.pi / delta]

    def box(s, lo, hi):
        return (lo * s, hi * s) if s > 0 else (hi * s, lo * s)

    return seed, [box(s1, 0.5, 1.5), box(s2, 0.4, 1.6),
                  (1e-4, math.tau / abs(delta) + 1e-3)]


def replay_calibrate(tr: Tracer, call: Call) -> dict:
    from picopulse import dynamics, fluxshaper as fs, protocols

    d = demo_defaults()
    delta, j = call.internal["delta"], call.internal["j"]
    with tr.span("fluxshaper.shape_control_pulse"):
        wave = fs.shape_control_pulse(fs.LJJConfig(), fs.InterferometerConfig(),
                                      1.0, d["time_scale"])
    with tr.span("fluxshaper.waveform_segments"):
        pairs = fs.waveform_segments(wave, max_segments=d["max_segments"])
    seed, bounds = demo_seed_and_bounds(pairs, delta, call.config["target"])
    builds = [0]

    def template(p):
        builds[0] += 1
        segs = tuple(dynamics.Segment(*s) for s in demo_segments(pairs, p, j))
        return dynamics.Schedule(delta1=delta, delta2=delta, dimension=4, segments=segs)

    goal = fs.target_state(call.config["target"])
    with tr.span("protocols.calibrate_pulse") as cal:
        result = protocols.calibrate_pulse(("state", goal), template, bounds, seed,
                                           tol=d["tol"])
    propagations = builds[0]
    schedule = template(result.params)
    psi0 = np.eye(4, dtype=complex)[0]
    with tr.span("dynamics.evolve_state"):
        dynamics.evolve_state(schedule, psi0, schedule.total_duration / 200.0)
    return {"calibrate_s": tr.duration(cal), "evals": result.iterations,
            "propagations": propagations, "segments": len(schedule.segments),
            "params": [float(v) for v in result.params], "schedule": schedule}


def replay_scan(tr: Tracer, calls: list[Call]) -> dict:
    from picopulse import protocols
    from picopulse.dynamics import LindbladParams

    runners = {"single": protocols.sweep_single_pulse, "pair": protocols.sweep_pulse_pair,
               "coupler": protocols.sweep_coupler_pulse,
               "three-stage": protocols.sweep_three_stage,
               "register-pair": protocols.sweep_register_pair}
    out = {}
    for call in calls:
        p = call.internal
        if call.command == "sweep":
            axes = [protocols.Axis(call.config[k]["name"], float(p[k][0]), float(p[k][-1]),
                                   len(p[k])) for k in ("axis1", "axis2")]
            fixed = {k: v for k, v in p.items() if k not in ("axis1", "axis2")}
            spec = protocols.SweepSpec(axis1=axes[0], axis2=axes[1], fixed=fixed)
            fn = runners[call.config["kind"]]
            with tr.span(f"protocols.{fn.__name__}") as rec:
                fn(spec)
            out[call.name] = {"s": tr.duration(rec), "cells": len(p["axis1"]) * len(p["axis2"])}
        elif call.command == "ramsey":
            with tr.span("protocols.ramsey_delay_scan") as rec:
                protocols.ramsey_delay_scan(p["amplitude"], p["delta"], p["tau"], p["tau_r"])
            out[call.name] = {"s": tr.duration(rec)}
        else:  # rates converted as the CLI converts them
            lp = LindbladParams(2.0 * math.pi * call.config["gamma"],
                                2.0 * math.pi * call.config["gamma_phi"])
            with tr.span("protocols.lindblad_ramsey_scan") as rec:
                protocols.lindblad_ramsey_scan(p["amplitude"], p["delta"], p["tau"],
                                               p["tau_r"], lp)
            out[call.name] = {"s": tr.duration(rec)}
    return out


def replay_shape(tr: Tracer, call: Call) -> dict:
    from picopulse import fluxshaper as fs

    cfg = call.config
    ljj = fs.LJJConfig(**cfg["ljj"])
    amp = fs.InterferometerConfig(**cfg["amp"])
    solves = []
    with tr.span("fluxshaper.simulate_ljj_fluxon") as rec:
        result = fs.simulate_ljj_fluxon(ljj)
    solves.append((tr.duration(rec), float(result.times[-1]) / ljj.step))
    sim_time = float(result.times[-1])
    with tr.span("fluxshaper.loop_flux_waveform"):
        loop = fs.loop_flux_waveform(result, ljj)
    with tr.span("fluxshaper.simulate_amplitude_stage"):
        current = fs.simulate_amplitude_stage(loop, amp)
    with tr.span("fluxshaper.summary"):
        fs.plateau_duration(current)
        fs.peak_amplitude(current)
    widths = []
    with tr.span("fluxshaper.duration_vs_bias") as sweep:
        for i_b in cfg["bias_sweep"]:
            bias_cfg = replace(ljj, i_b=float(i_b))
            with tr.span("fluxshaper.simulate_ljj_fluxon") as rec:
                res = fs.simulate_ljj_fluxon(bias_cfg)
            solves.append((tr.duration(rec), float(res.times[-1]) / bias_cfg.step))
            with tr.span("fluxshaper.plateau_duration"):
                widths.append(fs.plateau_duration(fs.loop_flux_waveform(res, bias_cfg)))
    return {"ljj_s": statistics.median(s for s, _ in solves),
            "ljj_steps_per_s": sum(n for _, n in solves) / sum(s for s, _ in solves),
            "ljj_sim_time": sim_time, "bias_sweep_s": tr.duration(sweep),
            "widths": widths, "loop_flux": loop, "amp": amp}


# ---------------------------------------------------------------------------
# layer probes


def probe_layers(cal: dict, shape: dict, seed: int) -> dict:
    """Medians of many calls into the layers whose single calls are short."""
    from picopulse import analytic, core, dynamics, fluxshaper as fs
    from picopulse.dynamics import LindbladParams
    from picopulse.protocols import pulse_pair_schedule

    schedule = cal["schedule"]
    psi0 = np.eye(4, dtype=complex)[0]
    lind = [c for c in scan_calls(seed) if c.command == "lindblad"][0]
    p = lind.internal
    point = pulse_pair_schedule(p["amplitude"], p["tau"], p["tau"],
                                float(p["tau_r"][len(p["tau_r"]) // 2]), p["delta"])
    lp = LindbladParams(2.0 * math.pi * lind.config["gamma"],
                        2.0 * math.pi * lind.config["gamma_phi"])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    pair = analytic.PulsePair(p["tau"], p["tau"], 1.234, p["amplitude"])
    return {
        "core.hamiltonian4_us": 1e6 * median_call(
            lambda: core.make_two_qubit_hamiltonian(1.5, 1.9, 120.0, 0.0, 0.3), 9, 300),
        "dynamics.evolve_unitary_ms": 1e3 * median_call(
            lambda: dynamics.evolve_unitary(schedule), 15),
        "dynamics.evolve_state_ms": 1e3 * median_call(
            lambda: dynamics.evolve_state(schedule, psi0, schedule.total_duration / 200.0), 9),
        "dynamics.evolve_lindblad_ms": 1e3 * median_call(
            lambda: dynamics.evolve_lindblad(point, rho0, lp, point.total_duration), 31),
        "analytic.ramsey_us": 1e6 * median_call(
            lambda: analytic.ramsey_probability_unipolar(pair, p["delta"]), 9, 2000),
        "fluxshaper.amp_stage_s": median_call(
            lambda: fs.simulate_amplitude_stage(shape["loop_flux"], shape["amp"]), 3),
    }
