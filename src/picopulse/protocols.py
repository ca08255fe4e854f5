"""Experiment-level scripts: parameter sweeps, delay scans, Bloch trajectories
and derivative-free pulse calibration.

Sweep axes are dimensionless by default (pulse areas and amplitudes in rad/ns
against times in ns); the CLI layer applies unit conversions.  A sampled
sweep makes one :mod:`picopulse.dynamics` core call for the whole grid: its
rows' schedules share their segment durations, so their Hamiltonians are
stacked and sampled at every axis2 time together.  A three-stage sweep makes
one call per axis1 value, which batches one segment's length over the axis2
values, as each delay scan batches all its delays.  Every cell equals an
independent propagation, which the test-suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .core import bloch_vector, gate_fidelity, state_fidelity
from .dynamics import (
    LindbladParams,
    PropagatorReuse,
    Schedule,
    Segment,
    evolve_lindblad_finals,
    evolve_state,
    evolve_unitaries,
    sample_states,
)


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"axis {self.name!r} needs count >= 2, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"axis {self.name!r} needs a finite start and stop")
        if not self.start < self.stop:
            raise ValueError(f"axis {self.name!r} needs start < stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axis1: Axis
    axis2: Axis
    fixed: dict = field(default_factory=dict)
    observable: int = 0  # the qubit basis population a single-qubit sweep reports

    def __post_init__(self):
        if self.observable not in (0, 1):
            raise ValueError(f"observable must be a qubit basis index, 0 or 1, "
                             f"got {self.observable}")


@dataclass(frozen=True)
class SweepGrid:
    """Row-major probability grid: values[i, j] for axis1 value i, axis2 value j."""

    axis1: Axis
    axis2: Axis
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != (self.axis1.count, self.axis2.count):
            raise ValueError("grid shape does not match axes")
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise ValueError("grid values must lie in [0, 1]")


@dataclass(frozen=True)
class CalibrationResult:
    params: np.ndarray
    fidelity: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# schedule builders

def single_pulse_schedule(amplitude: float, tau: float, delta: float,
                          tail: float = 0.0) -> Schedule:
    segs = [Segment(tau, e1=amplitude)]
    if tail > 0:
        segs.append(Segment(tail))
    return Schedule(delta1=delta, segments=tuple(segs))


def pulse_pair_schedule(amplitude: float, tau1: float, tau2: float, tau_r: float,
                        delta: float, tail: float = 0.0) -> Schedule:
    if not (tau_r >= 0 and math.isfinite(tau_r)):
        raise ValueError(f"tau_r must be finite and >= 0, got {tau_r}")
    segs = [Segment(tau1, e1=amplitude)]
    if tau_r > 0:
        segs.append(Segment(tau_r))
    segs.append(Segment(tau2, e1=amplitude))
    if tail > 0:
        segs.append(Segment(tail))
    return Schedule(delta1=delta, segments=tuple(segs))


def coupler_pulse_schedule(delta: float, j: float, tau: float,
                           tail: float = 0.0) -> Schedule:
    segs = [Segment(tau, j=j)]
    if tail > 0:
        segs.append(Segment(tail))
    return Schedule(delta1=delta, delta2=delta, dimension=4, segments=tuple(segs))


def three_stage_schedule(tau1: float, tau2: float, j: float, a1: float, a2: float,
                         delta: float) -> Schedule:
    segs = [Segment(tau1, j=j), Segment(tau2, e1=a1, e2=a2), Segment(tau1, j=j)]
    return Schedule(delta1=delta, delta2=delta, dimension=4, segments=tuple(segs))


def register_pair_schedule(delta1: float, delta2: float, j: float,
                           a1: float, a2: float, tau1: float, tau2: float,
                           tau_r: float, tail: float = 0.0) -> Schedule:
    """Pulse on qubit 1, delay, pulse on qubit 2, with the coupling always on."""
    if not (tau_r >= 0 and math.isfinite(tau_r)):
        raise ValueError(f"tau_r must be finite and >= 0, got {tau_r}")
    segs = [Segment(tau1, e1=a1, j=j)]
    if tau_r > 0:
        segs.append(Segment(tau_r, j=j))
    segs.append(Segment(tau2, e2=a2, j=j))
    if tail > 0:
        segs.append(Segment(tail, j=j))
    return Schedule(delta1=delta1, delta2=delta2, dimension=4, segments=tuple(segs))


# ---------------------------------------------------------------------------
# sweeps

def populations_at(schedule: Schedule, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Populations |psi_k(t)|^2 at arbitrary times within the schedule.

    Times beyond the schedule end are clamped to the final state.
    """
    return np.abs(sample_states(schedule.hamiltonians(), schedule.durations(), psi0, times)) ** 2


def _grid(spec: SweepSpec, values: np.ndarray, **meta) -> SweepGrid:
    return SweepGrid(spec.axis1, spec.axis2, np.clip(values, 0.0, 1.0),
                     meta={**spec.fixed, **meta})


def _sampled_populations(spec: SweepSpec, schedule_of) -> np.ndarray:
    """Populations ``(axis1, axis2, d)`` at the axis2 times, in one core call.

    ``schedule_of(value, tail)`` builds an axis1 value's schedule; the tail
    pads its pulses out to the last time.  The rows' Hamiltonians are stacked
    and share the first row's durations, which no axis1 value changes.
    """
    values, times = spec.axis1.values(), spec.axis2.values()
    tail = max(float(times[-1]) - schedule_of(values[0], 0.0).total_duration, 0.0) + 1e-9
    rows = [schedule_of(value, tail) for value in values]
    durations = np.array([row.durations() for row in rows])
    if np.any(durations != durations[0]):
        raise ValueError("a sampled sweep's segment durations must not depend on axis1")
    hams = np.array([row.hamiltonians() for row in rows])
    pops = np.abs(sample_states(hams, durations[0], np.eye(rows[0].dimension)[0], times))
    return np.square(pops, out=pops)  # in place: the grid is a sweep's largest array


def _scan_durations(schedule: Schedule, k: int, lengths) -> np.ndarray:
    """``schedule``'s durations, one row per entry of ``lengths``, which segment ``k`` lasts."""
    durations = np.repeat(schedule.durations()[None], len(lengths), axis=0)
    durations[:, k] = lengths
    return durations


def _final_populations(schedule: Schedule, k: int, lengths) -> np.ndarray:
    """Populations ``(len(lengths), d)`` after ``schedule`` from the ground state,
    with segment ``k`` lasting each of ``lengths``: one batched core call."""
    return np.abs(evolve_unitaries(schedule.hamiltonians(),
                                   _scan_durations(schedule, k, lengths))[:, :, 0]) ** 2


def sweep_single_pulse(spec: SweepSpec) -> SweepGrid:
    """Population map under a single unipolar pulse: axis1 = amplitude, axis2 = time."""
    f, k = spec.fixed, spec.observable
    pops = _sampled_populations(
        spec, lambda a, tail: single_pulse_schedule(a, f["tau"], f["delta"], tail=tail))
    return _grid(spec, pops[:, :, k], observable=k)


def sweep_pulse_pair(spec: SweepSpec) -> SweepGrid:
    """Population map under a pulse pair: axis1 = amplitude, axis2 = time."""
    f, k = spec.fixed, spec.observable
    pops = _sampled_populations(spec, lambda a, tail: pulse_pair_schedule(
        a, f["tau1"], f["tau2"], f["tau_r"], f["delta"], tail=tail))
    return _grid(spec, pops[:, :, k], observable=k)


def sweep_coupler_pulse(spec: SweepSpec) -> SweepGrid:
    """|dd> -> |uu> map for a coupler-only pulse: axis1 = coupling J, axis2 = time."""
    f = spec.fixed
    pops = _sampled_populations(
        spec, lambda j, tail: coupler_pulse_schedule(f["delta"], j, f["tau"], tail=tail))
    return _grid(spec, pops[:, :, 3])


def sweep_three_stage(spec: SweepSpec) -> SweepGrid:
    """|dd> -> |uu> map of the kick/drive/kick protocol: axis1 = drive amplitude, axis2 = tau2.

    One batched core call per amplitude covers every tau2; the row's schedule
    is built at the first tau2, which validates the axis.
    """
    f = spec.fixed
    tau2s = spec.axis2.values()
    rows = [_final_populations(three_stage_schedule(f["tau1"], tau2s[0], f["j"], a, a,
                                                    f["delta"]), 1, tau2s)[:, 3]
            for a in spec.axis1.values()]
    return _grid(spec, np.array(rows))


def sweep_register_pair(spec: SweepSpec) -> tuple[SweepGrid, SweepGrid, SweepGrid, SweepGrid]:
    """Four population maps (one per basis state) for the constant-J pulse pair.

    axis1 = shared drive amplitude (A1 = A2), axis2 = time.
    """
    f = spec.fixed
    pops = _sampled_populations(spec, lambda a, tail: register_pair_schedule(
        f["delta1"], f["delta2"], f["j"], a, a, f["tau1"], f["tau2"], f["tau_r"], tail=tail))
    return tuple(_grid(spec, pops[:, :, b], basis_index=b) for b in range(4))


# ---------------------------------------------------------------------------
# scans and trajectories

def ramsey_delay_scan(amplitude: float, delta: float, tau: float,
                      tau_r_values) -> np.ndarray:
    """Columns (tau_r, W_numeric, W_analytic) for equal-duration pulse pairs.

    One batched core call covers every delay; a zero delay is a zero-length
    free segment.
    """
    delays = np.asarray(tau_r_values, dtype=float)
    # the free segment's Hamiltonian does not depend on its length, which each delay sets
    w_num = _final_populations(pulse_pair_schedule(amplitude, tau, tau, tau, delta),
                               1, delays)[:, 1]
    w_ana = [analytic.ramsey_probability_unipolar(
        analytic.PulsePair(tau, tau, tau_r, amplitude), delta) for tau_r in delays]
    return np.column_stack([delays, w_num, w_ana])


def lindblad_ramsey_finals(amplitude: float, delta: float, tau: float,
                           tau_r_values, lp: LindbladParams) -> np.ndarray:
    """The final density matrices of :func:`lindblad_ramsey_scan`, in one batched call."""
    template = pulse_pair_schedule(amplitude, tau, tau, tau, delta)
    durations = _scan_durations(template, 1, tau_r_values)
    return evolve_lindblad_finals(template.hamiltonians(), durations, np.diag([1.0, 0.0]), lp)


def lindblad_ramsey_scan(amplitude: float, delta: float, tau: float,
                         tau_r_values, lp: LindbladParams) -> np.ndarray:
    """Columns (tau_r, W) with the master equation active at all times."""
    finals = lindblad_ramsey_finals(amplitude, delta, tau, tau_r_values, lp)
    return np.column_stack([np.asarray(tau_r_values, dtype=float), finals[:, 1, 1].real])


def bloch_trajectory(schedule: Schedule, psi0, sample_dt: float) -> np.ndarray:
    """Columns (t, x, y, z) of the Bloch vector along a dimension-2 schedule."""
    traj = evolve_state(schedule, psi0, sample_dt)
    rows = np.empty((len(traj.times), 4))
    rows[:, 0] = traj.times
    for i, psi in enumerate(traj.states):
        rows[i, 1:] = bloch_vector(psi / np.linalg.norm(psi))
    return rows


def fringe_contrast(values) -> float:
    """(max - min) / (max + min) over a scan window."""
    v = np.asarray(values, dtype=float)
    hi, lo = float(v.max()), float(v.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def peak_positions(x, y) -> np.ndarray:
    """Quadratically interpolated local-maximum positions of a sampled curve."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peaks = []
    for i in range(1, len(y) - 1):
        if y[i] >= y[i - 1] and y[i] > y[i + 1]:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
            peaks.append(x[i] + shift * (x[i + 1] - x[i]))
    return np.array(peaks)


# ---------------------------------------------------------------------------
# calibration

def _golden_section(f, lo: float, hi: float, rel_tol: float = 1e-7,
                    max_iter: int = 80):
    """Deterministic golden-section minimization on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    span0 = b - a
    for _ in range(max_iter):
        if b - a <= rel_tol * span0:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


_MAX_SWEEPS = 12  # coordinate sweeps per calibration, at most
_COARSE_POINTS = 25  # coarse-scan points per coordinate


class _BudgetExhausted(Exception):
    """Internal flow control: the objective-evaluation budget ran out."""


def calibrate_pulse(target, template, bounds, seed, tol: float = 1e-4,
                    budget: int = 4000) -> CalibrationResult:
    """Derivative-free calibration of a parameterized schedule.

    ``target`` is ``("state", vector)`` or ``("unitary", matrix)``;
    ``template`` maps a parameter vector to a Schedule; ``bounds`` is a list of
    (lo, hi) pairs and ``seed`` the analytic starting point.  Each coordinate
    is refined by a coarse scan plus golden-section search.  The reported
    fidelity comes from a fresh propagation with the parameters rounded to
    output precision, not from the optimizer's internal value.
    """
    kind, goal = target
    if kind not in ("state", "unitary"):
        raise ValueError(f"unknown target kind {kind!r}")
    goal = np.asarray(goal, dtype=complex)
    params = np.array(seed, dtype=float)
    if len(params) != len(bounds):
        raise ValueError("seed and bounds lengths differ")
    if len(params) > 6:
        raise ValueError("template may have at most 6 free parameters")
    evals = 0
    evolve = PropagatorReuse().evolve_unitary  # a coordinate step re-diagonalizes only its rows

    def fidelity_of(p) -> float:
        u = evolve(template(np.asarray(p, dtype=float)))
        if kind == "unitary":
            return gate_fidelity(goal, u)
        psi = u[:, 0]  # evolved from the ground state
        return state_fidelity(goal, psi / np.linalg.norm(psi))

    def objective(p) -> float:
        nonlocal evals
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        return 1.0 - fidelity_of(p)

    try:
        best = objective(params)
    except _BudgetExhausted:
        best = 1.0 - fidelity_of(params)
    try:
        for _ in range(_MAX_SWEEPS):
            improved = best
            for i, (lo, hi) in enumerate(bounds):
                def line(x, i=i):
                    p = params.copy()
                    p[i] = x
                    return objective(p)

                # coarse scan keeps the oscillatory objective from trapping
                # the golden-section refinement in a secondary minimum
                xs = np.linspace(lo, hi, _COARSE_POINTS)
                k = int(np.argmin([line(x) for x in xs]))
                x, fx = _golden_section(line, xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)])
                if fx < best:
                    best = fx
                    params[i] = x
            if best <= tol * 0.1 or improved - best < tol * 1e-3:
                break
    except _BudgetExhausted:
        pass

    rounded = np.array([float(f"{p:.12g}") for p in params])
    achieved = fidelity_of(rounded)
    return CalibrationResult(params=rounded, fidelity=achieved, iterations=evals,
                             converged=bool(1.0 - achieved <= tol))
