"""Experiment-level scripts: parameter sweeps, delay scans, Bloch trajectories
and pulse calibration by a quasi-Newton search on exact adjoint gradients.

Sweep axes are dimensionless by default (pulse areas and amplitudes in rad/ns
against times in ns); the CLI layer applies unit conversions.  Every sweep builds
its Hamiltonian stack from one template, in one core call: a builder's
controls are affine in the axis1 value and its durations do not depend on it,
so two schedules, at 0 and 1, give every row's controls, and no schedule is
built per axis1 value.  A sampled sweep then samples all rows at every axis2
time in one :mod:`picopulse.dynamics` call.  The three-stage sweep and both
delay scans share one pulse-delay-pulse helper: the pulsed ground state is
evolved along the second segment at every delay and pulsed again.  Every cell
equals an independent propagation, as the tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .core import bloch_vector, check_state, check_unitary
from .dynamics import (
    LindbladParams,
    Schedule,
    Segment,
    _boundary_states,
    _checked_durations,
    _superoperator_exponentials,
    _unitary_exponential,
    evolve_state,
    lindblad_superoperator,
    sample_states,
)

GRID_TOL = 1e-12  # how far rounding may carry a probability outside [0, 1]


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


def _grid(spec: SweepSpec, kind: str, values: np.ndarray, **meta) -> SweepGrid:
    """The grid of ``values`` clipped to [0, 1], after an ``ArithmeticError`` that names the
    sweep ``kind`` if a value is not finite or lies further outside than ``GRID_TOL``."""
    lo, hi = float(np.min(values)), float(np.max(values))  # a nan propagates to both
    if not (-GRID_TOL <= lo and hi <= 1.0 + GRID_TOL):
        raise ArithmeticError(f"the {kind} sweep's probabilities span [{lo}, {hi}], "
                              "not [0, 1]")
    return SweepGrid(spec.axis1, spec.axis2, np.clip(values, 0.0, 1.0),
                     meta={**spec.fixed, **meta})


def _axis1_hamiltonians(build, values) -> tuple[Schedule, np.ndarray]:
    """``build(0)`` and the Hamiltonians ``(len(values), n_seg, d, d)`` of ``build(v)`` for
    every ``v`` of ``values``, from one core call.

    Each builder's controls are affine in its axis1 value and its durations do
    not depend on it, the GRAPE form ``H0 + v H1`` (Khaneja et al., J. Magn.
    Reson. 172, 296 (2005)).  So the template ``c0 = build(0).controls`` with the
    basis ``build(1).controls - c0`` gives ``c0 + v * basis``, which are
    ``build(v)``'s controls bit for bit, and no schedule is built per value.
    """
    base = build(0.0)
    c0 = base.controls
    return base, base.hamiltonians(c0 + values[:, None, None] * (build(1.0).controls - c0))


def _sampled_populations(spec: SweepSpec, schedule_of) -> np.ndarray:
    """Populations ``(axis1, axis2, d)`` at the axis2 times, in one core call.

    ``schedule_of(value, tail)`` builds an axis1 value's schedule; the tail
    pads its pulses out to the last time.
    """
    values, times = spec.axis1.values(), spec.axis2.values()
    tail = max(float(times[-1]) - schedule_of(0.0, 0.0).total_duration, 0.0) + 1e-9
    base, hams = _axis1_hamiltonians(lambda value: schedule_of(value, tail), values)
    pops = np.abs(sample_states(hams, base.durations(), np.eye(base.dimension)[0], times))
    return np.square(pops, out=pops)  # in place: the grid is a sweep's largest array


def sweep_single_pulse(spec: SweepSpec) -> SweepGrid:
    """Population map under a single unipolar pulse: axis1 = amplitude, axis2 = time."""
    f, k = spec.fixed, spec.observable
    pops = _sampled_populations(
        spec, lambda a, tail: single_pulse_schedule(a, f["tau"], f["delta"], tail=tail))
    return _grid(spec, "single", pops[:, :, k], observable=k)


def sweep_pulse_pair(spec: SweepSpec) -> SweepGrid:
    """Population map under a pulse pair: axis1 = amplitude, axis2 = time."""
    f, k = spec.fixed, spec.observable
    pops = _sampled_populations(spec, lambda a, tail: pulse_pair_schedule(
        a, f["tau1"], f["tau2"], f["tau_r"], f["delta"], tail=tail))
    return _grid(spec, "pair", pops[:, :, k], observable=k)


def sweep_coupler_pulse(spec: SweepSpec) -> SweepGrid:
    """|dd> -> |uu> map for a coupler-only pulse: axis1 = coupling J, axis2 = time."""
    f = spec.fixed
    pops = _sampled_populations(
        spec, lambda j, tail: coupler_pulse_schedule(f["delta"], j, f["tau"], tail=tail))
    return _grid(spec, "coupler", pops[:, :, 3])


def sweep_three_stage(spec: SweepSpec) -> SweepGrid:
    """|dd> -> |uu> map of the kick/drive/kick protocol: axis1 = drive amplitude, axis2 = tau2.

    The template is built at the first tau2, which validates the axis.  The
    kicks depend on neither axis: the kicked ground state is evolved along every
    amplitude's drive segment at each tau2, then kicked again.
    """
    f = spec.fixed
    tau2s = spec.axis2.values()
    base, hams = _axis1_hamiltonians(
        lambda a: three_stage_schedule(f["tau1"], tau2s[0], f["j"], a, a, f["delta"]),
        spec.axis1.values())
    exponential = _unitary_exponential(*np.linalg.eigh(hams[:, :2]))
    kick, driven = _delay_states(exponential, base.durations()[0], tau2s)
    return _grid(spec, "three-stage", np.abs(driven @ kick[0, 3]) ** 2)


def sweep_register_pair(spec: SweepSpec) -> tuple[SweepGrid, SweepGrid, SweepGrid, SweepGrid]:
    """Four population maps (one per basis state) for the constant-J pulse pair.

    axis1 = shared drive amplitude (A1 = A2), axis2 = time.
    """
    f = spec.fixed
    pops = _sampled_populations(spec, lambda a, tail: register_pair_schedule(
        f["delta1"], f["delta2"], f["j"], a, a, f["tau1"], f["tau2"], f["tau_r"], tail=tail))
    return tuple(_grid(spec, "register-pair", pops[:, :, b], basis_index=b) for b in range(4))


# ---------------------------------------------------------------------------
# scans and trajectories

def _delay_states(exponential, tau, delays):
    """The pulse propagator ``exp(G_0 tau) (..., d, d)`` and the states ``(..., len(delays),
    d)`` that basis state 0 reaches through it and then ``exp(G_1 t)`` for each delay ``t``,
    for the ``exponential`` of a stack of two generators (pulse, free) on each batch row."""
    delays = _checked_durations(delays)
    pulse = exponential([0], [tau])[..., 0, :, :]
    pulsed = np.repeat(pulse[..., None, :, 0], 2, axis=-2)  # the free segment's start
    return pulse, exponential(np.ones(len(delays), dtype=int), delays, pulsed)


def ramsey_delay_scan(amplitude: float, delta: float, tau: float,
                      tau_r_values) -> np.ndarray:
    """Columns (tau_r, W_numeric, W_analytic) for equal-duration pulse pairs and delays >= 0,
    from one ``eigh`` of the pulse and free Hamiltonians; the closed form is one array
    expression."""
    hams = pulse_pair_schedule(amplitude, tau, tau, tau, delta).hamiltonians()[:2]
    pulse, free = _delay_states(_unitary_exponential(*np.linalg.eigh(hams)), tau, tau_r_values)
    delays = np.asarray(tau_r_values, dtype=float)
    w_ana = analytic.ramsey_probabilities_unipolar(amplitude, tau, delays, delta)
    return np.column_stack([delays, np.abs(free @ pulse[1]) ** 2, w_ana])


def lindblad_ramsey_finals(amplitude: float, delta: float, tau: float,
                           tau_r_values, lp: LindbladParams) -> np.ndarray:
    """The final density matrices of :func:`lindblad_ramsey_scan`, as in
    :func:`ramsey_delay_scan`, from one stacked ``eig`` of the segment superoperators."""
    hams = pulse_pair_schedule(amplitude, tau, tau, tau, delta).hamiltonians()[:2]
    exponential = _superoperator_exponentials(lindblad_superoperator(hams, lp))
    pulse, free = _delay_states(exponential, tau, tau_r_values)
    return (free @ pulse.T).reshape(-1, 2, 2)


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

_COARSE_POINTS = 25  # coarse-scan points per coordinate
#: the template is differenced over this fraction of each bound's width for dH/dp and dt/dp
_DIFF_STEP = 1e-6
_ARMIJO = 1e-4  # sufficient-decrease fraction of the backtracking line search
_MAX_HALVINGS = 30  # line-search halvings per iteration, at most
_HESS_STEP = 1e-4  # gradient-difference step for the starting Hessian, in box widths


class _Infidelity:
    """``1 - F`` of a template's schedules against a target, on the parameter box
    ``[lo, hi]``, and its adjoint gradient; ``evals`` counts the rows propagated.

    A target is taken as ``m`` (initial, goal) state pairs: the first ``m``
    basis states and the rows of ``goals (m, d)``, with ``F = |sum_k <g_k|U|k>|^2 / m^2``.
    A state target from the ground state is one pair; a unitary target ``G`` is
    ``d`` pairs, the columns of ``G``, which gives ``|Tr(G^dag U)|^2 / d^2``.
    """

    def __init__(self, target, template, lo, hi):
        kind, goal = target
        if kind == "state":
            self.goals = check_state(goal)[None]
        elif kind == "unitary":
            self.goals = check_unitary(goal).T
        else:
            raise ValueError(f"unknown target kind {kind!r}")
        self.template, self.layout = template, None
        self.lo, self.hi, self.evals = lo, hi, 0

    def schedule(self, p) -> Schedule:
        """The template's schedule at ``p``, which must keep the first one's layout."""
        schedule = self.template(np.array(p, dtype=float))
        layout = (schedule.dimension, len(schedule.durations()))
        if self.layout is None:
            if schedule.dimension != self.goals.shape[1]:
                raise ValueError(f"the target has dimension {self.goals.shape[1]}, but the "
                                 f"template's schedules have {schedule.dimension}")
            self.layout = layout
        elif layout != self.layout:
            raise ValueError(f"the template's layout (dimension, segments) changed from "
                             f"{self.layout} to {layout}; it must not depend on the parameters")
        return schedule

    def __call__(self, rows):
        """Infidelities at each row of parameters, from one forward pass, and
        ``gradient()``, which gives ``d(1 - F)/dx`` at the first row on the unit box
        ``x = (p - lo) / (hi - lo)`` from the same pass (GRAPE adjoint: Khaneja et al.,
        J. Magn. Reson. 172, 296 (2005)).

        Segment ``k`` contributes ``<lambda_k+1| dU_k |psi_k>`` from the forward states
        ``psi`` and backward costates ``lambda``.  In its eigenbasis ``dU_k`` is the
        divided differences of ``exp(-i lambda t)`` times ``V^dag dH V``, plus
        ``-i H U dt`` (Machnes et al., PRA 84, 022305 (2011)).  ``dH/dp`` and ``dt/dp``
        difference the template at ``p`` and a step into the box, which is exact to
        rounding for a template affine in its parameters.
        """
        self.evals += len(rows)
        schedules = [self.schedule(p) for p in rows]
        hams = np.array([s.hamiltonians() for s in schedules])
        durations = np.array([s.durations() for s in schedules])
        vals, vecs = np.linalg.eigh(hams)
        steps = _unitary_exponential(vals, vecs)(np.arange(vals.shape[-2]), durations)
        m, d = self.goals.shape
        states = _boundary_states(steps, np.eye(d)[:, :m])  # (rows, n_seg + 1, d, m)
        overlaps = np.einsum("rik,ki->r", states[:, -1], self.goals.conj()) / m

        def gradient() -> np.ndarray:
            p, ham, dur, val, vec = rows[0], hams[0], durations[0], vals[0], vecs[0]
            lo, hi = self.lo, self.hi
            costates = _boundary_states(steps[0, ::-1].conj().swapaxes(-1, -2), self.goals.T)[::-1]
            outer = costates[1:].conj() @ states[0, :-1].swapaxes(-1, -2)
            c = vec.swapaxes(-1, -2) @ outer @ vec.conj()  # (V^dag psi lambda^dag V)^T
            t = dur[:, None, None]
            divided = (-1j * t * np.exp(-0.5j * t * (val[:, :, None] + val[:, None, :]))
                       * np.sinc(t * (val[:, :, None] - val[:, None, :]) / math.tau))
            dham = vec.conj() @ (c * divided) @ vec.swapaxes(-1, -2)
            ddur = -1j * np.einsum("ka,kaa->k", val * np.exp(-1j * dur[:, None] * val), c)
            grad = np.empty(len(p))
            for i in range(len(p)):
                q = np.array(p, dtype=float)
                step = _DIFF_STEP * (hi[i] - lo[i])
                q[i] += step if q[i] + step <= hi[i] else -step
                moved = self.schedule(q)
                h = q[i] - p[i]
                dover = (np.vdot(dham.conj(), moved.hamiltonians() - ham)
                         + ddur @ (moved.durations() - dur)) / (h * m)
                grad[i] = -2.0 * (overlaps[0].conjugate() * dover).real
            return _finite("gradient", np.multiply, grad, hi - lo)

        return 1.0 - np.abs(overlaps) ** 2, gradient


def _checked_inputs(bounds, seed, tol, budget):
    """Bounds ``lo, hi`` and the seed as arrays, after checking every input by name."""
    box = np.array(bounds, dtype=float).reshape(-1, 2)
    params = np.array(seed, dtype=float).ravel()
    if len(params) != len(box):
        raise ValueError("seed and bounds lengths differ")
    if len(params) > 6:
        raise ValueError("template may have at most 6 free parameters")
    for i, ((lo, hi), p) in enumerate(zip(box.tolist(), params.tolist())):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds[{i}] = [{lo}, {hi}] must be finite with lo < hi")
        if not lo <= p <= hi:
            raise ValueError(f"seed[{i}] = {p} lies outside bounds[{i}] = [{lo}, {hi}]")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not (budget >= 0 and float(budget).is_integer()):
        raise ValueError(f"budget must be an integer >= 0, got {budget}")
    return box[:, 0], box[:, 1], params


def calibrate_pulse(target, template, bounds, seed, tol: float = 1e-4,
                    budget: int = 4000) -> CalibrationResult:
    """Gradient-based calibration of a parameterized schedule.

    ``target`` is ``("state", vector)``, reached from the ground state, or
    ``("unitary", matrix)``; ``template`` maps a parameter vector to a Schedule
    whose dimension and segment count do not depend on it; ``bounds`` is a list
    of (lo, hi) pairs and ``seed`` the analytic starting point inside them.

    The search stops as soon as the infidelity ``1 - F`` is at most ``tol / 10``,
    the seed included.  Otherwise a coarse scan of each coordinate over its
    bounds gives the start of a quasi-Newton search on the box (see
    :func:`_projected_bfgs`), which stops when an iteration gains less than
    ``tol / 1000``.  ``iterations`` counts objective evaluations (propagations),
    never more than ``budget``.  The reported fidelity comes from a fresh
    propagation with the parameters rounded to output precision, not from the
    optimizer's internal value.
    """
    lo, hi, params = _checked_inputs(bounds, seed, tol, budget)
    objective = _Infidelity(target, template, lo, hi)

    def at(x):  # the objective at one point of the unit box
        values, gradient = objective(np.clip(lo + (hi - lo) * x, lo, hi)[None])
        return values[0], gradient

    if budget:
        (best,), gradient = objective(params[None])
        # coarse scan keeps the oscillatory objective from trapping the local search
        # in a secondary minimum
        for i in range(len(params)):
            if best <= tol * 0.1 or objective.evals + _COARSE_POINTS > budget:
                break
            rows = np.repeat(params[None], _COARSE_POINTS, axis=0)
            rows[:, i] = np.linspace(lo[i], hi[i], _COARSE_POINTS)
            try:
                values = objective(rows)[0]
            except ArithmeticError as exc:
                raise ArithmeticError(f"the coarse scan over bounds[{i}]: {exc}") from exc
            k = int(np.argmin(values))
            if values[k] < best:
                best, params, gradient = values[k], rows[k], None
        if best > tol * 0.1 and gradient is None and objective.evals < budget:
            (best,), gradient = objective(params[None])
        if best > tol * 0.1 and gradient is not None:
            x = _projected_bfgs(at, (params - lo) / (hi - lo), best, gradient(), tol,
                                lambda: objective.evals < budget)
            params = np.clip(lo + (hi - lo) * x, lo, hi)

    rounded = np.array([float(f"{p:.12g}") for p in params])
    iterations = objective.evals  # the check at the rounded parameters is not counted
    achieved = 1.0 - float(objective(rounded[None])[0][0])
    return CalibrationResult(params=rounded, fidelity=achieved, iterations=iterations,
                             converged=bool(1.0 - achieved <= tol))


def _finite(what, op, *args) -> np.ndarray:
    """``op(*args)``; ``ArithmeticError`` names ``bounds[i]`` of its first non-finite entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = op(*args)
    if not np.isfinite(values).all():
        raise ArithmeticError(f"the {what} of 1 - F scaled to bounds["
                              f"{np.argmin(np.isfinite(values))}] is not finite")
    return values


def _projected_bfgs(evaluate, x, f, g, tol, affordable) -> np.ndarray:
    """Minimize ``1 - F`` over the unit box from ``x``, where it is ``f`` with gradient ``g``.

    ``evaluate(x)`` gives ``(f, gradient)``.  The BFGS Hessian model starts from
    differences of the exact gradient, with its eigenvalues made positive, and
    is updated after each step.  A coordinate on a bound whose gradient points
    out of the box is held there; the others take the Newton step of the model
    restricted to them, a descent direction because the model stays positive
    definite.  A step is halved until it lowers ``f`` and passes Armijo's test.
    The search ends when ``f <= tol / 10``, when a step gains less than
    ``tol / 1000``, when no step is accepted or when ``affordable()`` fails.
    Returns the best point.
    """
    hess = np.empty((len(x), len(x)))
    for j in range(len(x)):
        if not affordable():
            return x
        q = x.copy()
        q[j] += _HESS_STEP if x[j] + _HESS_STEP <= 1.0 else -_HESS_STEP
        hess[:, j] = _finite("Hessian", np.divide, evaluate(q)[1]() - g, q[j] - x[j])
    vals, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    vals = np.maximum(np.abs(vals), 1e-8 * max(np.max(np.abs(vals), initial=0.0), 1.0))
    hess = (vecs * vals) @ vecs.T
    while affordable():
        free = ~(((x <= 0.0) & (g > 0.0)) | ((x >= 1.0) & (g < 0.0)))
        if not np.any(g[free]):
            break
        direction = np.zeros_like(x)
        direction[free] = -np.linalg.solve(hess[np.ix_(free, free)], g[free])
        direction /= max(1.0, np.max(np.abs(direction)))  # at most the box's width
        for halving in range(_MAX_HALVINGS):
            trial = np.clip(x + 0.5 ** halving * direction, 0.0, 1.0)
            f_new, gradient = evaluate(trial)
            if f_new < f and f_new <= f + _ARMIJO * (g @ (trial - x)):
                break
            if not affordable():
                return x
        else:
            return x
        g_new = gradient()
        s, y = trial - x, g_new - g
        if s @ y > 0.0:
            hs = hess @ s
            hess += np.outer(y, y) / (s @ y) - np.outer(hs, hs) / (s @ hs)
        gain, x, f, g = f - f_new, trial, f_new, g_new
        if f <= tol * 0.1 or gain < tol * 1e-3:
            break
    return x
