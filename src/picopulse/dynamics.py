"""Numerical propagation over piecewise-constant control schedules.

A :class:`Schedule` holds its segments as arrays, ``durations (n,)`` and
``controls (n, 3)``; :meth:`Schedule.from_arrays` takes them as they are.
Segment Hamiltonians ``(..., n_seg, d, d)``, whose leading axes index a batch of
schedules, get one stacked ``eigh``.  One eigenbasis exponential,
``exp(G dt) = left diag(exp(lambda dt)) right``, forms every propagator and
sampled state, closed (``G = -iH``, ``left = V``, ``right = V^dag``) and open.
One loop, :func:`_boundary_states`, applies segment propagators in order to
columns of states: the identity for :func:`evolve_unitaries`, the initial state
for :func:`sample_states` and the basis states and costates of calibration.
:func:`rk4_step` drives an explicit stepper kept as an independent cross-check,
a cosine-driven lab-frame integrator and the amplitude stage of ``fluxshaper``.
Open-system evolution integrates the master equation

    drho/dt = i[rho, H(t)] + gamma (s- rho s+ - 1/2 {s+ s-, rho})
              + gamma_phi (sz rho sz - rho)

with s+ = |1><0|, so relaxation drives |1> -> |0>; temperature is neglected and
the dissipators act at all times.  Each superoperator ``L`` gets one ``eig`` in
the Pauli basis ``P``, which keeps the trace: ``left = P^-1 V`` and
``right = V^-1 P``.  An ``L`` whose ``cond(V)`` exceeds :data:`EIG_COND_MAX`, as
near an exceptional point, falls back to scaling and squaring, :func:`_expm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ID2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SZ,
    check_density_matrix,
    check_state,
    hamiltonians,
)

#: a sample time at most this far (ns) past a segment end is taken from that segment
BOUNDARY_TOL = 1e-12
#: a Lindblad superoperator whose eigenvector matrix has a larger condition number is
#: exponentiated by :func:`_expm` instead of from its eigensystem
EIG_COND_MAX = 1e3
#: a segment phase ``|Im(lambda) dt|`` (rad) past this, ~4.5e9, is not resolved modulo
#: 2 pi: its rounding error ``|phase| eps`` would pass 1e-6
PHASE_MAX = 1e-6 / np.finfo(float).eps


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant control segment (all angular frequencies, rad/ns)."""

    duration: float
    e1: float = 0.0
    e2: float = 0.0
    j: float = 0.0

    def __post_init__(self):
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError(f"segment duration must be > 0, got {self.duration}")
        if not all(math.isfinite(v) for v in (self.e1, self.e2, self.j)):
            raise ValueError("segment controls must be finite")


class Schedule:
    """Ordered piecewise-constant segments for a qubit (dimension 2) or register (dimension 4).

    Stored as ``durations (n,)`` and ``controls (n, 3)`` arrays, one row
    ``(e1, e2, j)`` per segment.  :meth:`from_arrays` takes the arrays and
    builds no :class:`Segment`; it checks all rows at once and raises the error
    the first bad row's Segment would.
    """

    def __init__(self, delta1: float, segments, delta2: float = 0.0, dimension: int = 2):
        # each Segment has checked its own row
        rows = np.array([(s.duration, s.e1, s.e2, s.j) for s in segments], dtype=float)
        rows = rows.reshape(-1, 4)
        self._set(delta1, delta2, dimension, rows[:, 0].copy(), rows[:, 1:].copy())

    @classmethod
    def from_arrays(cls, delta1: float, durations, controls, delta2: float = 0.0,
                    dimension: int = 2) -> Schedule:
        """A schedule from ``durations (n,)`` and ``controls (n, 3)``, without segments."""
        durations, controls = np.array(durations, dtype=float), np.array(controls, dtype=float)
        if durations.ndim != 1 or controls.shape != (len(durations), 3):
            raise ValueError("durations and controls must have shapes (n,) and (n, 3)")
        ok = (durations > 0) & np.isfinite(durations) & np.isfinite(controls).all(axis=1)
        if not ok.all():  # the first bad row raises Segment's own error
            k = int(np.argmin(ok))
            Segment(durations[k], *controls[k])
        schedule = cls.__new__(cls)
        schedule._set(delta1, delta2, dimension, durations, controls)
        return schedule

    def _set(self, delta1, delta2, dimension, durations, controls):
        if dimension not in (2, 4):
            raise ValueError(f"dimension must be 2 or 4, got {dimension}")
        if dimension == 2 and controls[:, 1:].any():
            raise ValueError("dimension-2 schedules may only use the e1 control")
        durations.flags.writeable = controls.flags.writeable = False
        self.delta1, self.delta2, self.dimension = delta1, delta2, dimension
        self._durations, self.controls = durations, controls

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(Segment(d, *c) for d, c in zip(self._durations.tolist(),
                                                     self.controls.tolist()))

    @property
    def total_duration(self) -> float:
        return sum(self._durations.tolist())

    def hamiltonians(self, controls=None) -> np.ndarray:
        """All segment Hamiltonians as one ``(n_seg, d, d)`` stack.

        Given ``controls (..., n_seg, 3)``, the Hamiltonians ``(..., n_seg, d, d)``
        of this schedule's qubit gaps with those control rows in place of its own,
        from one core call: a whole sweep's stack from one template.
        """
        controls = self.controls if controls is None else np.asarray(controls, dtype=float)
        if controls.shape[-2:] != self.controls.shape:
            raise ValueError(f"control rows {controls.shape} do not match the schedule's "
                             f"{self.controls.shape}")
        if self.dimension == 2:
            coeffs = np.empty(controls.shape[:-1] + (2,))
            coeffs[..., 0], coeffs[..., 1] = self.delta1, controls[..., 0]
        else:
            coeffs = np.empty(controls.shape[:-1] + (5,))
            coeffs[..., 0], coeffs[..., 1], coeffs[..., 2:] = self.delta1, self.delta2, controls
        return hamiltonians(coeffs)

    def durations(self) -> np.ndarray:
        """Segment durations as one read-only array."""
        return self._durations

    def boundaries(self) -> np.ndarray:
        """Cumulative segment end times, starting at 0."""
        return np.concatenate([[0.0], np.cumsum(self._durations)])


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times (monotone) and one state (or density matrix) per time."""

    times: np.ndarray
    states: np.ndarray
    kind: str = "state"  # "state" or "density"

    def __post_init__(self):
        if np.any(np.diff(self.times) < 0):
            raise ValueError("sample times must be monotone")
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def populations(self) -> np.ndarray:
        if self.kind == "state":
            return np.abs(self.states) ** 2
        return np.einsum("tii->ti", self.states).real


@dataclass(frozen=True)
class LindbladParams:
    """Energy relaxation rate gamma and pure dephasing rate gamma_phi (1/ns)."""

    gamma: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        for name, rate in (("gamma", self.gamma), ("gamma_phi", self.gamma_phi)):
            if not (rate >= 0 and math.isfinite(rate)):
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")


def _checked_durations(durations) -> np.ndarray:
    durations = np.asarray(durations, dtype=float)
    if not np.all(np.isfinite(durations)) or np.any(durations < 0):
        raise ValueError("segment durations must be finite and >= 0")
    return durations


# maps a row-major vec(rho) to its Pauli coefficients (tr rho, x, y, z); the inverse is exact
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_PAULI_INV = _PAULI.conj().T / 2


def _eigenbasis_exponential(vals, left, right):
    """``exponential(ks, dts, starts=None, out=None)`` for generators ``G_k = left_k
    diag(vals_k) right_k`` from ``vals (..., n, d)``, ``left`` and ``right (..., n, d, d)``:
    ``exp(G_k dt) (..., m, d, d)`` for each pair of ``ks`` and ``dts (..., m)``, whose batch
    axes broadcast, or, given the states ``starts (..., n, d)`` at the segment starts and
    ``dts (m,)``, the states ``exp(G_k dt) starts_k``, written into ``out (..., m, d)`` as rows
    ``(exp(vals_k dt) * starts_k^T right_k^T) left_k^T``.  A phase ``|Im(vals_k) dt|`` past
    :data:`PHASE_MAX`, or a non-finite exponential, raises ``ArithmeticError``."""
    left_t = np.ascontiguousarray(np.moveaxis(left, -3, 0).swapaxes(-1, -2))
    right_t = np.swapaxes(right, -1, -2)

    def exponential(ks, dts, starts=None, out=None):
        ks, dts = np.asarray(ks, dtype=int), np.asarray(dts, dtype=complex)
        if starts is not None and out is None:
            out = np.empty(vals.shape[:-2] + (len(ks), vals.shape[-1]), dtype=complex)
        phases = np.take(vals, ks, axis=-2, out=out, mode="clip")  # "raise" copies out first
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.multiply(phases, dts[..., None], out=out)
            largest = max(np.max(phases.imag, initial=0.0), -np.min(phases.imag, initial=0.0))
            if largest > PHASE_MAX:
                raise ArithmeticError(f"a segment's exp(G dt) is not resolved: its phase "
                                      f"reaches {largest:.3g} rad, past {PHASE_MAX:.3g}")
            np.exp(phases, out=phases)
        if not np.isfinite(phases).all():
            raise ArithmeticError("a segment's exp(G dt) is not finite: its phases overflow")
        if starts is None:
            return (left[..., ks, :, :] * phases[..., None, :]) @ right[..., ks, :, :]
        coeffs = starts[..., None, :] @ right_t
        firsts = np.flatnonzero(np.diff(ks, prepend=-1)).tolist()
        for a, b, k in zip(firsts, firsts[1:] + [len(ks)], ks[firsts].tolist()):
            block = out[..., a:b, :]
            block *= coeffs[..., k, :, :]
            np.matmul(block, left_t[k], out=block)
        return out

    return exponential


def _unitary_exponential(vals, vecs):
    """The eigenbasis exponential of ``G = -iH`` from ``vals, vecs = eigh(H)``."""
    return _eigenbasis_exponential(-1j * vals, vecs, np.conj(np.swapaxes(vecs, -1, -2)))


def _expm(mats):
    """``exp(A)`` of a stack ``(..., d, d)`` by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179 (2005)): a degree-18 Taylor polynomial of ``A / 2**s``, with one
    ``s`` for the stack so that ``|A / 2**s|_1 <= 1/2``, squared ``s`` times.  A non-finite
    result raises ``ArithmeticError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = max(0, math.frexp(float(np.abs(mats).sum(axis=-2).max()))[1] + 1)
        a, eye = mats * 0.5**s, np.eye(mats.shape[-1])
        out = eye + a / 18
        for k in range(17, 0, -1):
            out = eye + a @ out / k
        for _ in range(s):
            out = out @ out
    if not np.isfinite(out).all():
        raise ArithmeticError("a segment's exp(G dt) is not finite: its squares overflow")
    return out


def _superoperator_exponentials(lops):
    """The eigenbasis exponential of superoperators ``L (n, 4, 4)`` from one stacked ``eig``.

    ``eig`` is taken in the Pauli basis: there a trace-preserving ``L``'s first row is
    exactly zero, so ``eig`` isolates its zero eigenvalue and the exponential keeps the
    trace to rounding at every ``dt``.  An ``L`` with ``cond(V) > EIG_COND_MAX``, a
    defective one included, is exponentiated by :func:`_expm` at each ``dt``.
    """
    vals, vecs = np.linalg.eig(_PAULI @ lops @ _PAULI_INV)
    good = np.linalg.cond(vecs) <= EIG_COND_MAX
    right = np.zeros_like(vecs)
    right[good] = np.linalg.inv(vecs[good]) @ _PAULI
    exponential = _eigenbasis_exponential(vals, _PAULI_INV @ vecs, right)
    if good.all():
        return exponential

    def with_fallback(ks, dts, starts=None, out=None):
        ks, dts = np.asarray(ks, dtype=int), np.asarray(dts, dtype=float)
        out = exponential(ks, dts, starts, out)
        bad = ~good[ks]
        if bad.any():
            mats = _expm(lops[ks[bad]] * dts[bad, None, None])
            out[bad] = mats if starts is None else (mats @ starts[ks[bad], :, None])[..., 0]
        return out

    return with_fallback


def _boundary_states(steps, v0) -> np.ndarray:
    """Columns ``(..., n_seg + 1, d, k)`` at every segment boundary, from ``v0 (..., d, k)``
    and the segment propagators ``(..., n_seg, d, d)`` applied in order; batch axes broadcast."""
    steps = np.moveaxis(steps, -3, 0)  # segments first
    batch = np.broadcast_shapes(steps.shape[1:-2], v0.shape[:-2])
    states = np.empty((len(steps) + 1,) + batch + v0.shape[-2:], dtype=complex)
    states[0] = v0
    for step, before, after in zip(steps, states[:-1], states[1:]):
        np.matmul(step, before, out=after)
    return np.moveaxis(states, 0, -3)


def _sample(durations, v0, times, exponential) -> np.ndarray:
    """States ``(..., len(times), d)`` from ``v0 (..., d)`` at sample times (any order).

    A time is evolved from the state at the start of the first segment that
    ends at or after it (within ``BOUNDARY_TOL``): a time on a boundary is the
    end of the earlier segment, times before 0 give ``v0`` and times past the
    end the final state.  ``exponential`` gives the whole segments'
    propagators, then the samples inside the schedule, sorted by segment and
    put back in the order of ``times`` only if it differs."""
    times = np.asarray(times, dtype=float)
    n = len(durations)
    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    seg = np.searchsorted(bounds[1:] + BOUNDARY_TOL, times)
    order = np.argsort(seg, kind="stable")  # segment by segment, past the end last
    m = int(np.count_nonzero(seg < n))
    k = seg[order[:m]]
    dt = np.maximum(times[order[:m]] - bounds[k], 0.0)
    starts = _boundary_states(exponential(np.arange(n), durations), v0[..., None])[..., 0]
    states = np.empty(starts.shape[:-2] + (len(times), starts.shape[-1]), dtype=complex)
    exponential(k, dt, starts[..., :-1, :], states[..., :m, :])
    states[..., m:, :] = starts[..., -1:, :]  # past the end: the final state
    if np.any(np.diff(order) < 0):
        states = states[..., np.argsort(order), :]
    return states


def evolve_unitaries(hams, durations) -> np.ndarray:
    """Ordered products ``(..., d, d)`` of exact segment propagators for
    Hamiltonians ``(..., n_seg, d, d)`` and durations ``(..., n_seg)`` >= 0, from one ``eigh``."""
    vals, vecs = np.linalg.eigh(hams)
    steps = _unitary_exponential(vals, vecs)(np.arange(vals.shape[-2]),
                                             _checked_durations(durations))
    return _boundary_states(steps, np.eye(vals.shape[-1]))[..., -1, :, :]


def evolve_unitary(schedule: Schedule) -> np.ndarray:
    """Ordered product of exact per-segment propagators exp(-i H_seg dt_seg)."""
    return evolve_unitaries(schedule.hamiltonians(), schedule.durations())


def sample_states(hams, durations, psi0, times) -> np.ndarray:
    """States ``(..., len(times), d)`` from ``psi0`` at sample times in any order, for
    Hamiltonians ``(..., n_seg, d, d)`` that share durations ``(n_seg,)`` >= 0.

    A boundary time ends the earlier segment, times before 0 give ``psi0`` and
    times past the end the final state, from one stacked ``eigh``."""
    hams, durations = np.asarray(hams), _checked_durations(durations)
    if durations.shape != hams.shape[-3:-2]:
        raise ValueError(f"durations {durations.shape} do not match Hamiltonians {hams.shape}")
    exponential = _unitary_exponential(*np.linalg.eigh(hams))
    return _sample(durations, np.asarray(psi0, dtype=complex), times, exponential)


def _sample_grid(schedule: Schedule, sample_dt: float) -> np.ndarray:
    if sample_dt <= 0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt}")
    total = schedule.total_duration
    uniform = np.arange(0.0, total, sample_dt)
    return np.union1d(np.append(uniform, total), schedule.boundaries())


def evolve_state(schedule: Schedule, psi0, sample_dt: float) -> Trajectory:
    """Propagate a pure state, sampling a uniform grid plus all segment boundaries."""
    psi = check_state(psi0)
    if psi.shape[0] != schedule.dimension:
        raise ValueError("initial state dimension does not match the schedule")
    times = _sample_grid(schedule, sample_dt)
    states = sample_states(schedule.hamiltonians(), schedule.durations(), psi, times)
    return Trajectory(times=times, states=states)


def rk4_step(f, y, h: float):
    """One classic RK4 step of ``dy/dt = f(frac, y)`` over a step ``h``, where ``frac``
    (0, 0.5 or 1) is the fraction of the step at which ``f`` is evaluated."""
    k1 = f(0.0, y)
    k2 = f(0.5, y + 0.5 * h * k1)
    k3 = f(0.5, y + 0.5 * h * k2)
    k4 = f(1.0, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_state_stepper(schedule: Schedule, psi0, dt: float) -> Trajectory:
    """Independent 4th-order explicit integrator; no renormalization is applied.

    Exists purely to cross-check the exact-exponential path; the step size is
    rejected unless dt <= 0.01 / max ||H_seg||.
    """
    psi = check_state(psi0).copy()
    hams = schedule.hamiltonians()
    hmax = float(np.max(np.abs(np.linalg.eigvalsh(hams)), initial=0.0))
    if hmax > 0 and dt > 0.01 / hmax:
        raise ValueError(f"dt = {dt:.3g} too large; need dt <= {0.01 / hmax:.3g}")
    times = [0.0]
    states = [psi.copy()]
    t = 0.0
    for duration, h in zip(schedule.durations().tolist(), hams):
        nsteps = max(1, int(math.ceil(duration / dt)))
        hstep = duration / nsteps
        for _ in range(nsteps):
            psi = rk4_step(lambda _, p: -1j * (h @ p), psi, hstep)
            t += hstep
            times.append(t)
            states.append(psi.copy())
    return Trajectory(times=np.array(times), states=np.array(states))


def evolve_driven_cosine(amplitude: float, omega: float, delta: float, tau: float,
                         psi0, dt: float) -> Trajectory:
    """Full lab-frame trajectory under eps(t) = A cos(omega t), 0 <= t <= tau.

    No rotating-wave approximation is made; dt must resolve the carrier with
    at least 40 samples per period.
    """
    psi = check_state(psi0).copy()
    if psi.shape[0] != 2:
        raise ValueError("cosine drive is defined for a single qubit")
    if omega > 0 and dt > (2.0 * math.pi / omega) / 40.0:
        raise ValueError(f"dt = {dt:.3g} under-resolves the carrier; "
                         f"need dt <= {2.0 * math.pi / omega / 40.0:.3g}")
    nsteps = max(1, int(math.ceil(tau / dt)))
    h = tau / nsteps
    hz = -0.5 * delta * SZ
    times = np.linspace(0.0, tau, nsteps + 1)
    states = np.empty((nsteps + 1, 2), dtype=complex)
    states[0] = psi

    def ht(t):
        return hz - 0.5 * amplitude * math.cos(omega * t) * np.array(
            [[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    for n in range(nsteps):
        t = times[n]
        psi = rk4_step(lambda s, p: -1j * (ht(t + s * h) @ p), psi, h)
        states[n + 1] = psi
    return Trajectory(times=times, states=states)


_RELAXATION = (np.kron(SIGMA_MINUS, SIGMA_PLUS.T)
               - 0.5 * (np.kron(SIGMA_PLUS @ SIGMA_MINUS, ID2)
                        + np.kron(ID2, (SIGMA_PLUS @ SIGMA_MINUS).T)))
_DEPHASING = np.kron(SZ, SZ.T) - np.eye(4)


def lindblad_superoperator(h: np.ndarray, lp: LindbladParams) -> np.ndarray:
    """Row-major-vec superoperator of the master equation for constant H.

    ``h`` may be one 2x2 Hamiltonian or a stack ``(..., 2, 2)``.
    """
    h = np.asarray(h, dtype=complex)
    # i[rho, H] = i (rho H - H rho);  vec(A rho B) = (A kron B^T) vec(rho)
    rho_h = np.einsum("ac,...db->...abcd", ID2, h)
    h_rho = np.einsum("...ac,bd->...abcd", h, ID2)
    lop = 1j * (rho_h - h_rho).reshape(h.shape[:-2] + (4, 4))
    if lp.gamma:
        lop += lp.gamma * _RELAXATION
    if lp.gamma_phi:
        lop += lp.gamma_phi * _DEPHASING
    return lop


def evolve_lindblad(schedule: Schedule, rho0, lp: LindbladParams,
                    sample_dt: float) -> Trajectory:
    """Sampled open-system evolution of a single-qubit density matrix over a schedule."""
    if schedule.dimension != 2:
        raise ValueError("open-system evolution is implemented for dimension 2 only")
    vec0 = check_density_matrix(rho0).reshape(4)
    times = _sample_grid(schedule, sample_dt)
    exponential = _superoperator_exponentials(lindblad_superoperator(schedule.hamiltonians(), lp))
    vecs = _sample(schedule.durations(), vec0, times, exponential)
    return Trajectory(times=times, states=vecs.reshape(-1, 2, 2), kind="density")
