"""Numerical propagation over piecewise-constant control schedules.

A :class:`Schedule` holds its segments as arrays, ``durations (n,)`` and
``controls (n, 3)``; ``Schedule(delta1, segments)`` fills them from
:class:`Segment` objects and :meth:`Schedule.from_arrays` takes them as they
are, which is how a calibration template should build its schedules.  One
batched core serves every closed-system result.  Segment Hamiltonians
``(..., n_seg, d, d)`` and durations ``(..., n_seg)``, whose leading axes
index a batch of schedules, get one stacked ``eigh``, and
:func:`picopulse.core.spectral_propagators` turns the eigensystems into
exact segment propagators, which :func:`evolve_unitaries` multiplies in
order.  :func:`evolve_unitary` is its batch-of-one case for a schedule.  One
sampler serves closed and open systems:
:func:`sample_states` and :func:`evolve_lindblad` evolve each sample time
from the state at the start of its segment.  :func:`sample_states` takes
Hamiltonians ``(..., n_seg, d, d)`` that share durations ``(n_seg,)``, as a
sweep's rows do, and evolves a sample in its segment's eigenbasis, so it
builds no per-sample propagator; :func:`evolve_state` and
``protocols.populations_at`` are its batch-of-one case.  One classic RK4 step,
:func:`rk4_step`, drives an explicit stepper kept as an independent
cross-check (deliberately without renormalization) and a cosine-driven
lab-frame integrator for the one genuinely time-dependent case.  Open-system
evolution integrates the master equation

    drho/dt = i[rho, H(t)] + gamma (s- rho s+ - 1/2 {s+ s-, rho})
              + gamma_phi (sz rho sz - rho)

with s+ = |1><0|, so the relaxation channel drives |1> -> |0>.  Temperature
effects are neglected and the dissipators act at all times, including during
pulses.  Its superoperator is not normal, so each distinct generator
``L dt`` of an open-system call is exponentiated from one stacked ``eig``, as
``V diag(exp(lambda)) V^-1`` in the Pauli basis, which keeps the trace.  That
form is accurate only while ``V`` is well conditioned; a generator whose
``cond(V)`` exceeds :data:`EIG_COND_MAX`, as near an exceptional point, falls
back to ``scipy.linalg.expm``, which is imported only then.
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
    spectral_propagators,
)

#: a sample time at most this far (ns) past a segment end is taken from that segment
BOUNDARY_TOL = 1e-12
#: a Lindblad generator whose eigenvector matrix has a larger condition number is
#: exponentiated by ``scipy.linalg.expm`` instead of from its eigensystem
EIG_COND_MAX = 1e3


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

    def hamiltonians(self) -> np.ndarray:
        """All segment Hamiltonians as one ``(n_seg, d, d)`` stack."""
        if self.dimension == 2:
            coeffs = np.empty((len(self._durations), 2))
            coeffs[:, 0], coeffs[:, 1] = self.delta1, self.controls[:, 0]
        else:
            coeffs = np.empty((len(self._durations), 5))
            coeffs[:, 0], coeffs[:, 1], coeffs[:, 2:] = self.delta1, self.delta2, self.controls
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


def _segment_propagators(hams, durations):
    """Exact propagators exp(-i H_seg dt_seg), durations broadcast, from one ``eigh``."""
    vals, vecs = np.linalg.eigh(hams)
    return spectral_propagators(vals, vecs, _checked_durations(durations))


# maps a row-major vec(rho) to its Pauli coefficients (tr rho, x, y, z); the inverse is exact
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_PAULI_INV = _PAULI.conj().T / 2


def _expm_distinct(gens) -> np.ndarray:
    """Exponential of each generator ``(..., 4, 4)``, computed once per distinct one
    (equal bits give equal exponentials; -0.0 is not +0.0).

    One stacked ``eig`` gives ``V diag(exp(lambda)) V^-1``, taken in the Pauli
    basis: there a trace-preserving generator's first row is exactly zero, so
    ``eig`` isolates its zero eigenvalue and the exponential keeps the trace to
    rounding.  Generators with ``cond(V) > EIG_COND_MAX``, defective ones
    included, go to ``scipy.linalg.expm`` instead.
    """
    flat = np.ascontiguousarray(gens, dtype=complex).reshape(-1, 16)
    keys, inverse = np.unique(flat.view(np.dtype((np.void, 256))).ravel(), return_inverse=True)
    mats = keys.view(complex).reshape(-1, 4, 4)
    vals, vecs = np.linalg.eig(_PAULI @ mats @ _PAULI_INV)
    good = np.linalg.cond(vecs) <= EIG_COND_MAX
    v = vecs[good]
    out = np.empty_like(mats)
    out[good] = _PAULI_INV @ ((v * np.exp(vals[good])[:, None, :]) @ np.linalg.inv(v)) @ _PAULI
    if not good.all():
        import scipy.linalg

        out[~good] = scipy.linalg.expm(mats[~good])
    return out[inverse].reshape(gens.shape)


def _boundary_states(steps, v0) -> np.ndarray:
    """States ``(..., n_seg + 1, d)`` at every segment boundary, from ``v0 (..., d)`` and the
    segment propagators ``(..., n_seg, d, d)`` applied in order."""
    steps = np.moveaxis(steps, -3, 0)  # segments first
    states = np.empty((len(steps) + 1,) + steps.shape[1:-1] + (1,), dtype=complex)
    states[0] = v0[..., None]
    for step, before, after in zip(steps, states[:-1], states[1:]):
        np.matmul(step, before, out=after)
    return np.moveaxis(states[..., 0], 0, -2)


def _sample(durations, v0, times, propagate) -> np.ndarray:
    """States ``(..., len(times), d)`` from ``v0 (..., d)`` at sample times (any order).

    A time is evolved from the state at the start of the first segment that
    ends at or after it (within ``BOUNDARY_TOL``): a time on a boundary is the
    end of the earlier segment, times before 0 give ``v0`` and times past the
    end the final state.  ``propagate(ks, dts)`` is called once, for segments
    ``ks`` over times ``dts``: every whole segment in order, then the ``m``
    samples inside the schedule, sorted by segment.  It returns the whole
    segments' propagators ``(..., n_seg, d, d)`` and ``reach(starts, out)``,
    which writes those samples' states into ``out (..., m, d)`` from the states
    at the segment starts ``(..., n_seg + 1, d)``.  The samples are kept in
    that order, and put back in the order of ``times`` only if it differs."""
    times = np.asarray(times, dtype=float)
    n = len(durations)
    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    seg = np.searchsorted(bounds[1:] + BOUNDARY_TOL, times)
    order = np.argsort(seg, kind="stable")  # segment by segment, past the end last
    m = int(np.count_nonzero(seg < n))
    k = seg[order[:m]]
    dt = np.maximum(times[order[:m]] - bounds[k], 0.0)
    steps, reach = propagate(np.concatenate([np.arange(n), k]), np.concatenate([durations, dt]))
    starts = _boundary_states(steps, v0)
    states = np.empty(starts.shape[:-2] + (len(times), starts.shape[-1]), dtype=complex)
    reach(starts, states[..., :m, :])
    states[..., m:, :] = starts[..., -1:, :]  # past the end: the final state
    if np.any(np.diff(order) < 0):
        states = states[..., np.argsort(order), :]
    return states


def _ordered_product(steps) -> np.ndarray:
    """``U_{n-1} ... U_1 U_0`` over the segment axis of ``(..., n_seg, d, d)``."""
    if steps.shape[-3] == 0:
        return np.zeros(steps.shape[:-3] + (1, 1), dtype=complex) + np.eye(steps.shape[-1])
    # pairwise products keep the order: (U1 U0), (U3 U2), ... then pairs of those
    while steps.shape[-3] > 1:
        pairs = steps[..., 1::2, :, :] @ steps[..., :-1:2, :, :]
        steps = (np.concatenate([pairs, steps[..., -1:, :, :]], axis=-3)
                 if steps.shape[-3] % 2 else pairs)
    return steps[..., 0, :, :]


def evolve_unitaries(hams, durations) -> np.ndarray:
    """Ordered products ``(..., d, d)`` of exact segment propagators for
    Hamiltonians ``(..., n_seg, d, d)`` and durations ``(..., n_seg)`` >= 0."""
    return _ordered_product(_segment_propagators(hams, durations))


def evolve_unitary(schedule: Schedule) -> np.ndarray:
    """Ordered product of exact per-segment propagators exp(-i H_seg dt_seg)."""
    return evolve_unitaries(schedule.hamiltonians(), schedule.durations())


def sample_states(hams, durations, psi0, times) -> np.ndarray:
    """States ``(..., len(times), d)`` from ``psi0`` at sample times in any order, for
    Hamiltonians ``(..., n_seg, d, d)`` that share durations ``(n_seg,)`` >= 0.

    A boundary time ends the earlier segment, times before 0 give ``psi0`` and
    times past the end the final state.  One stacked ``eigh``; a sample in
    segment ``k`` is ``V (exp(-i lambda dt) * V^dag psi_k)`` from the state
    ``psi_k`` at the segment's start, so no per-sample propagator is built."""
    hams, durations = np.asarray(hams), _checked_durations(durations)
    if durations.shape != hams.shape[-3:-2]:
        raise ValueError(f"durations {durations.shape} do not match Hamiltonians {hams.shape}")
    vals, vecs = np.linalg.eigh(hams)
    vecs_t = np.ascontiguousarray(np.moveaxis(vecs, -3, 0).swapaxes(-1, -2))  # V^T by segment

    def propagate(ks, dts):
        n = len(durations)
        k, dt = ks[n:], dts[n:]

        def reach(starts, out):
            # in place, as rows: out = exp(-i lambda dt), then (out * psi_k^T conj(V)) V^T
            coeffs = starts[..., :-1, None, :] @ vecs.conj()
            out.real = 0.0
            np.multiply(vals[..., k, :], -dt[:, None], out=out.imag)
            np.exp(out, out=out)
            firsts = np.flatnonzero(np.diff(k, prepend=-1)).tolist()
            for a, b, seg in zip(firsts, firsts[1:] + [len(k)], k[firsts].tolist()):
                block = out[..., a:b, :]
                block *= coeffs[..., seg, :, :]
                np.matmul(block, vecs_t[seg], out=block)

        return spectral_propagators(vals, vecs, dts[:n]), reach

    v0 = np.broadcast_to(np.asarray(psi0, dtype=complex), hams.shape[:-3] + hams.shape[-1:])
    return _sample(durations, v0, times, propagate)


def _sample_grid(schedule: Schedule, sample_dt: float) -> np.ndarray:
    if sample_dt <= 0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt}")
    total = schedule.total_duration
    uniform = np.arange(0.0, total, sample_dt)
    times = np.union1d(np.append(uniform, total), schedule.boundaries())
    return times


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
    """Sampled open-system evolution of a single-qubit density matrix over a schedule;
    for final states alone, :func:`evolve_lindblad_finals` takes a whole batch."""
    if schedule.dimension != 2:
        raise ValueError("open-system evolution is implemented for dimension 2 only")
    vec0 = check_density_matrix(rho0).reshape(4)
    times = _sample_grid(schedule, sample_dt)
    lops = lindblad_superoperator(schedule.hamiltonians(), lp)

    def propagate(ks, dts):
        steps, n = _expm_distinct(lops[ks] * dts[:, None, None]), len(lops)
        return steps[:n], lambda starts, out: np.matmul(steps[n:], starts[ks[n:], :, None],
                                                        out=out[..., None])

    vecs = _sample(schedule.durations(), vec0, times, propagate)
    return Trajectory(times=times, states=vecs.reshape(-1, 2, 2), kind="density")


def evolve_lindblad_finals(hams, durations, rho0, lp: LindbladParams) -> np.ndarray:
    """Final density matrices ``(..., 2, 2)`` from ``rho0`` for qubit Hamiltonians
    ``(..., n_seg, 2, 2)`` and durations ``(..., n_seg)`` >= 0, broadcast as in
    :func:`evolve_unitaries`; one stacked ``eig`` over the distinct generators."""
    gens = lindblad_superoperator(hams, lp) * _checked_durations(durations)[..., None, None]
    vec = _boundary_states(_expm_distinct(gens), check_density_matrix(rho0).reshape(4))
    return vec[..., -1, :].reshape(vec.shape[:-2] + (2, 2))
