"""Reference computations the benchmark checks picopulse against.

Nothing here imports picopulse: the Hamiltonians are written out from
explicit Pauli matrices, propagation is a product of ``scipy.linalg.expm``
factors, the sweep maps use their textbook closed forms and the master
equation is integrated by a fixed-step RK4 in the commutator form.  All
frequencies are angular (rad/ns) and all times in ns.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# |1><0| raises, |0><1| lowers; relaxation takes |1> to |0>
RAISE = np.array([[0, 0], [1, 0]], dtype=complex)
LOWER = RAISE.T.copy()


def hamiltonian(delta1: float, e1: float, delta2: float = 0.0, e2: float = 0.0,
                j: float = 0.0, dimension: int = 2) -> np.ndarray:
    """H = -1/2 (D sz + e sx) per qubit, plus -1/2 J sx(x)sx; qubit 1 on the left."""
    h1 = -0.5 * (delta1 * PAULI_Z + e1 * PAULI_X)
    if dimension == 2:
        return h1
    h2 = -0.5 * (delta2 * PAULI_Z + e2 * PAULI_X)
    return (np.kron(h1, PAULI_I) + np.kron(PAULI_I, h2)
            - 0.5 * j * np.kron(PAULI_X, PAULI_X))


def propagate(hams, durations, psi0, t: float | None = None) -> np.ndarray:
    """State after the piecewise-constant schedule, or at time ``t`` within it.

    ``hams[k]`` acts for ``durations[k]``; times past the end give the final state.
    """
    psi = np.asarray(psi0, dtype=complex)
    elapsed = 0.0
    for h, dur in zip(hams, durations):
        step = dur if t is None else min(dur, max(t - elapsed, 0.0))
        if step > 0.0:
            psi = scipy.linalg.expm(-1j * h * step) @ psi
        elapsed += dur
        if t is not None and t <= elapsed:
            break
    return psi


def ground(dimension: int) -> np.ndarray:
    psi = np.zeros(dimension, dtype=complex)
    psi[0] = 1.0
    return psi


def single_pulse_population(a, delta: float, tau: float, t):
    """Flip probability a^2/W^2 sin^2(W min(t, tau)/2), W = sqrt(a^2 + delta^2).

    Free precession after the pulse leaves the populations unchanged.
    """
    a = np.asarray(a, dtype=float)[:, None]
    tt = np.minimum(np.asarray(t, dtype=float), tau)[None, :]
    w = np.sqrt(a * a + delta * delta)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(w > 0, (a / w) ** 2 * np.sin(0.5 * w * tt) ** 2, 0.0)
    return p


def coupler_population(j, delta: float, tau: float, t):
    """|dd> -> |uu> probability J^2/W^2 sin^2(W min(t, tau)/2), W = sqrt(J^2 + 4 delta^2).

    Both qubits share the gap delta; populations are constant after the pulse.
    """
    j = np.asarray(j, dtype=float)[:, None]
    tt = np.minimum(np.asarray(t, dtype=float), tau)[None, :]
    w = np.sqrt(j * j + 4.0 * delta * delta)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(w > 0, (j / w) ** 2 * np.sin(0.5 * w * tt) ** 2, 0.0)
    return p


def power_balance_velocity(i_b: float, alpha: float) -> float:
    """Steady fluxon velocity 1/sqrt(1 + (4 alpha / (pi i_b))^2) (McLaughlin-Scott)."""
    return 1.0 / math.sqrt(1.0 + (4.0 * alpha / (math.pi * i_b)) ** 2)


def _lindblad_rhs(rho, h, gamma, gamma_phi):
    out = -1j * (h @ rho - rho @ h)
    if gamma:
        n_up = RAISE @ LOWER
        out = out + gamma * (LOWER @ rho @ RAISE - 0.5 * (n_up @ rho + rho @ n_up))
    if gamma_phi:
        out = out + gamma_phi * (PAULI_Z @ rho @ PAULI_Z - rho)
    return out


def lindblad_evolve(rho0, hams, durations, gamma: float, gamma_phi: float,
                    max_phase: float = 1e-3) -> np.ndarray:
    """Density matrix after the schedule by fixed-step RK4.

    Each step covers at most ``max_phase`` radians of the fastest rate in its
    segment.  The master equation is linear with constant coefficients per
    segment, so n RK4 steps equal the n-th power of one step's amplification
    matrix 1 + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, with L read off the
    right-hand side applied to the four matrix units.
    """
    vec = np.asarray(rho0, dtype=complex).reshape(4)
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    for h, dur in zip(hams, durations):
        gen = np.column_stack([_lindblad_rhs(u, h, gamma, gamma_phi).reshape(4)
                               for u in units])
        rate = float(np.max(np.abs(np.linalg.eigvals(gen))))
        n = max(1, int(math.ceil(dur * rate / max_phase)))
        x = gen * (dur / n)
        x2 = x @ x
        step = np.eye(4) + x + x2 / 2.0 + x2 @ x / 6.0 + x2 @ x2 / 24.0
        vec = np.linalg.matrix_power(step, n) @ vec
    return vec.reshape(2, 2)


def ramsey_schedule(amplitude: float, delta: float, tau: float, tau_r: float):
    """Pulse, free delay, pulse: (hamiltonians, durations) for one qubit."""
    pulse = hamiltonian(delta, amplitude)
    hams, durs = [pulse], [tau]
    if tau_r > 0:
        hams.append(hamiltonian(delta, 0.0))
        durs.append(tau_r)
    hams.append(pulse)
    durs.append(tau)
    return hams, durs


def plateau_duration(samples, dt: float, level: float = 0.5) -> float:
    """Width at ``level`` of the peak |sample|, crossings linearly interpolated."""
    s = np.abs(np.asarray(samples, dtype=float))
    peak = float(s.max())
    if peak == 0.0:
        return 0.0
    thr = level * peak
    above = np.nonzero(s >= thr)[0]
    first, last = int(above[0]), int(above[-1])
    rise = first - (s[first] - thr) / (s[first] - s[first - 1]) if first > 0 else float(first)
    fall = (last + (s[last] - thr) / (s[last] - s[last + 1])
            if last < len(s) - 1 else float(last))
    return (fall - rise) * dt
