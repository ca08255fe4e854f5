"""Closed-form single-qubit evolution for rectangular pulses.

Two drive families are covered:

* carrier-modulated "Rabi" pulses analysed in the rotating frame (RWA), and
* unmodulated unipolar rectangular pulses treated exactly in the lab frame.

For a constant Hamiltonian ``H = -1/2 (D sigma_z + a sigma_x)`` the evolution
over a time tau is ``U = cos(r) I - i sin(r)/r * (H tau)`` with
``r = (tau/2) sqrt(D^2 + a^2)``; the closed forms below are specializations
of this together with free-precession factors for the gaps between pulses.

A note on the flip probability of a resonant carrier drive: the widely quoted
form ``W = A^2/Omega_R^2 sin^2(tau Omega_R / 2)`` exceeds 1 at resonance once
``Omega_R = A/2``; the numerator consistent with the RWA evolution operator is
``(A/2)^2``, which is what ``rabi_probability_rwa`` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ID2, SX, SZ

# below this rotation angle the sin(r)/r factor is replaced by its limit
_SMALL_ANGLE = 1e-8


@dataclass(frozen=True)
class RectPulse:
    """Unipolar rectangular pulse: amplitude (rad/ns) held for duration (ns)."""

    amplitude: float
    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.duration)):
            raise ValueError("pulse parameters must be finite")
        if self.duration < 0:
            raise ValueError(f"pulse duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class RabiPulse:
    """Carrier-modulated pulse: eps(t) = amplitude * cos(carrier * t) for 0 <= t <= duration."""

    amplitude: float
    carrier: float
    duration: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.amplitude, self.carrier, self.duration)):
            raise ValueError("pulse parameters must be finite")
        if self.duration < 0:
            raise ValueError(f"pulse duration must be >= 0, got {self.duration}")
        if self.carrier < 0:
            raise ValueError(f"carrier frequency must be >= 0, got {self.carrier}")


@dataclass(frozen=True)
class PulsePair:
    """Two unipolar pulses of shared amplitude separated by a delay."""

    tau1: float
    tau2: float
    tau_r: float
    amplitude: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.tau1, self.tau2, self.tau_r, self.amplitude)):
            raise ValueError("pulse parameters must be finite")
        if min(self.tau1, self.tau2, self.tau_r) < 0:
            raise ValueError("all durations must be >= 0")


def _rotation_unitary(zcoef: float, xcoef: float, tau: float) -> np.ndarray:
    # exp(-i H tau) for H = -1/2 (zcoef sigma_z + xcoef sigma_x)
    r = 0.5 * tau * math.hypot(zcoef, xcoef)
    if r < _SMALL_ANGLE:
        sinc = 1.0 - r * r / 6.0
    else:
        sinc = math.sin(r) / r
    gen = -0.5 * tau * (zcoef * SZ + xcoef * SX)  # = H * tau
    return math.cos(r) * ID2 - 1j * sinc * gen


def rabi_unitary_rwa(p: RabiPulse, delta: float) -> np.ndarray:
    """Rotating-frame evolution operator of a rectangular-envelope Rabi pulse."""
    return _rotation_unitary(delta - p.carrier, 0.5 * p.amplitude, p.duration)


def rabi_probability_rwa(p: RabiPulse, delta: float) -> float:
    """RWA flip probability ``(A/2)^2/Omega_R^2 sin^2(tau Omega_R / 2)``."""
    half_a = 0.5 * p.amplitude
    omega_r = math.hypot(delta - p.carrier, half_a)
    if omega_r == 0.0:
        return 0.0
    return (half_a / omega_r) ** 2 * math.sin(0.5 * p.duration * omega_r) ** 2


def unipolar_unitary(p: RectPulse, delta: float) -> np.ndarray:
    """Lab-frame evolution operator of a unipolar rectangular pulse."""
    return _rotation_unitary(delta, p.amplitude, p.duration)


def unipolar_probability(p: RectPulse, delta: float) -> float:
    """Flip probability ``A^2/Omega^2 sin^2(tau Omega / 2)``, Omega = sqrt(Delta^2 + A^2)."""
    omega = math.hypot(delta, p.amplitude)
    if omega == 0.0:
        return 0.0
    return (p.amplitude / omega) ** 2 * math.sin(0.5 * p.duration * omega) ** 2


def unipolar_transfer_amplitudes(p: RectPulse, delta: float) -> tuple[complex, complex]:
    """Amplitudes (psi0, psi1) after a pulse applied to the ground state |0>.

    psi0 = cos(k tau) + i Delta/Omega sin(k tau), psi1 = i A/Omega sin(k tau),
    with k = Omega/2; these are the first column of ``unipolar_unitary``.
    """
    omega = math.hypot(delta, p.amplitude)
    k = 0.5 * omega
    if omega == 0.0:
        return (1.0 + 0.0j, 0.0j)
    s = math.sin(k * p.duration)
    psi0 = math.cos(k * p.duration) + 1j * (delta / omega) * s
    psi1 = 1j * (p.amplitude / omega) * s
    return (psi0, psi1)


def free_evolution_unitary(duration: float, phase_rate: float) -> np.ndarray:
    """Free-precession operator ``exp(-i H t)`` with ``H = -1/2 phase_rate sigma_z``.

    In the lab frame ``phase_rate`` is the qubit gap Delta; the resulting
    diagonal is ``(e^{+i rate t/2}, e^{-i rate t/2})``, which is the sign the
    lab-frame propagation with eps = 0 produces.
    """
    if not (duration >= 0 and math.isfinite(duration)):
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    phase = 0.5 * phase_rate * duration
    return np.diag([np.exp(1j * phase), np.exp(-1j * phase)])


def ramsey_probability_unipolar(pair: PulsePair, delta: float) -> float:
    """Flip probability for two equal-duration unipolar pulses separated by tau_r.

    W = 4 A^2/Omega^2 sin^2(Omega tau/2)
        * (cos(Omega tau/2) cos(Delta tau_r/2) - Delta/Omega sin(Delta tau_r/2) sin(Omega tau/2))^2
    """
    if pair.tau1 != pair.tau2:
        raise ValueError("closed form requires equal pulse durations; "
                         "use compose_pulse_sequence for unequal pulses")
    return float(_ramsey_unipolar(pair.amplitude, pair.tau1, pair.tau_r, delta))


def ramsey_probabilities_unipolar(amplitude: float, tau: float, tau_r_values,
                                  delta: float) -> np.ndarray:
    """:func:`ramsey_probability_unipolar` at every delay of ``tau_r_values``, for two
    pulses of duration ``tau``, as one array expression."""
    tau_r = np.asarray(tau_r_values, dtype=float)
    if not (tau >= 0 and math.isfinite(tau) and np.all(tau_r >= 0) and np.isfinite(tau_r).all()):
        raise ValueError("all durations must be finite and >= 0")
    return _ramsey_unipolar(amplitude, tau, tau_r, delta)


def _ramsey_unipolar(amplitude, tau, tau_r, delta):
    # the one copy of the formula: tau_r is a float or an array of delays >= 0
    omega = math.hypot(delta, amplitude)
    if omega == 0.0:
        return np.zeros_like(tau_r)
    half = 0.5 * omega * tau
    fr = 0.5 * delta * tau_r
    bracket = math.cos(half) * np.cos(fr) - (delta / omega) * np.sin(fr) * math.sin(half)
    return 4.0 * (amplitude / omega) ** 2 * math.sin(half) ** 2 * bracket**2


def compose_pulse_sequence(elements, delta: float) -> np.ndarray:
    """Ordered product of pulse and free-evolution factors, first element acting first.

    ``elements`` is a list of RectPulse instances and/or bare gap durations (floats).
    """
    u = ID2.copy()
    for el in elements:
        if isinstance(el, RectPulse):
            u = unipolar_unitary(el, delta) @ u
        else:
            u = free_evolution_unitary(float(el), delta) @ u
    return u
