"""Two-qubit register analytics.

Everything here is derived uniformly from the 4x4 register Hamiltonian built
by :func:`picopulse.core.make_two_qubit_hamiltonian`, which keeps the overall
-1/2 prefactor.  Commonly quoted closed forms for the coupler-only problem
drop that prefactor (their eigenvalues and sine arguments are a factor of 2
larger); where useful, a ``convention="printed"`` adapter evaluates the
prefactor-dropped variant so both can be compared against the numeric
propagator.

The coupler kick operators use the sign convention in which the short-kick
matrix has ``-i g`` on the antidiagonal (g = J tau1 / 2).  Relative to the
register Hamiltonian this flips the sign of J; the two conventions are
related by a local sigma_z rotation, so every population is identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import hermitian_eigendecomposition, make_two_qubit_hamiltonian

#: hard limit on J*tau1 for the first-order kick matrix
FIRST_ORDER_KICK_LIMIT = 0.2
_FIRST_ORDER_KICK_WARN = 0.1


@dataclass(frozen=True)
class ThreeStageSpec:
    """Kick / drive / kick protocol: coupling J for tau1, drives (a1, a2) for tau2, coupling again."""

    tau1: float
    tau2: float
    j: float
    a1: float
    a2: float

    def __post_init__(self):
        if self.tau1 < 0 or self.tau2 < 0:
            raise ValueError("stage durations must be >= 0")
        if not all(math.isfinite(v) for v in (self.j, self.a1, self.a2)):
            raise ValueError("stage parameters must be finite")


def coupler_only_eigensystem(delta: float, j: float):
    """Eigenvalues (ascending) and eigenvector columns for the coupler-only Hamiltonian.

    The Hamiltonian is block diagonal in {|dd>, |uu>} vs {|ud>, |du>}; the
    middle-block eigenvectors are (0, -+1, 1, 0)/sqrt(2) and the outer-block
    gap is sqrt(J^2 + 4 Delta^2).  For J = 0 the closed form is singular and a
    dense eigendecomposition is used instead.
    """
    if j == 0.0:
        return hermitian_eigendecomposition(
            make_two_qubit_hamiltonian(delta, delta, 0.0, 0.0, 0.0))
    gap = math.hypot(j, 2.0 * delta)
    pairs = []
    # outer block on components (0, 3)
    for val, w in ((-0.5 * gap, (j, gap - 2.0 * delta)),
                   (0.5 * gap, (j, -(gap + 2.0 * delta)))):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = w
        pairs.append((val, v / np.linalg.norm(v)))
    # middle block on components (1, 2)
    inv = 1.0 / math.sqrt(2.0)
    vplus = np.array([0.0, inv, inv, 0.0], dtype=complex)
    vminus = np.array([0.0, -inv, inv, 0.0], dtype=complex)
    pairs.append((-0.5 * j, vplus if j > 0 else vminus))
    pairs.append((0.5 * j, vminus if j > 0 else vplus))
    pairs.sort(key=lambda p: p[0])
    vals = np.array([p[0] for p in pairs])
    vecs = np.column_stack([p[1] for p in pairs])
    return vals, vecs


def coupler_flip_probability(delta: float, j: float, tau: float,
                             convention: str = "derived") -> float:
    """|dd> -> |uu> probability after switching on the coupler for time tau.

    ``derived`` uses the -1/2-prefactored Hamiltonian,
    ``W = J^2/(J^2 + 4 Delta^2) sin^2(tau sqrt(J^2 + 4 Delta^2) / 2)``;
    ``printed`` evaluates the prefactor-dropped variant without the /2 inside
    the sine.  The numeric propagator agrees with ``derived``.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    gap = math.hypot(j, 2.0 * delta)
    if gap == 0.0:
        return 0.0
    amp2 = (j / gap) ** 2
    if convention == "derived":
        return amp2 * math.sin(0.5 * tau * gap) ** 2
    if convention == "printed":
        return amp2 * math.sin(tau * gap) ** 2
    raise ValueError(f"unknown convention {convention!r}")


def _evolution(vals, vecs, t: float) -> np.ndarray:
    # this oracle's own exp(-iHt), apart from the dynamics code that it checks
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def spectral_evolution_unitary(h, t: float) -> np.ndarray:
    """``U = sum_k |v_k> exp(-i lambda_k t) <v_k|`` via eigendecomposition."""
    return _evolution(*hermitian_eigendecomposition(h), t)


def coupler_kick_unitary(j: float, tau1: float, first_order: bool = False) -> np.ndarray:
    """Short coupler kick with g = J tau1 / 2.

    The first-order form is the identity with -i g on the antidiagonal; it is
    not exactly unitary (defect O(g^2)) and is rejected for J tau1 > 0.2.
    The exact form is the spectral evolution of the kick Hamiltonian.
    """
    if tau1 < 0:
        raise ValueError(f"tau1 must be >= 0, got {tau1}")
    g = 0.5 * j * tau1
    if first_order:
        area = abs(j * tau1)
        if area > FIRST_ORDER_KICK_LIMIT:
            raise ValueError(
                f"J*tau1 = {area:.3g} exceeds {FIRST_ORDER_KICK_LIMIT} for the first-order kick")
        if area > _FIRST_ORDER_KICK_WARN:
            warnings.warn(f"J*tau1 = {area:.3g} is large for the first-order kick",
                          stacklevel=2)
        u = np.eye(4, dtype=complex)
        anti = -1j * g
        u[0, 3] = u[1, 2] = u[2, 1] = u[3, 0] = anti
        return u
    # sign of J flipped so the kick expands as I - i g (sx x sx) + O(g^2)
    h_kick = make_two_qubit_hamiltonian(0.0, 0.0, 0.0, 0.0, -j)
    return spectral_evolution_unitary(h_kick, tau1)


def _single_qubit_eigvec(delta: float, a: float, sign: int) -> np.ndarray:
    # eigenvector of -1/2 (delta sz + a sx) for eigenvalue sign * E/2
    e = math.hypot(a, delta)
    if sign < 0:
        w = np.array([a, e - delta], dtype=complex)
    else:
        w = np.array([a, -(e + delta)], dtype=complex)
    return w / np.linalg.norm(w)


def drive_stage_eigensystem(delta: float, a1: float, a2: float):
    """Eigenvalues (ascending) and eigenvector columns for the J = 0 drive stage.

    Eigenvalues are +-|E1 - E2|/2, +-(E1 + E2)/2 with E_i = sqrt(A_i^2 + Delta^2);
    eigenvectors are tensor products of the single-qubit eigenvectors.  The
    closed form is singular for A_i = 0 or E1 = E2 and falls back to a dense
    eigendecomposition there.
    """
    e1 = math.hypot(a1, delta)
    e2 = math.hypot(a2, delta)
    if a1 == 0.0 or a2 == 0.0 or abs(e1 - e2) < 1e-12 * max(e1, e2, 1.0):
        return hermitian_eigendecomposition(
            make_two_qubit_hamiltonian(delta, delta, a1, a2, 0.0))
    pairs = []
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            val = 0.5 * (s1 * e1 + s2 * e2)
            vec = np.kron(_single_qubit_eigvec(delta, a1, s1),
                          _single_qubit_eigvec(delta, a2, s2))
            pairs.append((val, vec))
    pairs.sort(key=lambda p: p[0])
    vals = np.array([p[0] for p in pairs])
    vecs = np.column_stack([p[1] for p in pairs])
    return vals, vecs


def drive_stage_unitary(delta: float, a1: float, a2: float, tau2: float) -> np.ndarray:
    """Evolution operator of the drive stage (both qubits driven, J = 0)."""
    if tau2 < 0:
        raise ValueError(f"tau2 must be >= 0, got {tau2}")
    return _evolution(*drive_stage_eigensystem(delta, a1, a2), tau2)


def three_stage_unitary(spec: ThreeStageSpec, delta: float) -> np.ndarray:
    """Composition U3 U2 U1 with U3 = U1 (kick, drive, kick) and exact kicks."""
    u1 = coupler_kick_unitary(spec.j, spec.tau1)
    u2 = drive_stage_unitary(delta, spec.a1, spec.a2, spec.tau2)
    return u1 @ u2 @ u1


def three_stage_probability(spec: ThreeStageSpec, delta: float) -> float:
    """|dd> -> |uu> probability of the kick/drive/kick protocol (exact kicks)."""
    u = three_stage_unitary(spec, delta)
    return float(abs(u[3, 0]) ** 2)


def three_stage_probability_printed(spec: ThreeStageSpec, delta: float) -> float:
    """Scalar closed form with coefficients D1, D2, D3; diagnostic only.

    The grouping of the outer square in this form is inconsistent with its own
    small-Delta limit, so the operator composition is the normative result and
    this value is reported for comparison, never asserted against.
    """
    e1 = math.hypot(spec.a1, delta)
    e2 = math.hypot(spec.a2, delta)
    jt = spec.j * spec.tau1
    d1 = 4.0 * e1**2 * e2**2 * jt**2
    d2 = 4.0 * jt**2 * delta**4 + (-2.0 + jt**2) * spec.a1**2 * spec.a2**2
    d3 = 2.0 * e1 * e2 * jt**2 * delta**2
    c1 = math.cos(0.5 * e1 * spec.tau2) ** 2
    c2 = math.cos(0.5 * e2 * spec.tau2) ** 2
    s1 = math.sin(0.5 * e1 * spec.tau2) ** 2
    s2 = math.sin(0.5 * e2 * spec.tau2) ** 2
    inner = (d1 * c1 * c2 + d2 * s1 * s2
             - d3 * math.sin(e1 * spec.tau2) * math.sin(e2 * spec.tau2))
    return inner**2 / (4.0 * e1**2 * e2**2) ** 2


def three_stage_probability_asymptotic(spec: ThreeStageSpec, delta: float) -> float:
    """Small-Delta limit: ``J^2 tau1^2 cos^2 cos^2 + 1/4 (-2 + J^2 tau1^2)^2 sin^2 sin^2``."""
    amin = min(abs(spec.a1), abs(spec.a2))
    if amin > 0 and abs(delta) > 0.1 * amin:
        warnings.warn(
            f"delta = {delta:.3g} is not small against the drive amplitudes; "
            "the asymptotic form loses accuracy", stacklevel=2)
    e1 = math.hypot(spec.a1, delta)
    e2 = math.hypot(spec.a2, delta)
    jt2 = (spec.j * spec.tau1) ** 2
    c1 = math.cos(0.5 * e1 * spec.tau2) ** 2
    c2 = math.cos(0.5 * e2 * spec.tau2) ** 2
    s1 = math.sin(0.5 * e1 * spec.tau2) ** 2
    s2 = math.sin(0.5 * e2 * spec.tau2) ** 2
    return jt2 * c1 * c2 + 0.25 * (-2.0 + jt2) ** 2 * s1 * s2
