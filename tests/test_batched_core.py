"""The batched propagator core against a per-segment reference kept here.

The reference builds every segment Hamiltonian with Kronecker products and
exponentiates it with ``scipy.linalg.expm``, one segment at a time.  Sums
and eigensolver phases differ between the two paths, so propagators and
states are compared to 1e-12; the Hamiltonians themselves to 1e-15.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from picopulse import core, dynamics
from picopulse.dynamics import Schedule, Segment
from picopulse.protocols import populations_at

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

controls = st.floats(-40.0, 40.0, allow_nan=False)
durations = st.floats(1e-3, 0.5, allow_nan=False)


def kron_hamiltonian(schedule: Schedule, seg: Segment) -> np.ndarray:
    h1 = -0.5 * (schedule.delta1 * SZ + seg.e1 * SX)
    if schedule.dimension == 2:
        return h1
    h2 = -0.5 * (schedule.delta2 * SZ + seg.e2 * SX)
    return np.kron(h1, I2) + np.kron(I2, h2) - 0.5 * seg.j * np.kron(SX, SX)


def reference_unitary(schedule: Schedule) -> np.ndarray:
    u = np.eye(schedule.dimension, dtype=complex)
    for seg in schedule.segments:
        u = scipy.linalg.expm(-1j * kron_hamiltonian(schedule, seg) * seg.duration) @ u
    return u


def reference_states(schedule: Schedule, psi0, times) -> np.ndarray:
    """Each time from the first segment ending at or after it; the end state past the end."""
    bounds = schedule.boundaries()
    out = []
    for t in times:
        psi = np.asarray(psi0, dtype=complex)
        for k, seg in enumerate(schedule.segments):
            h = kron_hamiltonian(schedule, seg)
            if t <= bounds[k + 1] + dynamics.BOUNDARY_TOL:
                psi = scipy.linalg.expm(-1j * h * max(t - bounds[k], 0.0)) @ psi
                break
            psi = scipy.linalg.expm(-1j * h * seg.duration) @ psi
        out.append(psi)
    return np.array(out).reshape(len(out), schedule.dimension)


@st.composite
def schedules(draw):
    dim = draw(st.sampled_from((2, 4)))
    segs = []
    for _ in range(draw(st.integers(0, 6))):
        if dim == 2:
            segs.append(Segment(draw(durations), e1=draw(controls)))
        else:
            segs.append(Segment(draw(durations), e1=draw(controls), e2=draw(controls),
                                j=draw(controls)))
    return Schedule(delta1=draw(controls), delta2=draw(controls) if dim == 4 else 0.0,
                    dimension=dim, segments=tuple(segs))


@st.composite
def initial_states(draw, dim):
    v = np.array([complex(draw(controls), draw(controls)) for _ in range(dim)])
    if np.linalg.norm(v) < 1e-3:
        v[0] = 1.0
    return v / np.linalg.norm(v)


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_stacked_hamiltonians_match_kronecker_formula(schedule):
    stack = schedule.hamiltonians()
    assert stack.shape == (len(schedule.segments), schedule.dimension, schedule.dimension)
    for h, seg in zip(stack, schedule.segments):
        ref = kron_hamiltonian(schedule, seg)
        assert np.max(np.abs(h - ref)) <= 1e-15
        assert np.max(np.abs(schedule.hamiltonian(seg) - ref)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(controls, controls, controls, controls, controls)
def test_make_hamiltonians_match_kronecker_formula(d1, d2, e1, e2, j):
    h1 = -0.5 * (d1 * SZ + e1 * SX)
    h2 = -0.5 * (d2 * SZ + e2 * SX)
    ref = np.kron(h1, I2) + np.kron(I2, h2) - 0.5 * j * np.kron(SX, SX)
    assert np.max(np.abs(core.make_two_qubit_hamiltonian(d1, d2, e1, e2, j) - ref)) <= 1e-15
    assert np.max(np.abs(core.make_single_qubit_hamiltonian(d1, e1) - h1)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_evolve_unitary_matches_per_segment_expm(schedule):
    u = dynamics.evolve_unitary(schedule)
    assert np.max(np.abs(u - reference_unitary(schedule))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evolve_state_matches_per_segment_expm(data):
    schedule = data.draw(schedules())
    psi0 = data.draw(initial_states(schedule.dimension))
    sample_dt = data.draw(st.floats(0.02, 0.7))
    traj = dynamics.evolve_state(schedule, psi0, sample_dt)
    for b in schedule.boundaries():
        assert np.any(traj.times == b)
    ref = reference_states(schedule, psi0, traj.times)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_populations_at_unsorted_boundary_and_late_times(data):
    schedule = data.draw(schedules())
    psi0 = data.draw(initial_states(schedule.dimension))
    total = schedule.total_duration
    free = data.draw(st.lists(st.floats(0.0, 1.5 * total + 0.1), max_size=8))
    late = [total + 0.3, total + 1e-13]
    times = data.draw(st.permutations(free + list(schedule.boundaries()) + late))
    pops = populations_at(schedule, psi0, np.array(times))
    ref = np.abs(reference_states(schedule, psi0, times)) ** 2
    assert pops.shape == (len(times), schedule.dimension)
    assert np.max(np.abs(pops - ref)) <= 1e-12


def test_zero_segment_schedule_is_the_identity():
    schedule = Schedule(delta1=1.0, delta2=0.5, dimension=4, segments=())
    psi0 = np.array([0.6, 0.0, 0.8j, 0.0])
    assert schedule.hamiltonians().shape == (0, 4, 4)
    assert np.array_equal(dynamics.evolve_unitary(schedule), np.eye(4))
    traj = dynamics.evolve_state(schedule, psi0, 0.1)
    assert np.array_equal(traj.states, [psi0])
    assert np.array_equal(populations_at(schedule, psi0, [0.3, 0.0]),
                          np.abs([psi0, psi0]) ** 2)


def test_non_finite_detuning_rejected():
    for schedule in (Schedule(delta1=np.nan, segments=(Segment(0.1, e1=1.0),)),
                     Schedule(delta1=1.0, delta2=np.inf, dimension=4,
                              segments=(Segment(0.1, j=1.0),))):
        with pytest.raises(ValueError):
            dynamics.evolve_unitary(schedule)
