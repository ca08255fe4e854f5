"""The batched propagator core against a per-segment reference kept here.

The reference builds every segment Hamiltonian with Kronecker products and
exponentiates it with ``scipy.linalg.expm``, one segment at a time.  Sums
and eigensolver phases differ between the two paths, so propagators and
states are compared to 1e-12; the Hamiltonians themselves to 1e-15.
"""

import sys
import tracemalloc

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
        single = (core.make_single_qubit_hamiltonian(schedule.delta1, seg.e1)
                  if schedule.dimension == 2 else
                  core.make_two_qubit_hamiltonian(schedule.delta1, schedule.delta2,
                                                  seg.e1, seg.e2, seg.j))
        assert np.max(np.abs(single - ref)) <= 1e-15


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
    batch = dynamics.evolve_unitaries(np.zeros((3, 0, 4, 4)), np.zeros(0))
    assert np.array_equal(batch, np.broadcast_to(np.eye(4), (3, 4, 4)))
    traj = dynamics.evolve_state(schedule, psi0, 0.1)
    assert np.array_equal(traj.states, [psi0])
    assert np.array_equal(populations_at(schedule, psi0, [0.3, 0.0]),
                          np.abs([psi0, psi0]) ** 2)


@st.composite
def shared_duration_stacks(draw):
    """One to four schedules of one dimension that share their durations (maybe none)."""
    dim = draw(st.sampled_from((2, 4)))
    n = draw(st.integers(0, 5))
    lengths = [draw(durations) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        drives = [[draw(controls), draw(controls), draw(controls)] if dim == 4
                  else [draw(controls), 0.0, 0.0] for _ in range(n)]
        rows.append(Schedule.from_arrays(draw(controls), lengths, np.reshape(drives, (n, 3)),
                                         delta2=draw(controls) if dim == 4 else 0.0,
                                         dimension=dim))
    return rows


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_sampler_matches_per_row_sampling(data):
    rows = data.draw(shared_duration_stacks())
    first = rows[0]
    psi0 = data.draw(initial_states(first.dimension))
    total = first.total_duration
    free = data.draw(st.lists(st.floats(-0.5, 1.5 * total + 0.1), max_size=8))
    edges = [-0.2, total + 0.3, total + 1e-13]
    times = data.draw(st.permutations(free + list(first.boundaries()) + edges))
    hams = np.array([row.hamiltonians() for row in rows])
    states = dynamics.sample_states(hams, first.durations(), psi0, times)
    assert states.shape == (len(rows), len(times), first.dimension)
    nested = dynamics.sample_states(hams[None], first.durations(), psi0, times)
    assert nested.shape == (1,) + states.shape
    assert np.max(np.abs(nested[0] - states)) <= 1e-12
    units = dynamics.evolve_unitaries(hams, first.durations())
    for row, got, unit in zip(rows, states, units):
        assert np.max(np.abs(unit - dynamics.evolve_unitary(row))) <= 1e-12
        alone = dynamics.sample_states(row.hamiltonians(), row.durations(), psi0, times)
        assert np.max(np.abs(got - alone)) <= 1e-12
        assert np.max(np.abs(got - reference_states(row, psi0, times))) <= 1e-12


def test_sampler_durations_must_match_the_hamiltonians():
    hams = core.hamiltonians([(1.0, 2.0), (1.0, 0.0)])
    with pytest.raises(ValueError, match="durations"):
        dynamics.sample_states(hams, [0.1], [1.0, 0.0], [0.05])
    with pytest.raises(ValueError, match="durations"):
        dynamics.sample_states(hams, [0.1, -0.2], [1.0, 0.0], [0.05])


def test_non_finite_detuning_rejected():
    for schedule in (Schedule(delta1=np.nan, segments=(Segment(0.1, e1=1.0),)),
                     Schedule(delta1=1.0, delta2=np.inf, dimension=4,
                              segments=(Segment(0.1, j=1.0),))):
        with pytest.raises(ValueError):
            dynamics.evolve_unitary(schedule)


# ---------------------------------------------------------------------------
# sweeps and delay scans against per-cell expm products

from picopulse import protocols  # noqa: E402
from picopulse.protocols import Axis, SweepSpec  # noqa: E402

times_axis_start = st.floats(0.0, 1.0, allow_nan=False)

# kind -> (runner, fixed fields, schedule of (fixed, axis1 value, tail),
#          basis index of each returned grid for a spec)
SAMPLED = {
    "single": (protocols.sweep_single_pulse, ("delta", "tau"),
               lambda f, a, tail: protocols.single_pulse_schedule(a, f["tau"], f["delta"],
                                                                  tail=tail),
               lambda spec: [spec.observable]),
    "pair": (protocols.sweep_pulse_pair, ("delta", "tau1", "tau2", "tau_r"),
             lambda f, a, tail: protocols.pulse_pair_schedule(a, f["tau1"], f["tau2"],
                                                              f["tau_r"], f["delta"],
                                                              tail=tail),
             lambda spec: [spec.observable]),
    "coupler": (protocols.sweep_coupler_pulse, ("delta", "tau"),
                lambda f, j, tail: protocols.coupler_pulse_schedule(f["delta"], j, f["tau"],
                                                                    tail=tail),
                lambda spec: [3]),
    "register-pair": (protocols.sweep_register_pair,
                      ("delta1", "delta2", "j", "tau1", "tau2", "tau_r"),
                      lambda f, a, tail: protocols.register_pair_schedule(
                          f["delta1"], f["delta2"], f["j"], a, a, f["tau1"], f["tau2"],
                          f["tau_r"], tail=tail),
                      lambda spec: [0, 1, 2, 3]),
}


@st.composite
def axes(draw, start):
    lo = draw(start)
    return Axis("x", lo, lo + draw(st.floats(1e-3, 1.0)), draw(st.integers(2, 4)))


def ground(dim):
    return np.eye(dim, dtype=complex)[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sampled_sweeps_match_per_cell_expm(data):
    kind = data.draw(st.sampled_from(sorted(SAMPLED)))
    runner, names, build, indices = SAMPLED[kind]
    fixed = {k: data.draw(durations if k.startswith("tau") else controls) for k in names}
    spec = SweepSpec(axis1=data.draw(axes(controls)), axis2=data.draw(axes(times_axis_start)),
                     fixed=fixed, observable=data.draw(st.integers(0, 1)))
    grids = runner(spec)
    grids = grids if isinstance(grids, tuple) else (grids,)
    times = spec.axis2.values()
    for i, value in enumerate(spec.axis1.values()):
        # a tail past the last time: populations up to it do not depend on its length
        sched = build(fixed, value, float(times[-1]) + 1.0)
        ref = np.abs(reference_states(sched, ground(sched.dimension), times)) ** 2
        for grid, b in zip(grids, indices(spec), strict=True):
            assert np.max(np.abs(grid.values[i] - ref[:, b])) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(controls, controls, durations, axes(controls), axes(st.floats(1e-3, 0.5)))
def test_three_stage_sweep_matches_per_cell_expm(delta, j, tau1, axis1, axis2):
    grid = protocols.sweep_three_stage(
        SweepSpec(axis1, axis2, fixed={"delta": delta, "j": j, "tau1": tau1}))
    for i, a in enumerate(axis1.values()):
        for k, tau2 in enumerate(axis2.values()):
            u = reference_unitary(protocols.three_stage_schedule(tau1, tau2, j, a, a, delta))
            assert abs(grid.values[i, k] - abs(u[3, 0]) ** 2) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(controls, controls, durations,
       st.lists(st.one_of(st.just(0.0), durations), min_size=1, max_size=6))
def test_ramsey_delay_scan_matches_per_delay_expm(amplitude, delta, tau, delays):
    rows = protocols.ramsey_delay_scan(amplitude, delta, tau, delays)
    assert np.array_equal(rows[:, 0], delays)
    for (_, w, _), tau_r in zip(rows, delays):
        u = reference_unitary(protocols.pulse_pair_schedule(amplitude, tau, tau, tau_r, delta))
        assert abs(w - abs(u[1, 0]) ** 2) <= 1e-12


THREE_STAGE_FIXED = {"delta": 1.5, "j": 0.7, "tau1": 0.05}


def test_batched_scans_make_eigh_calls_independent_of_axis1(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(np.shape(h)) or eigh(h))
    for n in (5, 9):  # every amplitude's kick and drive in one stack
        calls.clear()
        spec = SweepSpec(Axis("a", 1.0, 30.0, n), Axis("tau2", 0.01, 0.3, 7),
                         fixed=THREE_STAGE_FIXED)
        protocols.sweep_three_stage(spec)
        assert calls == [(n, 2, 4, 4)]
    for n in (30, 301):  # one eigh of the pulse and the free segment, whatever n
        calls.clear()
        protocols.ramsey_delay_scan(40.0, 1.5, 0.02, np.linspace(0.0, 8.0, n))
        assert calls == [(2, 2, 2)]
    for runner, names, build, _ in SAMPLED.values():  # one stacked eigh over all rows
        calls.clear()
        fixed = {k: 0.05 if k.startswith("tau") else 1.5 for k in names}
        runner(SweepSpec(Axis("a", 1.0, 30.0, 5), Axis("t", 0.0, 0.3, 7), fixed=fixed))
        sched = build(fixed, 1.0, 1.0)
        assert calls == [(5, len(sched.segments), sched.dimension, sched.dimension)]


def test_sweeps_build_a_fixed_number_of_schedules(monkeypatch):
    """No sweep builds a schedule per axis1 value: its Hamiltonians come from one template."""
    built = []
    init, from_arrays = Schedule.__init__, Schedule.from_arrays.__func__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_from_arrays(cls, *args, **kwargs):
        built.append(1)
        return from_arrays(cls, *args, **kwargs)

    monkeypatch.setattr(Schedule, "__init__", counted_init)
    monkeypatch.setattr(Schedule, "from_arrays", classmethod(counted_from_arrays))
    runners = [(runner, {k: 0.05 if k.startswith("tau") else 1.5 for k in names})
               for runner, names, _, _ in SAMPLED.values()]
    runners.append((protocols.sweep_three_stage, THREE_STAGE_FIXED))
    for runner, fixed in runners:
        counts = []
        for n in (3, 8):
            built.clear()
            runner(SweepSpec(Axis("a", 1.0, 30.0, n), Axis("t", 0.01, 0.3, 7), fixed=fixed))
            counts.append(len(built))
        assert counts[0] == counts[1], (runner.__name__, counts)


def test_three_stage_sweep_builds_no_per_cell_propagators():
    """The traced peak of a 40x60 three-stage sweep stays under 1 MB; a per-cell
    (40, 60, 3, 4, 4) propagator stack alone would take 1.8 MB."""
    spec = SweepSpec(Axis("a", 3.0, 125.0, 40), Axis("tau2", 0.005, 0.15, 60),
                     fixed={"delta": 1.57, "j": 0.3, "tau1": 0.02})
    protocols.sweep_three_stage(spec)  # first call imports and caches outside the trace
    tracemalloc.start()
    try:
        protocols.sweep_three_stage(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, peak


def test_sampled_sweeps_build_no_per_sample_propagators():
    """Traced peaks of a 240x120 pair sweep and a 200x120 coupler sweep stay under 6 MB;
    the coupler's per-sample (rows, times, 4, 4) propagators alone would take 6.1 MB."""
    pair = (protocols.sweep_pulse_pair,
            SweepSpec(Axis("a", 3.0, 125.0, 240), Axis("t", 0.01, 3.0, 120),
                      fixed={"delta": 1.57, "tau1": 0.02, "tau2": 0.02, "tau_r": 1.0}))
    coupler = (protocols.sweep_coupler_pulse,
               SweepSpec(Axis("j", 0.06, 6.3, 200), Axis("t", 0.005, 3.0, 120),
                         fixed={"delta": 1.57, "tau": 2.0}))
    for runner, spec in (pair, coupler):
        runner(spec)  # first calls import and cache outside the trace
        tracemalloc.start()
        try:
            runner(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6, (runner.__name__, peak)


@pytest.mark.parametrize("start", [0.0, -0.1])
def test_three_stage_tau2_axis_must_start_above_zero(start):
    spec = SweepSpec(Axis("a", 1.0, 30.0, 3), Axis("tau2", start, 0.3, 4),
                     fixed={"delta": 1.5, "j": 0.7, "tau1": 0.05})
    with pytest.raises(ValueError):
        protocols.sweep_three_stage(spec)


def test_ramsey_pulse_length_must_be_positive():
    with pytest.raises(ValueError):
        protocols.ramsey_delay_scan(40.0, 1.5, 0.0, [0.0, 1.0])


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_batched_durations_must_be_finite_and_non_negative(bad):
    hams = core.hamiltonians([(1.0, 2.0), (1.0, 0.0)])
    identity = dynamics.evolve_unitaries(hams, [[0.0, 0.0]])
    assert identity.shape == (1, 2, 2) and np.max(np.abs(identity - np.eye(2))) <= 1e-15
    with pytest.raises(ValueError):
        dynamics.evolve_unitaries(hams, [[0.1, 0.2], [0.1, bad]])


# ---------------------------------------------------------------------------
# open-system final states against per-segment expm of Kronecker superoperators

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |1> -> |0>
rates = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


def kron_superoperator(h, gamma, gamma_phi):
    """Row-major vec: vec(A rho B) = (A kron B^T) vec(rho)."""
    ndn = SM.conj().T @ SM
    return (-1j * (np.kron(h, I2) - np.kron(I2, h.T))
            + gamma * (np.kron(SM, SM.conj()) - 0.5 * (np.kron(ndn, I2) + np.kron(I2, ndn.T)))
            + gamma_phi * (np.kron(SZ, SZ) - np.eye(4)))


def reference_lindblad_final(hams, durs, rho0, gamma, gamma_phi):
    vec = np.asarray(rho0, dtype=complex).reshape(4)
    for h, dt in zip(hams, durs):
        vec = scipy.linalg.expm(kron_superoperator(h, gamma, gamma_phi) * dt) @ vec
    return vec.reshape(2, 2)


@st.composite
def density_matrices(draw):
    a = np.array([[complex(draw(controls), draw(controls)) for _ in range(2)]
                  for _ in range(2)])
    rho = a @ a.conj().T
    if np.trace(rho).real < 1e-3:
        rho = np.diag([1.0, 0.0]).astype(complex)
    return rho / np.trace(rho).real


@st.composite
def open_schedules(draw):
    """Detuning, drives ``(n_seg,)`` and durations ``(n_seg,)``, some of them zero."""
    n = draw(st.integers(1, 6))
    e1 = np.array([draw(controls) for _ in range(n)])
    lengths = st.lists(st.one_of(st.just(0.0), durations), min_size=n, max_size=n)
    return draw(controls), e1, np.array(draw(lengths))


def qubit_hamiltonians(delta, e1):
    return core.hamiltonians(np.column_stack([np.full(len(e1), delta), e1]))


def assert_physical(rhos):
    rhos = rhos.reshape(-1, 2, 2)
    assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) <= 1e-10
    assert np.min(np.linalg.eigvalsh(rhos)) >= -1e-8


@settings(max_examples=60, deadline=None)
@given(open_schedules(), density_matrices(), rates, rates)
def test_lindblad_finals_match_per_segment_expm(schedule, rho0, gamma, gamma_phi):
    delta, e1, durs = schedule
    hams, lp = qubit_hamiltonians(delta, e1), dynamics.LindbladParams(gamma, gamma_phi)
    # a Schedule leaves out a zero-length segment, which the reference keeps as the identity
    kept = durs > 0
    controls_kept = np.column_stack([e1[kept], np.zeros((int(kept.sum()), 2))])
    sched = Schedule.from_arrays(delta, durs[kept], controls_kept)
    final = dynamics.evolve_lindblad(sched, rho0, lp, 0.1).final
    assert final.shape == (2, 2)
    assert np.max(np.abs(final - reference_lindblad_final(hams, durs, rho0, gamma,
                                                          gamma_phi))) <= 1e-12
    assert_physical(final)


@settings(max_examples=40, deadline=None)
@given(controls, controls, durations, rates, rates,
       st.lists(st.one_of(st.just(0.0), durations), min_size=1, max_size=6))
def test_lindblad_finals_batch_shares_one_hamiltonian_stack(amplitude, delta, tau, gamma,
                                                            gamma_phi, delays):
    """Every delay's final state of a Lindblad scan, against per-segment ``expm``."""
    finals = protocols.lindblad_ramsey_finals(amplitude, delta, tau, delays,
                                              dynamics.LindbladParams(gamma, gamma_phi))
    assert finals.shape == (len(delays), 2, 2)
    hams = qubit_hamiltonians(delta, np.array([amplitude, 0.0, amplitude]))
    for final, tau_r in zip(finals, delays):
        ref = reference_lindblad_final(hams, [tau, tau_r, tau], np.diag([1.0, 0.0]), gamma,
                                       gamma_phi)
        assert np.max(np.abs(final - ref)) <= 1e-12
    assert_physical(finals)


def test_lindblad_finals_of_empty_schedule_is_rho0():
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    lp = dynamics.LindbladParams(0.5, 0.5)
    final = dynamics.evolve_lindblad(Schedule(1.5, []), rho0, lp, 0.1).final
    assert np.array_equal(final, rho0)
    # and scans over no delays give no rows
    assert protocols.lindblad_ramsey_finals(40.0, 1.5, 0.02, [], lp).shape == (0, 2, 2)
    assert protocols.ramsey_delay_scan(40.0, 1.5, 0.02, []).shape == (0, 3)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_lindblad_finals_reject_bad_durations(bad):
    """Both scans check their delays: sampling alone would take one below 0 as 0."""
    with pytest.raises(ValueError, match="durations"):
        protocols.lindblad_ramsey_finals(40.0, 1.5, 0.02, [0.5, 0.0, bad],
                                         dynamics.LindbladParams(0.1, 0.1))
    with pytest.raises(ValueError, match="durations"):
        protocols.ramsey_delay_scan(40.0, 1.5, 0.02, [0.5, 0.0, bad])


def count_eig_and_expm(monkeypatch):
    """Record the shape of every ``np.linalg.eig`` and ``scipy.linalg.expm`` call."""
    calls = {"eig": [], "expm": []}
    for module, name in ((np.linalg, "eig"), (scipy.linalg, "expm")):
        def counted(a, _f=getattr(module, name), _name=name):
            calls[_name].append(np.shape(a))
            return _f(a)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_lindblad_scan_makes_one_stacked_eig(monkeypatch):
    """One ``eig`` of the pulse's and the free segment's superoperators, whatever the delays."""
    calls = count_eig_and_expm(monkeypatch)
    for delays in (np.concatenate([np.linspace(0.0, 8.0, 30), [2.0, 0.0]]),
                   np.linspace(0.0, 8.0, 301)):
        calls["eig"].clear()
        rows = protocols.lindblad_ramsey_scan(40.0, 1.5, 0.02, delays,
                                              dynamics.LindbladParams(0.3, 0.6))
        assert calls == {"eig": [(2, 4, 4)], "expm": []}
        assert np.array_equal(rows[:, 0], delays)


@settings(max_examples=30, deadline=None)
@given(controls, controls, durations, rates, rates,
       st.lists(st.one_of(st.just(0.0), durations), min_size=1, max_size=6))
def test_lindblad_scan_matches_per_delay_evolution(amplitude, delta, tau, gamma, gamma_phi,
                                                   delays):
    lp = dynamics.LindbladParams(gamma, gamma_phi)
    rows = protocols.lindblad_ramsey_scan(amplitude, delta, tau, delays, lp)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    for (_, w), tau_r in zip(rows, delays):
        sched = protocols.pulse_pair_schedule(amplitude, tau, tau, tau_r, delta)
        final = dynamics.evolve_lindblad(sched, rho0, lp, sched.total_duration).final
        assert abs(w - final[1, 1].real) <= 1e-12


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_lindblad_scan_rejects_bad_delays(bad):
    with pytest.raises(ValueError, match="durations"):
        protocols.lindblad_ramsey_scan(40.0, 1.5, 0.02, [0.5, 0.0, bad],
                                       dynamics.LindbladParams(0.3, 0.6))


# ---------------------------------------------------------------------------
# sampled open-system evolution against per-sample expm of Kronecker superoperators

def reference_lindblad_states(schedule, rho0, gamma, gamma_phi, times):
    """Each time from the first segment ending at or after it; the end state past the end."""
    bounds, durs = schedule.boundaries(), schedule.durations()
    out = []
    for t in times:
        vec = np.asarray(rho0, dtype=complex).reshape(4)
        for k, h in enumerate(schedule.hamiltonians()):
            lop = kron_superoperator(h, gamma, gamma_phi)
            if t <= bounds[k + 1] + dynamics.BOUNDARY_TOL:
                vec = scipy.linalg.expm(lop * max(t - bounds[k], 0.0)) @ vec
                break
            vec = scipy.linalg.expm(lop * durs[k]) @ vec
        out.append(vec.reshape(2, 2))
    return np.array(out)


@st.composite
def qubit_schedules(draw):
    n = draw(st.integers(1, 6))
    return Schedule.from_arrays(draw(controls), [draw(durations) for _ in range(n)],
                                [(draw(controls), 0.0, 0.0) for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(qubit_schedules(), density_matrices(), rates, rates, st.floats(0.02, 0.7))
def test_sampled_lindblad_matches_per_sample_expm(schedule, rho0, gamma, gamma_phi,
                                                  sample_dt):
    traj = dynamics.evolve_lindblad(schedule, rho0, dynamics.LindbladParams(gamma, gamma_phi),
                                    sample_dt)
    for b in schedule.boundaries():
        assert np.any(traj.times == b)
    ref = reference_lindblad_states(schedule, rho0, gamma, gamma_phi, traj.times)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12
    assert_physical(traj.states)


@settings(max_examples=40, deadline=None)
@given(qubit_schedules(), initial_states(2), st.floats(0.02, 0.7))
def test_sampled_lindblad_at_zero_rates_is_the_pure_state(schedule, psi0, sample_dt):
    traj = dynamics.evolve_lindblad(schedule, np.outer(psi0, psi0.conj()),
                                    dynamics.LindbladParams(), sample_dt)
    pure = dynamics.evolve_state(schedule, psi0, sample_dt)
    assert np.array_equal(traj.times, pure.times)
    ref = np.einsum("ti,tj->tij", pure.states, pure.states.conj())
    assert np.max(np.abs(traj.states - ref)) <= 1e-12


def test_sampled_lindblad_makes_one_stacked_eig(monkeypatch):
    calls = count_eig_and_expm(monkeypatch)
    schedule = Schedule.from_arrays(1.5, [0.3, 0.2, 0.4], [(20.0, 0, 0), (0, 0, 0),
                                                           (20.0, 0, 0)])
    dynamics.evolve_lindblad(schedule, np.diag([1.0, 0.0]), dynamics.LindbladParams(0.3, 0.6),
                             0.05)
    assert len(calls["eig"]) == 1 and calls["eig"][0][1:] == (4, 4)
    assert calls["expm"] == []


# ---------------------------------------------------------------------------
# the eigenvector exponential and its expm fallback for ill-conditioned superoperators

def relaxation_superoperators(drives):
    """``L`` for resonant drives at gamma = 1, gamma_phi = 0: it is defective (an
    exceptional point) at drive 0.25."""
    hams = core.hamiltonians(np.column_stack([np.zeros(len(drives)), drives]))
    return dynamics.lindblad_superoperator(hams, dynamics.LindbladParams(1.0, 0.0))


def exponentials(lops, dts, starts=None):
    """``exp(L_k dt_k)`` of each superoperator at its own duration, or that applied to
    ``starts[k]``, from one eigenvector exponential."""
    return dynamics._superoperator_exponentials(lops)(np.arange(len(lops)), dts, starts)


def test_generators_at_and_near_an_exceptional_point_take_the_fallback(monkeypatch):
    lops = relaxation_superoperators(0.25 + np.linspace(-1e-7, 1e-7, 21))
    ref = scipy.linalg.expm(lops * 3.0)
    starts = np.random.default_rng(5).normal(size=(21, 4))
    calls = count_eig_and_expm(monkeypatch)
    out = exponentials(lops, np.full(21, 3.0))
    assert calls == {"eig": [(21, 4, 4)], "expm": [(21, 4, 4)]}
    assert np.max(np.abs(out - ref)) <= 1e-12
    states = exponentials(lops, np.full(21, 3.0), starts)
    assert np.max(np.abs(states - (ref @ starts[..., None])[..., 0])) <= 1e-12


def test_generators_around_an_exceptional_point_match_expm(monkeypatch):
    """Some of these fall back and some do not; both sides of the guard stay within 1e-12."""
    lops = relaxation_superoperators(0.25 + np.linspace(-1e-5, 1e-5, 201))
    ref = scipy.linalg.expm(lops * 3.0)
    starts = np.random.default_rng(6).normal(size=(201, 4))
    calls = count_eig_and_expm(monkeypatch)
    out = exponentials(lops, np.full(201, 3.0))
    assert len(calls["expm"]) == 1 and 0 < calls["expm"][0][0] < len(lops)
    assert np.max(np.abs(out - ref)) <= 1e-12
    states = exponentials(lops, np.full(201, 3.0), starts)
    assert np.max(np.abs(states - (ref @ starts[..., None])[..., 0])) <= 1e-12


def test_jordan_blocks_take_the_fallback(monkeypatch):
    """A 4x4 Jordan block, and one in the Pauli basis whose ``eig`` returns an exactly
    singular ``V``: both fall back without a ``LinAlgError``."""
    jordan = 0.5 * np.eye(4, dtype=complex) + np.eye(4, k=1)
    nilpotent = dynamics._PAULI_INV @ np.eye(4, k=1) @ dynamics._PAULI
    pauli_vecs = np.linalg.eig(dynamics._PAULI @ nilpotent @ dynamics._PAULI_INV)[1]
    assert np.linalg.matrix_rank(pauli_vecs) < 4
    gens = np.stack([jordan, nilpotent])
    calls = count_eig_and_expm(monkeypatch)
    out = exponentials(gens, [1.0, 1.0])
    assert calls["expm"] == [(2, 4, 4)]
    assert np.max(np.abs(out - scipy.linalg.expm(gens))) <= 1e-12


def test_zero_generator_gives_exactly_the_identity():
    """A zero superoperator gives exactly the identity at any duration.  A zero duration of
    another one gives ``V V^-1``, the identity to rounding only."""
    lop = dynamics.lindblad_superoperator(core.hamiltonians((1.5, 40.0)),
                                          dynamics.LindbladParams(0.3, 0.6))
    zeros = np.stack([np.zeros((4, 4)), lop * 0.0, lop * -0.0])
    assert np.array_equal(exponentials(zeros, [0.0, 1.0, 2.5]),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert np.max(np.abs(exponentials(lop[None], [0.0]) - np.eye(4))) <= 1e-15


def test_eigenvector_exponential_keeps_the_trace(monkeypatch):
    """``tr exp(L t) rho = tr rho`` to rounding: the Pauli-basis ``eig`` isolates the
    zero eigenvalue of each trace-preserving superoperator (``expm`` reaches ~5e-14 here)."""
    rng = np.random.default_rng(7)
    n = 400
    hams = core.hamiltonians(np.column_stack([rng.uniform(-40, 40, n), rng.uniform(-40, 40, n)]))
    lops = np.stack([dynamics.lindblad_superoperator(h, dynamics.LindbladParams(*g))
                     for h, g in zip(hams, rng.uniform(0.0, 3.0, (n, 2)))])
    calls = count_eig_and_expm(monkeypatch)
    out = exponentials(lops, rng.uniform(0.0, 10.0, n))
    assert calls["expm"] == []
    trace = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.max(np.abs(trace @ out - trace)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(controls, st.lists(controls, min_size=1, max_size=8), rates, rates,
       st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=1, max_size=8))
def test_physical_generators_match_expm(delta, drives, gamma, gamma_phi, dts):
    n = min(len(drives), len(dts))
    lops = dynamics.lindblad_superoperator(qubit_hamiltonians(delta, np.array(drives[:n])),
                                           dynamics.LindbladParams(gamma, gamma_phi))
    dts = np.array(dts[:n])
    ref = scipy.linalg.expm(lops * dts[:, None, None])
    assert np.max(np.abs(exponentials(lops, dts) - ref)) <= 1e-12
    starts = np.broadcast_to(np.array([0.6, 0.2 - 0.1j, 0.2 + 0.1j, 0.4]), (n, 4))
    assert np.max(np.abs(exponentials(lops, dts, starts) - ref @ starts[0])) <= 1e-12


# ---------------------------------------------------------------------------
# one eigenbasis exponential for closed and open systems

def hermitian_exponential(hams):
    """The exponential ``sample_states`` builds: ``G = -iH``, ``left = V``, ``right = V^dag``."""
    return dynamics._unitary_exponential(*np.linalg.eigh(hams))


def generator_stacks():
    """(exponential, starts at each segment start) for a batch of 3 rows of 4 register
    Hamiltonians, and for 4 superoperators whose first sits at the exceptional point."""
    rng = np.random.default_rng(8)
    psis = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    closed = (hermitian_exponential(core.hamiltonians(rng.uniform(-40, 40, (3, 4, 5)))),
              psis / np.linalg.norm(psis, axis=-1, keepdims=True))
    lops = relaxation_superoperators([0.25, 0.1, 40.0, 1.0])
    lops[2] += dynamics.lindblad_superoperator(core.hamiltonians((1.5, 0.0)),
                                               dynamics.LindbladParams(0.0, 0.6))
    rhos = np.array([[0.6, 0.2 - 0.1j, 0.2 + 0.1j, 0.4], [1, 0, 0, 0], [0, 0, 0, 1],
                     [0.5, 0.5j, -0.5j, 0.5]])
    return {"hermitian": closed, "superoperator": (dynamics._superoperator_exponentials(lops),
                                                  rhos)}


@pytest.mark.parametrize("stack", ["hermitian", "superoperator"])
def test_state_form_is_the_matrix_form_applied_to_the_starts(stack):
    exponential, starts = generator_stacks()[stack]
    ks = np.array([0, 0, 1, 2, 2, 2, 3, 3])
    dts = np.array([0.0, 0.3, 0.05, 0.0, 2.5, 0.4, 1.0, 0.2])
    mats = exponential(ks, dts)
    assert mats.shape == starts.shape[:-2] + (8,) + starts.shape[-1:] * 2
    states = exponential(ks, dts, starts)
    assert np.max(np.abs(states - (mats @ starts[..., ks, :, None])[..., 0])) <= 1e-15
    out = np.zeros(starts.shape[:-2] + (9,) + starts.shape[-1:], dtype=complex)
    exponential(ks, dts, starts, out[..., 1:, :])  # written in place
    assert np.array_equal(out[..., 1:, :], states) and not out[..., 0, :].any()


def test_closed_sampling_computes_no_cond_or_inv_and_imports_no_scipy(monkeypatch):
    """``sample_states`` never reaches the open system's set-up or its ``expm`` fallback;
    the superoperator stack shows that the counters and the import block see them."""
    calls = {"cond": 0, "inv": 0}
    for name in calls:
        def counted(a, _f=getattr(np.linalg, name), _name=name):
            calls[_name] += 1
            return _f(a)
        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # any import of it fails
    hams = core.hamiltonians(np.random.default_rng(9).uniform(-40, 40, (3, 4, 5)))
    states = dynamics.sample_states(hams, [0.1, 0.2, 0.0, 0.3], np.eye(4)[0],
                                    np.linspace(-0.1, 0.7, 50))
    assert states.shape == (3, 50, 4) and calls == {"cond": 0, "inv": 0}
    exponential, _ = generator_stacks()["superoperator"]
    assert calls == {"cond": 1, "inv": 1}
    with pytest.raises(ImportError):
        exponential([0], [1.0])
