"""Array-native schedules and the calibration evaluator that builds them.

A schedule built from arrays must be the same schedule, bit for bit, as one
built from ``Segment`` objects, and it must reject the same bad rows with the
same errors.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import picopulse
from picopulse import dynamics, fluxshaper, protocols
from picopulse.dynamics import Schedule, Segment

controls = st.one_of(st.floats(-40.0, 40.0, allow_nan=False), st.sampled_from((0.0, -0.0)))
durations = st.floats(1e-3, 0.5, allow_nan=False)


@st.composite
def schedule_arrays(draw, dim=None):
    """(delta1, delta2, dimension, durations (n,), controls (n, 3)); n may be 0."""
    dim = dim or draw(st.sampled_from((2, 4)))
    n = draw(st.integers(0, 6))
    durs = np.array([draw(durations) for _ in range(n)], dtype=float)
    ctrl = np.zeros((n, 3))
    for k in range(n):
        ctrl[k, 0] = draw(controls)
        if dim == 4:
            ctrl[k, 1:] = draw(controls), draw(controls)
    return draw(controls), draw(controls) if dim == 4 else 0.0, dim, durs, ctrl


def both_ways(delta1, delta2, dim, durs, ctrl):
    segs = tuple(Segment(d, e1, e2, j) for d, (e1, e2, j) in zip(durs.tolist(), ctrl.tolist()))
    return (Schedule.from_arrays(delta1, durs, ctrl, delta2=delta2, dimension=dim),
            Schedule(delta1=delta1, segments=segs, delta2=delta2, dimension=dim))


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(schedule_arrays())
def test_array_and_segment_schedules_are_bit_identical(arrays):
    a, s = both_ways(*arrays)
    assert a.hamiltonians().tobytes() == s.hamiltonians().tobytes()
    assert a.durations().tobytes() == s.durations().tobytes()
    assert dynamics.evolve_unitary(a).tobytes() == dynamics.evolve_unitary(s).tobytes()
    assert a.total_duration == s.total_duration
    assert bits([list(map(float, (g.duration, g.e1, g.e2, g.j))) for g in a.segments]) \
        == bits([list(map(float, (g.duration, g.e1, g.e2, g.j))) for g in s.segments])
    assert len(a.segments) == len(arrays[3])


def test_empty_schedule_from_arrays():
    schedule = Schedule.from_arrays(1.0, [], np.zeros((0, 3)), delta2=0.5, dimension=4)
    assert schedule.segments == () and schedule.total_duration == 0
    assert np.array_equal(dynamics.evolve_unitary(schedule), np.eye(4))


# mostly valid values, so that whole schedules of valid rows come up often
bad_durations = st.one_of(st.sampled_from((0.1, 0.2)),
                          st.sampled_from((0.0, -1.0, math.nan, math.inf, -math.inf)))
bad_controls = st.one_of(st.sampled_from((0.0, -0.0, 1.5)), st.sampled_from((0.0, -2.0)),
                         st.sampled_from((math.nan, math.inf)))


def expected_error(dim, rows):
    """The error a schedule of these rows must raise: each row's own Segment
    error in order, then the dimension, then e2 or j on a qubit."""
    try:
        segs = [Segment(*row) for row in rows]
    except ValueError as exc:
        return str(exc)
    if dim not in (2, 4):
        return f"dimension must be 2 or 4, got {dim}"
    if dim == 2 and any(s.e2 != 0.0 or s.j != 0.0 for s in segs):
        return "dimension-2 schedules may only use the e1 control"
    return None


@settings(max_examples=150, deadline=None)
@example(2, [(0.1, 1.0, 0.0, 0.5)])
@example(3, [(0.1, 1.0, 0.0, 0.0)])
@example(2, [(0.1, 0.0, 0.0, math.nan), (-1.0, 0.0, 0.0, 0.0)])
@given(st.sampled_from((2, 3, 4)), st.lists(st.tuples(bad_durations, bad_controls,
                                                      bad_controls, bad_controls), max_size=4))
def test_validation_raises_the_errors_segments_raised(dim, rows):
    expected = expected_error(dim, rows)
    durs = np.array([r[0] for r in rows], dtype=float)
    ctrl = np.array([r[1:] for r in rows], dtype=float).reshape(-1, 3)
    for build in (lambda: Schedule.from_arrays(1.0, durs, ctrl, dimension=dim),
                  lambda: Schedule(delta1=1.0, segments=[Segment(*r) for r in rows],
                                   dimension=dim)):
        if expected is None:
            build()
        else:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == expected


@settings(max_examples=60, deadline=None)
@given(schedule_arrays(), st.lists(controls, min_size=1, max_size=3))
def test_stacked_controls_give_each_rows_hamiltonians_bit_for_bit(arrays, scales):
    """``hamiltonians(controls)`` over a stack equals each row's own schedule's stack."""
    delta1, delta2, dim, durs, ctrl = arrays
    stack = np.array([s * ctrl for s in scales])
    rows = [Schedule.from_arrays(delta1, durs, c, delta2=delta2, dimension=dim)
            for c in stack]
    assert rows[0].hamiltonians(stack).tobytes() \
        == np.array([r.hamiltonians() for r in rows]).reshape(len(rows), len(durs), dim,
                                                             dim).tobytes()


def test_array_shapes_are_checked():
    with pytest.raises(ValueError, match="shapes"):
        Schedule.from_arrays(1.0, [0.1, 0.2], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="shapes"):
        Schedule.from_arrays(1.0, [0.1, 0.2], [[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="do not match"):
        Schedule.from_arrays(1.0, [0.1], [[1.0, 0.0, 0.0]]).hamiltonians(np.zeros((4, 2, 3)))


def test_schedule_arrays_are_read_only():
    schedule = Schedule.from_arrays(1.0, [0.1], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        schedule.durations()[0] = 5.0
    with pytest.raises(ValueError):
        schedule.controls[0, 0] = 5.0


def test_inversion_demo_diagonalizes_fewer_rows_and_builds_no_segments(monkeypatch):
    """The inversion seed already meets the stop rule: one evaluation plus the
    rounded-parameter check, each one ``eigh`` over the schedule's rows."""
    eigh, calibrate = np.linalg.eigh, protocols.calibrate_pulse
    counts = {"rows": [], "segments": 0, "inside": False}

    def counting_eigh(a, *args, **kwargs):
        if counts["inside"]:
            counts["rows"].append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    def counting_calibrate(*args, **kwargs):
        counts["inside"] = True
        try:
            return calibrate(*args, **kwargs)
        finally:
            counts["inside"] = False

    post_init = Segment.__post_init__

    def counting_post_init(self):
        counts["segments"] += 1
        post_init(self)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(protocols, "calibrate_pulse", counting_calibrate)
    monkeypatch.setattr(Segment, "__post_init__", counting_post_init)
    demo = fluxshaper.end_to_end_demo("inversion")
    n_rows = len(demo.schedule.durations())
    assert demo.iterations == 1 and demo.converged
    assert counts["rows"] == [n_rows, n_rows]
    assert counts["segments"] == 0


def test_cli_import_leaves_out_scipy_optimize():
    """``import picopulse.cli`` loads no scipy module at all, ``scipy.optimize`` included."""
    src = str(Path(picopulse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, picopulse.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
