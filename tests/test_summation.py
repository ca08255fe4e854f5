"""Outputs do not depend on how the interpreter's builtin ``sum`` rounds.

Python 3.12 and later compensate rounding in ``sum`` over floats, while 3.10 and
3.11 add left to right.  The package sums floats with NumPy alone, left to right,
so every interpreter writes the same bytes.  ``math.fsum``, correctly rounded,
stands in here for a compensating ``sum``.
"""

import ast
import builtins
import math
from pathlib import Path

import numpy as np

import picopulse
from picopulse import fluxshaper
from picopulse.dynamics import Schedule, evolve_state


def test_package_calls_no_builtin_sum():
    calls = []
    for path in sorted(Path(picopulse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls


def test_schedule_timeline_is_one_cumulative_sum(monkeypatch):
    """The total is the last boundary, so the sample grid gains no near-duplicate end."""
    monkeypatch.setattr(builtins, "sum", math.fsum)
    schedule = Schedule.from_arrays(1.0, [0.1] * 10, np.zeros((10, 3)))
    assert schedule.total_duration == schedule.boundaries()[-1] == 0.9999999999999999
    times = evolve_state(schedule, [1, 0], 0.05).times
    assert len(times) == 25 and times[-1] == schedule.total_duration


def test_demo_seed_does_not_depend_on_builtin_sum(monkeypatch):
    def demo():
        return fluxshaper.end_to_end_demo("entangled", delta=math.tau * 0.25,
                                          j=math.tau * 0.05)

    plain = demo()
    monkeypatch.setattr(builtins, "sum", math.fsum)
    compensated = demo()
    assert compensated.iterations == plain.iterations
    assert compensated.params.tolist() == plain.params.tolist()
