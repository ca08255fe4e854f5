"""Edge values through the CLI commands.

Each case starts from one small valid config and changes one field at a time.
The numeric runs set one numeric leaf to an edge value: a count or ``budget``
to -1, 0, 1 or 2, any other number to NaN, +-inf, -1, 0, 5e-324, 1e6, 1e30 or
1e308.  The structural runs change the config's shape: every leaf becomes null,
a bool, a string, an empty list or object, a list or a fraction; every string
leaf also takes a comma, a line break, a leading ``#`` or nothing; and every
object key is deleted in turn.

Every run must exit 0, 2 or 3; none may raise, and the suite turns a
RuntimeWarning into an error.  An exit 2 prints one stderr line.  An exit 0
writes finite outputs (grid cells, W and fidelities in [0, 1]), and each of its
CSVs is a header over rows of the header's width.  The ``shape`` case sets every
``LJJConfig`` and ``InterferometerConfig`` field on a 16-long junction, whose
solve takes ~0.02 s.  The ``demo`` case varies ``delta`` and ``j`` only, so each
run solves the default junction once; the ``inversion`` seed already meets the
target, so most runs calibrate with one propagation.
"""

import json
import math

import numpy as np
import pytest

from picopulse.cli import main

AXIS1 = {"name": "a", "start": 0.5, "stop": 20.0, "count": 3}
AXIS2 = {"name": "t", "start": 5.0, "stop": 150.0, "count": 4}
DELAYS = {"start": 0.0, "stop": 4000.0, "count": 3}
RAMSEY = {"amplitude": 25.0, "delta": 0.25, "tau": 10.0, "tau_r": DELAYS}

CASES = {
    "single": ("sweep", {"kind": "single", "axis1": AXIS1, "axis2": AXIS2,
                         "fixed": {"delta": 0.25, "tau": 100.0}}),
    "pair": ("sweep", {"kind": "pair", "axis1": AXIS1, "axis2": AXIS2,
                       "fixed": {"delta": 0.25, "tau1": 20.0, "tau2": 20.0, "tau_r": 50.0}}),
    "coupler": ("sweep", {"kind": "coupler", "axis1": AXIS1, "axis2": AXIS2,
                          "fixed": {"delta": 0.25, "tau": 100.0}}),
    "three-stage": ("sweep", {"kind": "three-stage", "axis1": AXIS1, "axis2": AXIS2,
                              "fixed": {"delta": 0.25, "j": 0.5, "tau1": 20.0}}),
    "register-pair": ("sweep", {"kind": "register-pair", "axis1": AXIS1, "axis2": AXIS2,
                                "fixed": {"delta1": 0.25, "delta2": 0.3, "j": 0.05,
                                          "tau1": 20.0, "tau2": 20.0, "tau_r": 50.0}}),
    "ramsey": ("ramsey", RAMSEY),
    "lindblad": ("lindblad", {**RAMSEY, "gamma": 0.05, "gamma_phi": 0.1}),
    "calibrate": ("calibrate", {"target": {"kind": "state", "name": "flip"},
                                "template": {"type": "single-pulse", "delta": 0.25},
                                "bounds": [[16.0, 64.0], [5.0, 40.0]], "seed": [25.0, 20.0],
                                "tol": 1e-4, "budget": 20}),
    "shape": ("shape", {"ljj": {"i_b": 0.2, "length": 16.0, "alpha": 0.05, "dx": 0.2,
                                "dt": 0.05, "x1": 3.0, "x2": 9.0, "kink_position": 2.0,
                                "initial_velocity": 0.9, "absorber_width": 4.0,
                                "absorber_alpha": 2.0, "t_max": 100.0},
                        "amp": {"ic1": 0.7, "alpha_j": 3.0, "inductance": 0.2},
                        "energy_scale": 1.0, "time_scale": 1.0, "bias_sweep": [0.3]}),
    "demo": ("demo", {"target": "inversion", "delta": 0.25, "j": 0.05}),
}

NUMBERS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e6, 1e30, 1e308]
COUNTS = [-1, 0, 1, 2]
SHAPES = [None, True, "x", [], {}, [1.0], 1.5]
STRINGS = ["a,b", "a\nb", "#a", ""]
DELETED = object()  # with_leaf deletes the field


def nodes(config, path=()):
    """The path and value of every field of a config, at any depth."""
    items = config.items() if isinstance(config, dict) else enumerate(config)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from nodes(value, path + (key,))


def with_leaf(config, path, value):
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


def numeric_mutations(config):
    """(description, config) for each edge value of each numeric leaf."""
    for path, value in nodes(config):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            for new in COUNTS if path[-1] in ("count", "budget") else NUMBERS:
                yield f"{'.'.join(map(str, path))} = {new}", with_leaf(config, path, new)


def structural_mutations(config):
    """(description, config) for each one-field change of the config's shape."""
    for path, value in nodes(config):
        where = ".".join(map(str, path))
        if not isinstance(value, (dict, list)):
            for new in SHAPES + (STRINGS if isinstance(value, str) else []):
                yield f"{where} = {new!r}", with_leaf(config, path, new)
        if isinstance(path[-1], str):  # a key of an object
            yield f"{where} deleted", with_leaf(config, path, DELETED)


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def output_problems(out):
    """What is wrong with a successful run's outputs: a CSV that is not a header over
    rows of its width, a non-finite number, or a grid cell, W or fidelity outside
    [0, 1].  A waveform sample or a duration is no probability, and a stalled bias
    keeps its nan duration."""
    problems = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            lines = [line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("#")]
            if not lines or all(map(is_number, lines[0])):
                problems.append(f"{path.name} has no header line")
                continue
            if any(len(row) != len(lines[0]) for row in lines[1:]):
                problems.append(f"{path.name} has a row whose width is not the header's")
                continue
            values = np.array(lines[1:], dtype=float)
            if path.name == "duration_vs_bias.csv":
                values = values[:, :1]
            # after the axis1 value or the delay
            probabilities = values[:, :0] if path.name == "waveform.csv" else values[:, 1:]
        elif path.name == "summary.json":
            values = np.array(list(json.loads(path.read_text()).values()), dtype=float)
            probabilities = values[:0]
        elif path.name in ("calibration.json", "demo.json"):
            payload = json.loads(path.read_text())
            values = np.array(payload["params"] + [payload["fidelity"]])
            probabilities = values[-1:]
        else:
            continue
        if not np.isfinite(values).all():
            problems.append(f"{path.name} is not finite")
        elif not ((probabilities >= -1e-12) & (probabilities <= 1 + 1e-12)).all():
            problems.append(f"{path.name} leaves [0, 1]")
    return problems


def run_failures(tmp_path, capsys, command, runs):
    """What went wrong in each run: a raise, an exit other than 0, 2 or 3, an exit 2
    that does not print one line, or a problem with a successful run's outputs."""
    failures = []
    for i, (where, mutated) in enumerate(runs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(mutated))
        out = tmp_path / f"out{i}"
        try:
            rc = main([command, "--config", str(config), "--out", str(out)])
        except Exception as exc:  # a RuntimeWarning too: the suite makes it an error
            failures.append(f"{where}: raised {exc!r}")
            continue
        err = capsys.readouterr().err.splitlines()
        if rc == 0:
            failures.extend(f"{where}: {p}" for p in output_problems(out))
        elif rc == 2 and len(err) != 1:
            failures.append(f"{where}: exit 2 printed {len(err)} lines")
        elif rc not in (2, 3):
            failures.append(f"{where}: exit {rc}")
    return failures


@pytest.mark.parametrize("case", sorted(CASES))
def test_edge_values_exit_cleanly(tmp_path, capsys, case):
    command, base = CASES[case]
    runs = list(numeric_mutations(base))
    failures = run_failures(tmp_path, capsys, command, runs)
    # demo has two numeric leaves, 18 runs; every other case makes more than 40
    assert len(runs) > (17 if case == "demo" else 40) and not failures, "\n".join(failures)


@pytest.mark.parametrize("case", sorted(CASES))
def test_structural_mutations_exit_cleanly(tmp_path, capsys, case):
    command, base = CASES[case]
    runs = list(structural_mutations(base))
    failures = run_failures(tmp_path, capsys, command, runs)
    # demo, the smallest config, has three fields: 28 runs
    assert len(runs) >= 28 and not failures, "\n".join(failures)
