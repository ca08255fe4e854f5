"""Every public name of the package is read by something normative, or is an oracle.

A public top-level ``def``, ``class`` or constant of ``src/picopulse`` stays when
``bench/*.py``, ``tools/*.py``, README or an acceptance criterion reads it, or
when package code that stays reads it outside the name's own definition.  A name
read only by code that would itself go does not count as read.  Any other public
name is a test oracle: ``ORACLES`` maps it to the test that checks it against an
independent path.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORACLES = {
    "KET_UP": "test_core.py::test_raising_operator_convention",
    "make_single_qubit_hamiltonian":
        "test_batched_core.py::test_make_hamiltonians_match_kronecker_formula",
    "rabi_unitary_rwa": "test_analytic.py::test_rabi_unitary_matches_probability",
    "unipolar_transfer_amplitudes":
        "test_analytic.py::test_transfer_amplitudes_match_unitary_column",
    "compose_pulse_sequence": "test_analytic.py::test_ramsey_unipolar_matches_composition",
    "evolve_state_stepper": "test_dynamics.py::test_stepper_cross_checks_exact_path",
    "coupler_only_eigensystem": "test_register.py::test_coupler_eigensystem_matches_dense",
    "coupler_flip_probability":
        "test_register.py::test_coupler_flip_probability_against_propagator",
}


def identifiers(tree):  # the names and attributes that the code under ``tree`` reads
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def defined(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_public_name_is_read_or_an_oracle():
    reads = {}  # each top-level name of the package -> the names its definition reads
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text())) | set(ORACLES)
    for path in [*(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        read |= identifiers(ast.parse(path.read_text()))
    for path in (ROOT / "src" / "picopulse").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = defined(node)
            for name in names:
                reads.setdefault(name, set()).update(identifiers(node) - {name})
            if not names and not isinstance(node, (ast.Import, ast.ImportFrom)):
                read |= identifiers(node)  # module-level code that runs on import
    todo = list(read)
    while todo:
        for name in reads.get(todo.pop(), ()):
            if name not in read:
                read.add(name)
                todo.append(name)
    unread = sorted(n for n in reads if not n.startswith("_") and n not in read)
    assert not unread, f"public names that nothing normative reads: {unread}"


def test_each_oracle_is_defined_and_checked_by_its_test():
    defs = {name for path in (ROOT / "src" / "picopulse").glob("*.py")
            for node in ast.parse(path.read_text()).body for name in defined(node)}
    for name, test in ORACLES.items():
        assert name in defs, f"ORACLES lists {name}, which the package no longer defines"
        file, func = test.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text())
        body = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func]
        assert body and name in identifiers(body[0]), f"{test} does not call {name}"
