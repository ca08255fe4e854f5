"""``tools/compare_outputs.py``: its number-by-number difference and one CLI run per side,
with the manifest's ``health`` entry compared as an output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare_outputs",
                                              ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


@pytest.mark.parametrize("a,b,verdict", [
    ("t,W\n0.0,0.5\n", "t,W\n0.0,0.5\n", "identical"),
    ("t,W\n0.0,0.5\n", "t,W\n0.0,0.5000000000000001\n", "max abs difference 1.11e-16"),
    ('{"v": NaN, "d": -2e-05}', '{"v": NaN, "d": -3e-05}', "max abs difference 1e-05"),
    ('{"v": 1.0}', '{"v": Infinity}', "max abs difference inf"),
    ("t,W\n0.0,-0.0\n", "t,W\n0.0,0.0\n", "sign of zero differs"),
    ("t,W\n0.0,1e-05\n", "t,W\n0.0,1.0e-05\n", "numbers equal, written differently"),
    ('{"v": nan}', '{"v": NaN}', "numbers equal, written differently"),
    ("t,W\n1,0.5\n", "t,W\n1.0,0.5\n", "numbers equal, written differently"),
    ("t,W\n0.0,0.5\n", "t,P\n0.0,0.5\n", "text differs"),
    ("0.0,0.5\n", "0.0,0.5\n1.0,0.5\n", "text differs"),
])
def test_difference(a, b, verdict):
    assert compare_outputs.difference(a, b) == verdict


def test_a_failed_run_is_counted(tmp_path):
    scan = {"amplitude": 25.0, "delta": 0.25, "tau": 10.0,
            "tau_r": {"start": 0.0, "stop": 100.0, "count": 3}}
    calls = [("ok", "ramsey", scan),
             ("open", "lindblad", dict(scan, gamma=0.05, gamma_phi=0.1)),
             ("bad", "ramsey", {"amplitude": 25.0})]
    lines, counts = compare_outputs.compare(ROOT, ROOT, calls, tmp_path)
    assert lines[:3] == ["ok/ramsey.csv: identical", "open/lindblad.csv: identical",
                         "open/manifest.json:health: identical"]
    assert lines[3] == "bad: FAILED base exit 2, new exit 2"
    assert counts == {"outputs": 3, "identical": 3, "failed": 1}


def test_health_of_one_tree_only_is_reported_so(tmp_path, monkeypatch):
    def fake_run(tree, command, config, out):
        (out / "out").mkdir(parents=True)
        extra = {"health": {"velocity": 0.9}} if tree.name == "new" else {}
        (out / "out" / "manifest.json").write_text(json.dumps(extra))
        (out / "out" / "summary.json").write_text("{}")
        return subprocess.CompletedProcess([], 0)

    monkeypatch.setattr(compare_outputs, "run", fake_run)
    lines, counts = compare_outputs.compare(tmp_path / "base", tmp_path / "new",
                                            [("shape", "shape", {})], tmp_path)
    assert lines == ["shape/summary.json: identical", "shape/manifest.json:health: only in new"]
    assert counts == {"outputs": 2, "identical": 1, "failed": 0}
