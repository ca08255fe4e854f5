"""README's examples run as documented: each JSON example of the "Command-line
tool" section, and the Python blocks of the "Quick start (library)" section."""

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import picopulse
from picopulse.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
spec = importlib.util.spec_from_file_location("compare_outputs",
                                              ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

# (subcommand, config) for every JSON block, by its ``### `subcommand` `` heading
EXAMPLES = [(command, config) for _, command, config in compare_outputs.readme_examples(ROOT)]


def test_every_subcommand_has_an_example():
    assert sorted({command for command, _ in EXAMPLES}) == sorted(_COMMANDS)


@pytest.mark.parametrize("command,config", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_runs(tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    for name in ("demo.json", "calibration.json"):
        if (out / name).exists():
            assert json.loads((out / name).read_text())["converged"] is True


def test_readme_examples_run_without_scipy(tmp_path):
    """Every README example, each JSON config through the CLI and the library blocks in
    order, runs in a fresh interpreter in which any scipy import fails, and loads no
    scipy module."""
    runs = []
    for i, (command, config) in enumerate(EXAMPLES):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(config))
        runs.append([command, "--config", str(path), "--out", str(tmp_path / f"out{i}")])
    code = textwrap.dedent("""\
        import json, sys
        sys.modules["scipy"] = None  # any import of it fails
        from picopulse.cli import main
        runs, blocks = json.loads(sys.argv[1]), json.loads(sys.argv[2])
        rcs = [main(argv) for argv in runs]
        namespace = {}
        for block in blocks:
            exec(block, namespace)
        print(rcs, [m for m, v in sys.modules.items() if m.split(".")[0] == "scipy" and v])
    """)
    src = str(Path(picopulse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs),
                          json.dumps(library_blocks())],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"{[0] * len(runs)} []"
    assert all(any((tmp_path / f"out{i}").iterdir()) for i in range(len(runs)))


def library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_examples_print_what_they_claim():
    """The blocks run in order in one namespace; each prints fidelities >= 0.99
    first on its lines, and every convergence flag it prints is True."""
    blocks = library_blocks()
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, str(README), "exec"), namespace)
        lines = printed.getvalue().split("\n")[:-1]
        assert lines
        for line in lines:
            tokens = line.split()
            assert float(tokens[0]) >= 0.99
            assert "False" not in tokens
        # the calibration and demo results it made converged, printed or not
        assert all(value.converged for value in namespace.values()
                   if hasattr(value, "converged"))
