"""Each JSON example in README's "Command-line tool" section runs as documented."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import picopulse
from picopulse.cli import _COMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[tuple[str, dict]]:
    """(subcommand, config) for every JSON block, by its ``### `subcommand` `` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command-line tool\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("\n### ")[1:]:
        command = re.match(r"`([a-z-]+)`", block).group(1)
        examples += [(command, json.loads(body))
                     for body in re.findall(r"```json\n(.*?)```", block, re.S)]
    return examples


EXAMPLES = cli_examples()


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


def test_readme_lindblad_scan_loads_no_scipy(tmp_path):
    """The open-system scan exponentiates its generators without importing scipy."""
    (config,) = [config for command, config in EXAMPLES if command == "lindblad"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    src = str(Path(picopulse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from picopulse.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code, "lindblad", "--config", str(path),
                          "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "lindblad.csv").exists()
