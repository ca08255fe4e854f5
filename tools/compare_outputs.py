"""Run the same CLI configs through two source trees and compare their outputs.

    python tools/compare_outputs.py BASE NEW [--seed N ...]

``BASE`` and ``NEW`` are checkouts of the repository.  The configs are README's
"Command-line tool" examples and the ``calibrate``, ``scan`` and ``shape`` calls
of ``bench/workloads.py`` at each ``--seed`` (default: the benchmark's
``DEFAULT_SEED``), both read from ``NEW``.  Each config runs once per tree as
``python -m picopulse.cli`` with that tree's ``src`` on ``PYTHONPATH``.  For every
output file, and for the ``health`` entry of ``manifest.json`` as
``<call>/manifest.json:health`` (the rest of the manifest holds wall times), the
report says ``identical``, gives the largest absolute difference between the
numbers of the two, or says that only the sign of a zero differs or that equal
numbers are written differently (``1e-05`` and ``1.0e-05``).  The exit
status is 1 if any run exits non-zero on either side, and 0 otherwise, whatever
the differences.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# a float as repr() and json write it; text between numbers must match exactly
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf|NaN|-?Infinity)")


def readme_examples(tree: Path) -> list[tuple[str, str, dict]]:
    """(name, subcommand, config) for each JSON block of README's "Command-line tool"
    section, by its ``### `subcommand` `` heading; ``tests/test_readme_examples.py``
    runs the same list."""
    text = (tree / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command-line tool\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("\n### ")[1:]:
        command = re.match(r"`([a-z-]+)`", block).group(1)
        for body in re.findall(r"```json\n(.*?)```", block, re.S):
            examples.append((f"readme/{len(examples)}-{command}", command, json.loads(body)))
    return examples


def workload_calls(tree: Path, seeds) -> list[tuple[str, str, dict]]:
    """(name, subcommand, config) for each call of the benchmark's workloads."""
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    spec = importlib.util.spec_from_file_location("workloads", tree / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f"{workload}/seed{seed}/{call.name}", call.command, call.config)
            for seed in (seeds or [workloads.DEFAULT_SEED])
            for workload in ("calibrate", "scan", "shape")
            for call in workloads.calls(workload, seed)]


def run(tree: Path, command: str, config: dict, out: Path) -> subprocess.CompletedProcess:
    out.mkdir(parents=True)
    (out / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "picopulse.cli", command,
                           "--config", str(out / "cfg.json"), "--out", str(out / "out")],
                          env=env, capture_output=True, text=True)


def difference(a: str, b: str) -> str:
    """``identical``, the largest absolute difference of the numbers, or why there is none."""
    if a == b:
        return "identical"
    texts_a, texts_b = NUMBER.split(a), NUMBER.split(b)
    if texts_a != texts_b:
        return "text differs"
    worst, signed_zeros = 0.0, False
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x.replace("Infinity", "inf")), float(y.replace("Infinity", "inf"))
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) if math.isfinite(x - y) else math.inf)
        elif x == y == 0 and math.copysign(1.0, x) != math.copysign(1.0, y):
            signed_zeros = True
    if worst == 0:  # the texts differ only in how equal numbers are written
        return "sign of zero differs" if signed_zeros else "numbers equal, written differently"
    return f"max abs difference {worst:.3g}"


def compare(base: Path, new: Path, calls, scratch: Path) -> tuple[list[str], dict]:
    """Report lines for every output of every call, and counts of the outputs, of the
    identical ones and of the failed runs."""
    lines, counts = [], {"outputs": 0, "identical": 0, "failed": 0}
    for name, command, config in calls:
        results = {}
        for side, tree in (("base", base), ("new", new)):
            results[side] = run(tree, command, config, scratch / side / name)
        codes = {side: r.returncode for side, r in results.items()}
        if any(codes.values()):
            counts["failed"] += 1
            lines.append(f"{name}: FAILED base exit {codes['base']}, new exit {codes['new']}")
            for side, r in results.items():
                if r.returncode:
                    lines += [f"  {side}: {line}" for line in r.stderr.strip().splitlines()[-3:]]
            continue
        outs = {side: scratch / side / name / "out" for side in results}
        files = sorted({p.name for d in outs.values() for p in d.iterdir()} - {"manifest.json"})
        verdicts = []
        for file in files:
            a, b = (outs[side] / file for side in ("base", "new"))
            if not (a.exists() and b.exists()):
                verdict = f"only in {'base' if a.exists() else 'new'}"
            else:
                verdict = difference(a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8"))
            verdicts.append((file, verdict))
        health = [json.dumps(json.loads((outs[side] / "manifest.json").read_text(
            encoding="utf-8")).get("health")) for side in ("base", "new")]
        if health != ["null", "null"]:
            verdicts.append(("manifest.json:health", difference(*health)))
        for label, verdict in verdicts:
            lines.append(f"{name}/{label}: {verdict}")
            counts["outputs"] += 1
            counts["identical"] += verdict == "identical"
    return lines, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree to compare against")
    parser.add_argument("new", type=Path, help="source tree whose configs are run")
    parser.add_argument("--seed", type=int, action="append",
                        help="benchmark workload seed (repeatable)")
    args = parser.parse_args(argv)
    base, new = args.base.resolve(), args.new.resolve()
    calls = readme_examples(new) + workload_calls(new, args.seed)
    with tempfile.TemporaryDirectory() as scratch:
        lines, counts = compare(base, new, calls, Path(scratch))
    print("\n".join(lines))
    print(f"{counts['identical']} of {counts['outputs']} outputs identical; "
          f"{counts['failed']} of {len(calls)} configs failed")
    return 1 if counts["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
