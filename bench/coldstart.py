"""Cold start: import ``picopulse.cli`` in a fresh interpreter and load configs.

Usage: ``python3 bench/coldstart.py <src dir> <config.json>...``.  Prints one
JSON object with the in-process import time; the caller times the whole
process from outside.  It imports nothing else first, so a change that makes
the package's imports lighter shows in the measurement.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import picopulse.cli  # noqa: E402

t1 = time.perf_counter()
configs = [json.loads(open(path, encoding="utf-8").read()) for path in sys.argv[2:]]
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "configs": len(configs)}))
