"""picopulse benchmark: one command for every end-to-end and per-layer metric.

    python3 bench/run.py --workload {calibrate,scan,shape} --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` next to
this directory; everything the run writes goes under ``.bench_out/``.  BLAS
and OpenMP are pinned to one thread and the CLI runs in this process, one
closed-loop client making passes back to back.

``--trace 0`` times passes of the workload's CLI runs for ``--seconds``
(at least three) after one warm-up and reports the end-to-end metrics:
``wall_s`` (median pass), ``setup_s`` (median of five cold starts) and
``peak_rss_mb``.  ``--trace 1`` makes one untraced CLI pass, replays every
workload through the library with spans on, and reports the per-layer
metrics.  Both check the CLI outputs against the oracles and print, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
COLD_STARTS = 5


def host_probe_ms() -> float:
    """Median of five timings of a fixed NumPy/Python loop (independent of picopulse).

    Logged with every run so a slow or drifting host can be told apart from
    a slower program.
    """
    import numpy as np

    h = np.array([[1.0, 0.5, 0.2, 0.0], [0.5, -1.0, 0.0, 0.2],
                  [0.2, 0.0, 0.3, 0.5], [0.0, 0.2, 0.5, -0.3]], dtype=complex)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(500):
            vals, _ = np.linalg.eigh(h + (k * 1e-3) * np.eye(4))
            acc += float(vals[0]) * 0.5
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def cold_starts(config_paths, importtime: bool = False) -> list[dict]:
    """Fresh interpreters importing picopulse.cli and loading the configs.

    The first start is discarded (it may compile bytecode); each record holds
    the wall time seen from outside and the child's own import time.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(BENCH / "coldstart.py"), str(SRC)] + [str(p) for p in config_paths]
    records = []
    for i in range(3 if importtime else COLD_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-400:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["wall_s"] = wall
        if importtime:
            rec["scipy_s"] = scipy_import_s(proc.stderr)
        if importtime or i > 0:
            records.append(rec)
    return records


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a -X importtime log."""
    entries = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m and m.group(3).split(".")[0] == "scipy":
            entries.append((len(m.group(2)), int(m.group(1))))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return 1e-6 * sum(us for depth, us in entries if depth == top)


class Runner:
    """Makes CLI passes of one workload inside ``workdir``, counting failed runs."""

    def __init__(self, workdir: Path, calls):
        from picopulse import cli

        self.cli = cli
        self.workdir = workdir
        self.calls = calls
        self.config_paths = {}
        (workdir / "configs").mkdir(parents=True)
        for call in calls:
            path = workdir / "configs" / f"{call.name}.json"
            path.write_text(json.dumps(call.config), encoding="utf-8")
            self.config_paths[call.name] = path
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, out: Path) -> tuple[float, dict]:
        """Seconds for one pass into ``out``, and each run's output digests."""
        ok = {}
        t0 = time.perf_counter()
        for call in self.calls:
            self.attempted += 1
            try:
                rc = self.cli.main([call.command, "--config", str(self.config_paths[call.name]),
                                    "--out", str(out / call.name)])
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = None
                self.errors.append(traceback.format_exc(limit=3))
            ok[call.name] = rc == 0
            if rc != 0:
                self.failed += 1
        elapsed = time.perf_counter() - t0
        digests = {}
        for call in self.calls:
            manifest = out / call.name / "manifest.json"
            if ok[call.name] and manifest.exists():
                digests[call.name] = json.loads(manifest.read_text())["outputs"]
        return elapsed, digests

    def output_bytes(self, out: Path) -> int:
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def timed_passes(runner: Runner, seconds: float) -> tuple[list[float], list[str]]:
    """Back-to-back passes: at least three, then more while one more fits in ``seconds``."""
    times, problems, first = [], [], None
    start = time.perf_counter()
    prev = None
    while len(times) < 3 or (time.perf_counter() - start) + statistics.median(times) <= seconds:
        out = runner.workdir / f"pass{len(times)}"
        elapsed, digests = runner.run_pass(out)
        times.append(elapsed)
        if first is None:
            first = digests
        elif digests != first:
            problems.append(f"pass {len(times) - 1}: outputs differ from the first pass")
        if prev is not None:
            shutil.rmtree(prev, ignore_errors=True)
        prev = out
    return times, problems


def check_outputs(workload: str, runner: Runner, out: Path, seed: int) -> list[str]:
    import numpy as np

    import checks
    from picopulse import fluxshaper
    from workloads import demo_pairs

    rng = np.random.default_rng([seed, 3])
    context = {}
    if workload == "calibrate":
        context = {"pairs": demo_pairs(),
                   "target": fluxshaper.target_state(runner.calls[0].config["target"])}
    fails = []
    for call in runner.calls:
        if (out / call.name / "manifest.json").exists():
            fails += checks.check_call(call, out / call.name, rng, context)
    if workload == "shape":
        _, _, wave = checks.read_csv(out / "shape" / "waveform.csv")
        flux = fluxshaper.Waveform(dt=float(wave[1, 0] - wave[0, 0]),
                                   samples=checks.flux_pulse(rng, float(wave[1, 0] - wave[0, 0])))
        rows = fluxshaper.amplitude_vs_ic1(fluxshaper.InterferometerConfig(),
                                           checks.AMP_IC1, flux)
        fails += checks.check_amplitude_stage(rows[:, 1])
    return fails


def traced_metrics(workload: str, seed: int, pass_s: float, pass_bytes: int,
                   tracer) -> tuple[dict, dict]:
    """Per-layer metrics from replays of all three workloads plus the probes."""
    import tracing as tr_mod
    from workloads import calls as workload_calls

    replays = {}
    order = [workload] + [w for w in ("calibrate", "scan", "shape") if w != workload]
    for name in order:
        tracer.trace = name
        wl_calls = workload_calls(name, seed)
        with tracer.span(f"replay.{name}") as root:
            if name == "calibrate":
                replays[name] = tr_mod.replay_calibrate(tracer, wl_calls[0])
            elif name == "scan":
                replays[name] = tr_mod.replay_scan(tracer, wl_calls)
            else:
                replays[name] = tr_mod.replay_shape(tracer, wl_calls[0])
        replays[name]["replay_s"] = tracer.duration(root)
    cal, scan, shape = replays["calibrate"], replays["scan"], replays["shape"]
    probes = tr_mod.probe_layers(cal, shape, seed)
    sampled = ("single", "pair", "coupler", "register-pair")
    metrics = {
        "host.ref_loop_ms": (host_probe_ms(), "ms"),
        "core.hamiltonian4_us": (probes["core.hamiltonian4_us"], "us"),
        "dynamics.evolve_unitary_ms": (probes["dynamics.evolve_unitary_ms"], "ms"),
        "dynamics.evolve_state_ms": (probes["dynamics.evolve_state_ms"], "ms"),
        "dynamics.evolve_lindblad_ms": (probes["dynamics.evolve_lindblad_ms"], "ms"),
        "dynamics.segments_propagated": (cal["propagations"] * cal["segments"], "count"),
        "protocols.calibrate_s": (cal["calibrate_s"], "s"),
        "protocols.calibrate_evals": (cal["evals"], "count"),
        "protocols.eval_ms": (1e3 * cal["calibrate_s"] / max(cal["evals"], 1), "ms"),
        "protocols.three_stage_cells_per_s": (
            scan["three-stage"]["cells"] / scan["three-stage"]["s"], "1/s"),
        "protocols.sampled_sweeps_s": (sum(scan[k]["s"] for k in sampled), "s"),
        "protocols.ramsey_scan_s": (scan["ramsey"]["s"], "s"),
        "protocols.lindblad_scan_s": (scan["lindblad"]["s"], "s"),
        "analytic.ramsey_us": (probes["analytic.ramsey_us"], "us"),
        "fluxshaper.ljj_s": (shape["ljj_s"], "s"),
        "fluxshaper.ljj_sim_time": (shape["ljj_sim_time"], "t_norm"),
        "fluxshaper.ljj_steps_per_s": (shape["ljj_steps_per_s"], "1/s"),
        "fluxshaper.amp_stage_s": (probes["fluxshaper.amp_stage_s"], "s"),
        "fluxshaper.bias_sweep_s": (shape["bias_sweep_s"], "s"),
        "cli.overhead_s": (pass_s - replays[workload]["replay_s"], "s"),
        "cli.output_bytes": (pass_bytes, "bytes"),
        "trace.overhead_s": (len(tracer.spans) * tr_mod.span_cost(), "s"),
    }
    info = {
        "calibrated_params_replay": cal["params"],
        "shares": {  # each a ratio of two figures timed back to back
            "hamiltonian_of_evolve_unitary": (cal["segments"] * probes["core.hamiltonian4_us"]
                                              * 1e-3 / probes["dynamics.evolve_unitary_ms"]),
            "calibrate_of_calibrate_replay": cal["calibrate_s"] / cal["replay_s"],
            "ljj_of_shape_replay": (
                sum(tracer.duration(s) for s in tracer.named("fluxshaper.simulate_ljj_fluxon",
                                                             "shape")) / shape["replay_s"]),
            "amp_stage_of_shape_replay": (
                sum(tracer.duration(s) for s in tracer.named("fluxshaper.simulate_amplitude_stage",
                                                             "shape")) / shape["replay_s"]),
            **{f"{k}_of_scan_replay": scan[k]["s"] / scan["replay_s"]
               for k in ("three-stage", *sampled, "ramsey", "lindblad")},
        },
        "replay_s": {k: v["replay_s"] for k, v in replays.items()},
        "cli_pass_s": pass_s,
    }
    if workload == "shape":
        info["replay_widths"] = shape["widths"]
    return metrics, info


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "picopulse" / "cli.py").is_file():
        print(f"error: no picopulse sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, calls

    seed = DEFAULT_SEED if args.seed is None else args.seed
    workdir = OUT / f"{args.workload}-{seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run(args, seed, calls(args.workload, seed), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, seed: int, calls, workdir: Path) -> int:
    host_before = host_probe_ms()
    runner = Runner(workdir, calls)
    paths = list(runner.config_paths.values())
    starts = cold_starts(paths)

    from workloads import warmup_calls

    warm = Runner(workdir / "warm", warmup_calls(args.workload))
    warm.run_pass(workdir / "warm" / "out")
    problems = [f"{warm.failed} warm-up runs failed"] if warm.failed else []

    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "python": platform.python_version(), "machine": platform.machine(),
              "cold_starts": starts}
    if args.trace == 0:
        times, diffs = timed_passes(runner, args.seconds)
        problems += diffs
        last = workdir / f"pass{len(times) - 1}"
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(times), "s"),
                   "setup_s": (statistics.median(s["wall_s"] for s in starts), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        record["pass_s"] = times
    else:
        from tracing import Tracer

        last = workdir / "pass0"
        pass_s, _ = runner.run_pass(last)
        tracer = Tracer()
        metrics, info = traced_metrics(args.workload, seed, pass_s,
                                       runner.output_bytes(last), tracer)
        traced = cold_starts(paths, importtime=True)
        metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in starts), "s")
        metrics["cli.import_scipy_s"] = (statistics.median(s["scipy_s"] for s in traced), "s")
        record.update(info)
        record["self_time_s"] = tracer.self_times()
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-{seed}.json").write_text(
            json.dumps({"spans": tracer.spans, **record}, indent=1, default=float),
            encoding="utf-8")

    problems += runner.errors
    problems += check_outputs(args.workload, runner, last, seed)
    if args.workload == "calibrate" and args.trace == 1:
        demo = json.loads((last / "demo" / "demo.json").read_text())
        record["replay_params_equal_cli"] = demo["params"] == record["calibrated_params_replay"]
    record["host_ref_loop_ms"] = [host_before, host_probe_ms()]
    record["problems"] = problems
    result = {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float), encoding="utf-8")

    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"bench {args.workload} seed={seed} trace={args.trace} "
          f"host_ref_loop_ms={record['host_ref_loop_ms'][0]:.2f}/{record['host_ref_loop_ms'][1]:.2f}"
          + (f" passes={len(record['pass_s'])} pass_s="
             + ",".join(f"{t:.3f}" for t in record["pass_s"]) if "pass_s" in record else ""))
    if args.trace == 1:
        for k, v in record["shares"].items():
            print(f"share {k} = {v:.3f}")
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
