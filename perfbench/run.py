"""Benchmark entry point: time, gate and trace one workload.

    python3 perfbench/run.py --workload mix --seed 0 --seconds 30 --trace 0

Run from the repository root.  Every experiment runs in a fresh Python
process (perfbench/worker.py) through ``validate_config`` +
``run_experiment``, one at a time.  Experiments repeat until the next one
would end after ``--seconds``; all repeats use the same seed, so their
artifacts must be byte-identical, and the first is checked by the
workload's gate.

``--trace 0`` reports the end-to-end metrics (medians over the repeats).
``--trace 1`` alternates untraced and traced repeats, then runs the layer
micro-cases, and reports the per-layer metrics.  ``--workload all`` runs
each workload once and prints a table of the end-to-end metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
machine record.  A human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mix", "posterior", "census", "invert")
MIN_SETUP_SAMPLES = 5
# time kept back from the experiment loop for the set-up-only processes and,
# in a traced run, the micro-cases, so that a run ends near --seconds
RESERVE_S = 1.5
MICRO_RESERVE_S = 3.0
WORKER_TIMEOUT_S = 170


def _thread_env() -> dict:
    """Worker environment: library threading off, one BLAS thread.

    A second BLAS thread spin-waits between calls and competes with the
    main thread for the few shared cores, so with it the timings measure
    the scheduler (census ran at cpu_s > wall_s and spread past its bound).
    """
    env = dict(os.environ)
    env.pop("LANGSCAPE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "workload_seed": seed}


class Runner:
    """Spawns workers for one workload and gates their artifacts."""

    def __init__(self, workload: str, seed: int, scale: float, out: Path):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.out = out
        self.env = _thread_env()
        self.count = 0
        self.digest = None
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, kind: str = "run", trace: bool = False) -> dict | None:
        """Run one worker; kind is "run", "setup" (stop before the run) or
        "micro" (the layer micro-cases)."""
        out = self.out / f"w{self.count}"
        self.count += 1
        out.mkdir(parents=True)
        request = {"workload": self.workload, "seed": self.seed,
                   "scale": self.scale, "out": str(out), "kind": kind,
                   "trace": trace}
        req_path = out / "request.json"
        request["t_spawn"] = time.monotonic()
        req_path.write_text(json.dumps(request))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(req_path)],
                env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"worker timed out after {WORKER_TIMEOUT_S} s")
        result_path = out / "worker.json"
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return self._fail(f"worker exit {proc.returncode}: "
                              + " | ".join(tail))
        return json.loads(result_path.read_text())

    def _fail(self, reason: str):
        self.failures.append(reason)
        print(f"[perfbench] {self.workload}: {reason}", file=sys.stderr)
        return None

    def experiment(self, trace: bool = False) -> dict | None:
        """One gated experiment: its measurements, or None if it crashed.

        A gate miss, a non-zero exit code or artifacts that differ from the
        first repeat count as a failure but keep the measurements.
        """
        self.attempted += 1
        res = self.spawn(trace=trace)
        if res is None:
            return None
        outs = [Path(p) for p in res["outs"]]
        res["artifact_bytes"] = sum(p.stat().st_size for o in outs
                                    for p in o.iterdir())
        if any(code != 0 for code in res["codes"]):
            self._fail(f"run_experiment exit codes {res['codes']}")
            return res
        digest = _digest(outs)
        if self.digest is None:
            import workloads
            reasons = workloads.gate(self.workload, self.seed, outs)
            if reasons:
                self._fail("gate: " + "; ".join(reasons))
                return res
            self.digest = digest
        elif digest != self.digest:
            self._fail("artifacts differ from the first repeat")
        return res


def _digest(outs: list[Path]) -> str:
    h = hashlib.sha256()
    for i, out in enumerate(outs):
        for path in sorted(out.iterdir()):
            h.update(f"{i}/{path.name}\0".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out: Path, scale: float = 1.0) -> tuple[Runner, dict]:
    """Repeat experiments for about ``seconds`` and return the runner and
    the metric values (None if no experiment completed); scale < 1 shrinks
    every experiment."""
    import metrics
    import workloads

    runner = Runner(workload, seed, scale, out)
    deadline = time.monotonic() + seconds - RESERVE_S \
        - (MICRO_RESERVE_S if trace else 0.0)
    plain, traced, durations = [], [], []
    while True:
        t0 = time.monotonic()
        want_trace = trace and len(traced) < len(plain)
        res = runner.experiment(trace=want_trace)
        durations.append(time.monotonic() - t0)
        if res is not None:
            (traced if want_trace else plain).append(res)
        complete = plain and (traced or not trace)
        # a repeat of the same seed fails alike, so stop at the first
        # failure once there is something to report (or nothing will come)
        if runner.failures and (complete or len(durations) > 1):
            break
        over = time.monotonic() + statistics.median(durations) > deadline
        if complete and over:
            break
    if not plain or (trace and not traced):
        return runner, None
    if not trace:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUP_SAMPLES:
            res = runner.spawn(kind="setup")
            if res is None:
                break
            setups.append(res["setup_s"])
        wall = statistics.median([r["wall_s"] for r in plain])
        values = {
            "wall_s": wall,
            "work_per_s": workloads.work_units(workload, seed, scale) / wall,
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
        return runner, values

    per_rep = [metrics.per_layer(r["trace"], r["artifact_bytes"])
               for r in traced]
    values = {k: statistics.median([v[k] for v in per_rep])
              for k in per_rep[0]}
    # each traced experiment directly follows an untraced one; pairing them
    # keeps slow drift in machine speed out of the difference
    values["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    micro = runner.spawn(kind="micro")
    if micro is not None:
        values.update(micro["micro"])
    return runner, values


def metric_entries(values: dict, prefix: str = "") -> dict:
    """The result line's metrics: {prefix + name: {"value", "unit"}}."""
    import metrics
    return {prefix + k: {"value": v, "unit": metrics.UNITS[k]}
            for k, v in values.items()}


def _report(workload: str, runner: Runner, values: dict) -> None:
    import metrics
    print(f"[perfbench] {workload}: {runner.attempted} experiments",
          file=sys.stderr)
    rows = [("fail_frac", len(runner.failures) / runner.attempted, "ratio")]
    rows += [(name, value, metrics.UNITS[name])
             for name, value in values.items()]
    for name, value, unit in rows:
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "langscape" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/langscape is "
              "missing", file=sys.stderr)
        return 2
    os.environ.update({k: v for k, v in _thread_env().items()
                       if k.endswith("_NUM_THREADS")})
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record = machine_record(args.seed)
    print(json.dumps({"machine": record}))
    base = HERE / "_out"
    attempted = failed = 0
    all_metrics = {}
    for name in names:
        out = base / f"{name}-t{args.trace}"
        shutil.rmtree(out, ignore_errors=True)
        runner, values = run_workload(
            name, args.seed, args.seconds if len(names) == 1 else 0.0,
            bool(args.trace), out)
        if values is None:
            print(f"perfbench: {name}: no experiment completed",
                  file=sys.stderr)
            return 1
        _report(name, runner, values)
        attempted += runner.attempted
        failed += len(runner.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update(metric_entries(values, prefix))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": all_metrics}
    (base / "machine.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
