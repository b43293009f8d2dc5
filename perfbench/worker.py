"""One experiment of one workload in a fresh process.

Run by run.py as ``python3 perfbench/worker.py <request.json>``.  The
request names the workload, seed, size scale, output directory, the kind
of work ("run"; "setup", which stops before the run; or "micro", the layer
micro-cases), whether to trace, and the monotonic time at which the parent
started this process.
The result (set-up time, wall time, CPU time, peak RSS, exit codes and, if
traced, the span summary) is written to ``worker.json`` in the output
directory; stdout stays free for the library's own printing.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    out = Path(req["out"])
    if req["kind"] == "micro":
        import micro
        (out / "worker.json").write_text(
            json.dumps({"micro": micro.run(req["seed"])}))
        return 0
    import workloads
    import langscape.harness as harness

    tracer = None
    if req["trace"]:
        from tracing import Tracer
        tracer = Tracer(run_id=out.name)
        tracer.install()
    configs = [harness.validate_config(mode, raw,
                                       out_dir=str(out / f"stage{i}"))
               for i, (mode, raw) in enumerate(
                   workloads.stages(req["workload"], req["seed"],
                                    req["scale"]))]
    setup_s = time.monotonic() - req["t_spawn"]
    result = {"setup_s": setup_s}
    if req["kind"] == "run":
        wall_s, cpu_s, codes = 0.0, 0.0, []
        for cfg in configs:
            c0 = _cpu_s()
            t0 = time.perf_counter()
            codes.append(harness.run_experiment(cfg))
            wall_s += time.perf_counter() - t0
            cpu_s += _cpu_s() - c0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(wall_s=wall_s, cpu_s=cpu_s,
                      peak_rss_mb=peak_kb / 1024.0, codes=codes,
                      outs=[cfg.out_dir for cfg in configs])
        if tracer is not None:
            tracer.uninstall()
            tracer.write(out / "spans.csv")
            result["trace"] = tracer.summary(wall_s)
    (out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
