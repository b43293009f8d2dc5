"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py          # from the repository root

Checks that
  * BENCHMARK.json lists exactly the metrics metrics.py defines;
  * every named metric is emitted with its unit, traced and untraced;
  * the landscape share on mix (and census) and the priors share on
    posterior are above their shares on the other workloads;
  * the gates reject broken outputs: a mix chain whose drift is cut to a
    tenth (it samples beta = 4 against the beta = 40 reference), invert
    runs whose gradient is scaled by 0.1 or negated, an invert result with
    its residual columns swapped, and a non-finite value.
Takes about a minute; writes only under perfbench/_out.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCALE = {"mix": 0.1, "posterior": 0.05, "census": 1.0, "invert": 0.1}
OUT = HERE / "_out" / "selftest"


def _bench(workload: str, trace: int) -> dict:
    """Metrics of one run at test size, as run.py reports them.  The gates
    are sized for the full workloads, so they may fail here."""
    _, values = run.run_workload(
        workload, 0, 0.0, bool(trace), OUT / f"{workload}-t{trace}",
        scale=SCALE[workload])
    assert values is not None, f"{workload}: no experiment completed"
    return run.metric_entries(values)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]]
    assert e2e == metrics.END_TO_END, "BENCHMARK.json end_to_end differs"
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == [m[:3] for m in metrics.PER_LAYER], \
        "BENCHMARK.json per_layer differs"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def check_emitted() -> dict:
    shares = {}
    for workload in run.WORKLOADS:
        for trace, spec in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            emitted = _bench(workload, trace)
            names = [m[0] for m in spec]
            assert sorted(emitted) == sorted(names), \
                f"{workload} trace {trace}: metric names differ"
            for name, unit, *_ in spec:
                assert emitted[name]["unit"] == unit, f"{name} unit"
            if trace:
                shares[workload] = {k: emitted[f"{k}.share"]["value"]
                                    for k in ("landscape", "priors")}
    return shares


def check_shares(shares: dict) -> None:
    # census is a landscape workload too, so it is not off-workload there
    for layer, homes in (("landscape", ("mix", "census")),
                         ("priors", ("posterior",))):
        off = max(shares[w][layer] for w in run.WORKLOADS if w not in homes)
        for home in homes:
            assert shares[home][layer] > off, \
                f"{layer} share on {home} not above off-workload: {shares}"


def _experiment(mode: str, raw: dict, name: str) -> Path:
    import langscape.harness as harness
    out = OUT / name
    harness.run_experiment(harness.validate_config(mode, raw,
                                                   out_dir=str(out)))
    return out


def check_gates() -> None:
    from langscape import generator as gen
    from langscape import landscape as ls
    from langscape import samplers as smp

    # drift cut to a tenth: the chain samples beta = 4, the reference is 40
    original = ls.modified_loss

    def weak(x, z_star, d, params):
        value, grad = original(x, z_star, d, params)
        return value, 0.1 * grad

    ls.modified_loss = weak
    try:
        ((mode, raw),) = workloads.stages("mix", 0)
        out = _experiment(mode, raw, "mix-beta4")
    finally:
        ls.modified_loss = original
    reasons = workloads.gate("mix", 0, [out])
    assert any("final W1" in r for r in reasons), reasons

    # invert at full size: the gate rebuilds all 20 problems from the seed
    ((mode, raw),) = workloads.stages("invert", 0)
    original_grad = gen.empirical_loss_grad
    for factor in (0.1, -1.0):
        def scaled(problem, z, factor=factor):
            value, grad = original_grad(problem, z)
            return value, factor * grad

        gen.empirical_loss_grad = smp.empirical_loss_grad = scaled
        try:
            out = _experiment(mode, raw, f"invert-grad{factor}")
        finally:
            gen.empirical_loss_grad = smp.empirical_loss_grad = original_grad
        reasons = workloads.gate("invert", 0, [out])
        assert any("latent residual" in r for r in reasons), \
            f"gradient x {factor} passed the invert gate"

    out = _experiment(mode, raw, "invert")
    assert workloads.gate("invert", 0, [out]) == [], "invert gate"
    path = out / "invert_runs.csv"
    rows = list(csv.reader(path.open()))
    swapped = [r[:2] + [r[3], r[2]] for r in rows]
    path.write_text("\n".join(",".join(r) for r in swapped) + "\n")
    assert workloads.gate("invert", 0, [out]), "swapped columns passed"

    rows[1][2] = "nan"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    reasons = workloads.gate("invert", 0, [out])
    assert any("non-finite" in r for r in reasons), reasons


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    check_benchmark_json()
    shares = check_emitted()
    check_shares(shares)
    check_gates()
    print("perfbench selftest: ok; layer shares at test size "
          + json.dumps(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
