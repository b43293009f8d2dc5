"""Where the gate bounds in workloads.py come from.

    python3 perfbench/calibrate.py posterior --steps 2000 --seeds 400
    python3 perfbench/calibrate.py invert --seeds 12
    python3 perfbench/calibrate.py mix --seeds 12

Run from the repository root.

``posterior`` is a vectorised replica of the workload's two problems: the
same chains, steps, burn-in and gate statistics as ``posterior_sgld``, but
all seeds at once and with its own random stream.  It prints the
distribution of the three gate statistics over seeds for a correct sampler,
and how often each would be rejected at c10's thresholds and at the gate's.
Set each bound beyond the largest value seen.

``invert`` and ``mix`` run the workload itself through the harness at seeds
0..N-1 and print the gated quantities per seed.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from langscape import diagnostics as diag  # noqa: E402
from langscape import priors  # noqa: E402


def _langevin(Z, grad, eta, steps, rng):
    """Ensemble Langevin; returns the states after burn-in, every 10 steps,
    as the posterior mode keeps them: (seeds, chains * records, dim)."""
    recs = [Z.copy()]
    for t in range(1, steps + 1):
        Z = Z - eta * grad(Z) + math.sqrt(2 * eta) * rng.standard_normal(
            Z.shape)
        if t % 10 == 0:
            recs.append(Z.copy())
    kept = np.stack(recs[len(recs) // 2:], axis=2)
    return kept.reshape(Z.shape[0], -1, Z.shape[-1])


def posterior(steps: int, seeds: int) -> None:
    rng = np.random.default_rng(2206)
    p, y = workloads.CONJ_P, workloads.CONJ_Y
    # N(0, I) prior, unit noise, identity map: grad U = 2 z - y
    X = _langevin(rng.standard_normal((seeds, 8, p)),
                  lambda Z: 2.0 * Z - y, 0.02, steps, rng)
    mean_dev = np.max(np.abs(X.mean(axis=1) - y / 2.0), axis=1)
    cov_dev = np.array([np.max(np.abs(np.cov(x.T) - 0.5 * np.eye(p)))
                        for x in X])
    chain_means = X.reshape(seeds, 8, -1, p).mean(axis=2)
    se = chain_means.std(axis=1, ddof=1) / math.sqrt(8)
    t_stat = np.max(np.abs(chain_means.mean(axis=1) - y / 2.0) / se, axis=1)

    M = np.array(workloads.MIX_G2)
    y2 = np.array(workloads.MIX_Y)
    prior = priors.GaussianMixturePrior(
        weights=np.array(workloads.MIX_PRIOR["prior_weights"]),
        means=np.array(workloads.MIX_PRIOR["prior_means"]),
        variances=np.array(workloads.MIX_PRIOR["prior_variances"]))

    def grad(Z):
        flat = Z.reshape(-1, 2)
        _, score = priors.gmm_log_density_and_score(prior, flat)
        lik = (flat @ M.T - y2) @ M / workloads.MIX_SIGMA ** 2
        return (lik - score).reshape(Z.shape)

    Z0 = priors.sample_prior(prior, seeds * 4, seed=2206).reshape(seeds, 4, 2)
    S = _langevin(Z0, grad, 0.01, steps, rng)
    w1 = np.array([
        diag.sliced_w1(S[i], diag.grid_density_sampler(
            workloads._log_posterior_mixture, ((-4.0, 4.0), (-4.0, 4.0)),
            resolution=300, count=S.shape[1], seed=i).samples,
            projections=128, seed=i + 1)
        for i in range(seeds)])

    print(f"posterior replica: {steps} steps, {seeds} seeds")
    for name, vals, c10, tol in (
            ("conjugate max |mean - y/2|", mean_dev, None,
             workloads.POST_MEAN_TOL),
            ("conjugate max |cov - I/2|", cov_dev, 0.05,
             workloads.POST_COV_TOL),
            ("mixture sliced W1", w1, 0.1, workloads.POST_W1_TOL)):
        q = np.quantile(vals, [0.5, 0.9, 0.99])
        line = (f"  {name:28s} median {q[0]:.4f}  q90 {q[1]:.4f}  "
                f"q99 {q[2]:.4f}  max {vals.max():.4f}")
        if c10 is not None:
            line += f"  >c10 {c10}: {np.mean(vals > c10):.3f}"
        line += f"  >gate {tol}: {np.mean(vals > tol):.3f}"
        print(line)
    print(f"  c10 mean rule (3 SE) rejects {np.mean(t_stat > 3):.3f}")


def _run(name: str, seed: int, out: Path) -> list[Path]:
    import langscape.harness as harness
    outs = []
    for i, (mode, raw) in enumerate(workloads.stages(name, seed)):
        cfg = harness.validate_config(mode, raw, out_dir=str(out / f"{i}"))
        harness.run_experiment(cfg)
        outs.append(out / f"{i}")
    return outs


def invert(seeds: int) -> None:
    print("invert: seed; median over problems of final / start residual, "
          "latent and intermediate; largest of the same; gate reasons")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(seeds):
            (out,) = _run("invert", seed, Path(tmp) / str(seed))
            data = workloads._read_csv(out / "invert_runs.csv")
            start = workloads.invert_start_residuals(seed)
            lat, inter = data[:, 2] / start, data[:, 3] / start
            print(f"  {seed:3d}  {np.median(lat):.4f}  {np.median(inter):.4f}"
                  f"  {lat.max():.4f}  {inter.max():.4f}  "
                  f"{workloads.gate('invert', seed, [out])}")


def mix(seeds: int) -> None:
    print("mix: seed, W1 curve, gate reasons")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(seeds):
            (out,) = _run("mix", seed, Path(tmp) / str(seed))
            w1 = workloads._read_csv(out / "mixing_w1.csv")[:, 1]
            print(f"  {seed:3d}  {np.round(w1, 4).tolist()}  "
                  f"{workloads.gate('mix', seed, [out])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("posterior", "invert", "mix"))
    parser.add_argument("--steps", type=int,
                        default=workloads.POSTERIOR_STEPS)
    parser.add_argument("--seeds", type=int, default=12)
    args = parser.parse_args()
    if args.what == "posterior":
        posterior(args.steps, args.seeds)
    elif args.what == "invert":
        invert(args.seeds)
    else:
        mix(args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
