"""The four benchmark workloads and the gate each run's artifacts must pass.

Every workload is a list of stages; a stage is one (mode, raw config) pair
handed to ``validate_config`` + ``run_experiment``, the path the CLI takes.
The workload seed is the config ``seed``; seed 0 reproduces the checks the
stages are taken from.  Sizes are cut to fit a run of about 30 s (see
README.md for what was cut and why).

A gate receives the stage output directories of one experiment and returns
a list of reasons it failed (empty when it passed).  Gate time is never
part of ``wall_s``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from langscape import diagnostics as diag
from langscape import generator as gen
from langscape import priors

CENSUS_CHECKS = ["c01_gradient_fd", "c02_census", "c03_convexity_ball"]

# c10's two posterior problems.  The mixture stage adds 30 to the seed so
# that its chains use c10's mixture seeds (seed + 131 + c).
CONJ_P = 8
CONJ_Y = 1.4
MIX_PRIOR = {"prior_weights": [0.5, 0.5],
             "prior_means": [[-1.5, 0.0], [1.5, 0.5]],
             "prior_variances": [0.4, 0.3]}
MIX_G2 = [[1.0, 0.3], [-0.2, 0.8]]
MIX_Y = [0.5, -0.3]
MIX_SIGMA = 0.7

MIX_SNAPSHOTS = [100, 1000, 10_000, 20_000]
MIX_CHAINS = 200
POSTERIOR_STEPS = 2000
INVERT = {"dims": [8, 64, 2048], "runs": 20, "steps": 300, "eta_csgm": 1.0,
          "eta_ilo": 1.0, "radius": 5.0, "split_layer": 1,
          "mask_fraction": 0.0075}
# Invert tolerances on the median over problems of final residual / start
# residual.  Seeds 0-39 give at most 0.617 (latent) and 0.506
# (intermediate), see calibrate.py; a gradient scaled by 0.1 gives 0.80-0.87
# on the latent descent, a negated one ends far above the start.
INVERT_LATENT_TOL = 0.75
INVERT_INTER_TOL = 0.65

# Posterior tolerances.  c10's frozen thresholds (3 SE, 0.05, 0.1) hold at
# its own seed and 30k steps; at arbitrary seeds they reject a correct
# sampler often (README.md gives the measured rates).  These bounds sit
# beyond the largest value seen over 400 replica seeds at 2000 steps
# (calibrate.py posterior: 0.190, 0.175, 0.400).
POST_MEAN_TOL = 0.25
POST_COV_TOL = 0.22
POST_W1_TOL = 0.5


def stages(name: str, seed: int, scale: float = 1.0) -> list[tuple[str, dict]]:
    """(mode, raw config) pairs of one experiment; scale < 1 shrinks it."""
    if name == "mix":
        snaps = [max(1, int(s * scale)) for s in MIX_SNAPSHOTS]
        return [("mix", {"seed": seed, "snapshot_steps": snaps,
                         "chains": max(8, int(MIX_CHAINS * scale))})]
    if name == "posterior":
        steps = max(20, int(POSTERIOR_STEPS * scale))
        conj = {"seed": seed, "prior_weights": [1.0],
                "prior_means": [[0.0] * CONJ_P], "prior_variances": [1.0],
                "y": [CONJ_Y] * CONJ_P, "sigma": 1.0, "eta": 0.02,
                "steps": steps, "chains": 8, "record_every": 10}
        mixture = {"seed": seed + 30, **MIX_PRIOR, "g2": MIX_G2, "y": MIX_Y,
                   "sigma": MIX_SIGMA, "eta": 0.01, "steps": steps,
                   "chains": 4, "record_every": 10}
        return [("posterior", conj), ("posterior", mixture)]
    if name == "census":
        return [("theory-check", {"seed": seed, "checks": CENSUS_CHECKS})]
    if name == "invert":
        cfg = dict(INVERT, seed=seed)
        if scale < 1.0:
            cfg.update(runs=max(2, int(20 * scale)),
                       steps=max(10, int(300 * scale)))
        return [("invert", cfg)]
    raise KeyError(f"unknown workload {name!r}")


def work_units(name: str, seed: int, scale: float = 1.0) -> int:
    """Work one experiment completes: chain steps, or checks for census."""
    total = 0
    for mode, raw in stages(name, seed, scale):
        if mode == "mix":
            total += raw["chains"] * max(raw["snapshot_steps"])
        elif mode == "posterior":
            total += raw["chains"] * raw["steps"]
        elif mode == "invert":
            total += raw["runs"] * raw["steps"] * 2
        else:
            total += len(raw["checks"])
    return total


# ---------------------------------------------------------------------------
# artifact readers


def _read_csv(path: Path) -> np.ndarray:
    """Data rows of a harness CSV as a (rows, columns) float array."""
    lines = path.read_text().splitlines()
    columns = len(lines[0].split(","))
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return np.array(rows, dtype=float).reshape(len(rows), columns)


def _json_numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _json_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v)


def _nonfinite(out: Path) -> list[str]:
    bad = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            data = _read_csv(path)
            if not np.all(np.isfinite(data)):
                bad.append(f"{path.name}: non-finite value")
        elif path.suffix == ".json":
            nums = list(_json_numbers(json.loads(path.read_text())))
            if not all(math.isfinite(v) for v in nums):
                bad.append(f"{path.name}: non-finite value")
    return bad


# ---------------------------------------------------------------------------
# gates


def _gate_mix(outs):
    (out,) = outs
    data = _read_csv(out / "mixing_w1.csv")
    w1 = data[:, 1]
    reasons = []
    if not all(w1[i + 1] <= 1.10 * w1[i] for i in range(len(w1) - 1)):
        reasons.append(f"W1 curve not nonincreasing within 10%: {w1.tolist()}")
    if not w1[-1] <= 0.1:
        reasons.append(f"final W1 {w1[-1]:.4f} > 0.1")
    return reasons


def _log_posterior_mixture(Z):
    prior = priors.GaussianMixturePrior(
        weights=np.array(MIX_PRIOR["prior_weights"]),
        means=np.array(MIX_PRIOR["prior_means"]),
        variances=np.array(MIX_PRIOR["prior_variances"]))
    r = Z @ np.array(MIX_G2).T - np.array(MIX_Y)
    logp, _ = priors.gmm_log_density_and_score(prior, Z)
    return -0.5 * np.sum(r * r, axis=-1) / MIX_SIGMA ** 2 + logp


def _gate_posterior(outs, seed: int):
    conj, mixture = outs
    reasons = []
    data = _read_csv(conj / "posterior_samples.csv")
    X = data[:, 1:]
    mean_dev = float(np.max(np.abs(X.mean(axis=0) - CONJ_Y / 2.0)))
    if not mean_dev <= POST_MEAN_TOL:
        reasons.append(f"conjugate max |mean - y/2| {mean_dev:.4f} "
                       f"> {POST_MEAN_TOL}")
    cov_dev = float(np.max(np.abs(np.cov(X.T) - 0.5 * np.eye(CONJ_P))))
    if not cov_dev <= POST_COV_TOL:
        reasons.append(f"conjugate max |cov - I/2| {cov_dev:.4f} "
                       f"> {POST_COV_TOL}")
    data = _read_csv(mixture / "posterior_samples.csv")
    S = data[:, 1:]
    ref = diag.grid_density_sampler(_log_posterior_mixture,
                                    ((-4.0, 4.0), (-4.0, 4.0)),
                                    resolution=300, count=len(S),
                                    seed=seed + 139)
    w1 = diag.sliced_w1(S, ref.samples, projections=128, seed=seed + 140)
    if not w1 <= POST_W1_TOL:
        reasons.append(f"mixture sliced W1 {w1:.4f} > {POST_W1_TOL}")
    return reasons


def _gate_census(outs):
    (out,) = outs
    report = json.loads((out / "theory_report.json").read_text())
    if report["all_pass"] is not True:
        failed = [c["check_id"] for c in report["checks"] if not c["pass"]]
        return [f"census checks failed: {failed}"]
    return []


def invert_start_residuals(seed: int) -> np.ndarray:
    """Observed-coordinate residual at each problem's starting latent z0.

    Rebuilds every problem from the seed with the draws the invert mode
    makes (generator seed, z_true, mask, z0; no noise at noise_sigma 0) and
    costs one forward pass per problem, no gradient.
    """
    dims = INVERT["dims"]
    m_obs = max(1, round(INVERT["mask_fraction"] * dims[-1]))
    out = []
    for run_id in range(INVERT["runs"]):
        rng = np.random.default_rng((seed, 11, run_id))
        G = gen.build_generator(dims, seed=int(rng.integers(2**63)))
        y = gen.forward(G, rng.standard_normal(dims[0]))[0]
        obs = rng.choice(dims[-1], size=m_obs, replace=False)
        z0 = rng.standard_normal(dims[0])
        out.append(float(np.linalg.norm((gen.forward(G, z0)[0] - y)[obs])))
    return np.array(out)


def _gate_invert(outs, seed: int):
    (out,) = outs
    data = _read_csv(out / "invert_runs.csv")
    if data[:, 0].tolist() != list(range(INVERT["runs"])):
        return [f"invert_runs.csv runs {data[:, 0].tolist()}"]
    start = invert_start_residuals(seed)
    reasons = []
    for col, label, tol in ((2, "latent", INVERT_LATENT_TOL),
                            (3, "intermediate", INVERT_INTER_TOL)):
        ratio = data[:, col] / start
        worse = np.nonzero(~(ratio < 1.0))[0].tolist()
        if worse:
            reasons.append(f"{label} residual not below the start residual "
                           f"on runs {worse}")
        med = float(np.median(ratio))
        if not med <= tol:
            reasons.append(f"median {label} residual / start {med:.4f} "
                           f"> {tol}")
    s = json.loads((out / "result.json").read_text())["summary"]
    if (s["median_residual_latent"] != float(np.median(data[:, 2]))
            or s["median_residual_intermediate"]
            != float(np.median(data[:, 3]))):
        reasons.append("result.json medians differ from invert_runs.csv")
    return reasons


def gate(name: str, seed: int, outs: list[Path]) -> list[str]:
    """Reasons the artifacts of one experiment fail (empty: passed)."""
    reasons = []
    for out in outs:
        reasons += _nonfinite(out)
    if reasons:
        return reasons
    if name == "mix":
        return _gate_mix(outs)
    if name == "posterior":
        return _gate_posterior(outs, seed)
    if name == "census":
        return _gate_census(outs)
    return _gate_invert(outs, seed)
