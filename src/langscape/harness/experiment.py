"""Experiment execution: turn a validated config into files on disk.

Every mode writes a `result.json` carrying the config hash, the resolved
parameters, the list of emitted artifacts, and a compact numeric summary.
Artifacts are CSV (header row, full-precision floats) plus optional
self-contained SVG plots.  Writes are atomic (temp file then rename) and
contain no wall-clock timestamps, so re-running a config byte-reproduces
the output; timing goes to stderr only.  JSON is strict: a value with no
finite form is written as null.  mix, invert and posterior list their
diverged chains or runs in the summary and exit 5.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .. import diagnostics as diag
from .. import generator as gen
from .. import landscape as ls
from .. import priors
from .. import samplers as smp
from . import checks
from .config import ConfigError, ExperimentConfig

__all__ = ["run_experiment"]


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _finite_or_none(v):
    """v with every non-finite float inside it replaced by None."""
    if isinstance(v, dict):
        return {k: _finite_or_none(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_none(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a float with no finite value is written as null."""
    _atomic_write(path, json.dumps(_finite_or_none(obj), indent=2,
                                   sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    _atomic_write(path, "".join(",".join(map(str, row)) + "\n"
                                for row in [header, *rows]))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _write_svg(path: Path, xs, series: dict, title: str) -> None:
    """Minimal polyline plot of the finite points; no external assets."""
    w, h, ml, mr, mt, mb = 640, 400, 60, 20, 30, 40
    all_y = np.concatenate([np.asarray(ys, dtype=float) for ys in series.values()])
    x = np.asarray(xs, dtype=float)
    fx, fy = x[np.isfinite(x)], all_y[np.isfinite(all_y)]
    x_lo, x_hi = (float(fx.min()), float(fx.max())) if fx.size else (0.0, 0.0)
    y_lo, y_hi = (float(fy.min()), float(fy.max())) if fy.size else (0.0, 0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        # a constant curve; past 2**53 adding 1 leaves it unchanged
        y_hi = max(y_lo + 1.0, float(np.nextafter(y_lo, math.inf)))

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (w - ml - mr)

    def sy(v):
        return h - mb - (v - y_lo) / (y_hi - y_lo) * (h - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w // 2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" '
             f'stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" '
             f'stroke="black"/>']
    parts.append(f'<text x="{ml}" y="{h - mb + 18}" font-family="sans-serif" '
                 f'font-size="11">{x_lo:.4g}</text>')
    parts.append(f'<text x="{w - mr}" y="{h - mb + 18}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{x_hi:.4g}</text>')
    parts.append(f'<text x="{ml - 6}" y="{h - mb}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{y_lo:.4g}</text>')
    parts.append(f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{y_hi:.4g}</text>')
    for i, (label, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(x) & np.isfinite(ys)
        if not ok.any():
            continue
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                       for a, b in zip(x[ok], ys[ok]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{w - mr - 4}" y="{mt + 16 + 14 * i}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# mode runners: each returns (artifact names, summary dict, exit code).
# A mode whose experiment the checks also run splits into a workload
# function (params, seed) -> rows, which the check calls too, and a writer.


def _run_landscape(cfg, out: Path):
    p = cfg.params
    d, n = p["d"], p["n"]
    params = ls.ModifiedLossParams.for_depth(d, xi=p["xi"], lam=p["lam"],
                                             beta=p["beta"])
    zs = np.zeros(n)
    zs[0] = 1.0
    r_vals = np.linspace(p["r_max"] / p["r_points"], p["r_max"], p["r_points"])
    t_vals = np.linspace(0.0, math.pi, p["theta_points"])
    # the r-major grid in the (e1, e2) plane; np.cos may differ from
    # math.cos in the last bit
    R, T = (a.ravel() for a in np.meshgrid(r_vals, t_vals, indexing="ij"))
    X = np.zeros((R.size, n))
    X[:, 0] = R * [math.cos(t) for t in T]
    X[:, 1] = R * [math.sin(t) for t in T]
    loss = ls.ideal_loss(X, zs, d)
    try:
        eig = diag.min_hessian_eig(X, zs, d, n)
    except ValueError as exc:
        raise ConfigError(f"config key 'r_max' {p['r_max']!r} is too small: "
                          f"a grid point's squares underflow ({exc})") from exc
    columns = (R, T, loss, ls.modified_loss(X, zs, d, params)[0],
               *ls.potential(X, zs, d, params)[::2], eig)
    rows = list(zip(*(c.tolist() for c in columns)))
    _write_csv(out / "landscape_scan.csv",
               ["r", "theta", "loss", "loss_modified", "potential",
                "generator_functional", "min_hessian_eig"], rows)
    artifacts = ["landscape_scan.csv"]
    if p["svg"]:
        by_r = loss.reshape(r_vals.size, t_vals.size)
        _write_svg(out / "landscape_sections.svg", r_vals,
                   {"theta=0": by_r[:, 0], "theta=pi": by_r[:, -1]},
                   f"loss vs radius (d={d}, n={n})")
        artifacts.append("landscape_sections.svg")
    summary = {"saddle_radius": ls.saddle_radius(d),
               "loss_at_minimizer": float(ls.ideal_loss(zs, zs, d)),
               "grid_points": len(rows)}
    return artifacts, summary, 0


def _deviation_row(size: int, devs) -> tuple:
    devs = np.sort(devs)
    return (int(size), float(np.median(devs)),
            float(devs[int(0.9 * (len(devs) - 1))]), float(devs[-1]))


def _wdc_rows(p: dict, seed: int) -> list[tuple]:
    """(n_rows, median, p90, max) WDC deviation at each layer width."""
    k = p["k"]
    rows = []
    for idx, n in enumerate(p["n_values"]):
        rng = np.random.default_rng((seed, 4, idx))
        devs = []
        for _ in range(p["pairs"]):
            W = rng.standard_normal((n, k)) / math.sqrt(n)
            x = rng.standard_normal(k)
            y = rng.standard_normal(k)
            devs.append(gen.wdc_deviation(W, x, y))
        rows.append(_deviation_row(n, devs))
    return rows


def _rric_rows(p: dict, seed: int) -> list[tuple]:
    """(m, median, p90, max) RRIC deviation at each measurement count."""
    G = gen.build_generator(p["dims"], seed=seed + 1)
    rows = []
    for idx, m in enumerate(p["m_values"]):
        rng = np.random.default_rng((seed, 5, idx))
        devs = []
        for _ in range(p["tuples"]):
            A = gen.gaussian_map(m, p["dims"][-1],
                                 seed=int(rng.integers(2**63)))
            xs = rng.standard_normal((4, p["dims"][0]))
            try:
                devs.append(gen.rric_deviation(A, G, *xs))
            except ValueError as exc:   # G maps two latents to one point
                raise ConfigError(f"config key 'dims' {p['dims']!r} is too "
                                  f"narrow: {exc}") from exc
        rows.append(_deviation_row(m, devs))
    return rows


# mode -> (workload, first CSV column, SVG title)
_DEVIATION = {
    "wdc": (_wdc_rows, "n_rows",
            "directional-curvature deviation vs rows (k={k})"),
    "rric": (_rric_rows, "m",
             "range-restricted isometry deviation vs measurements"),
}


def _run_deviation(cfg, out: Path):
    p = cfg.params
    workload, size_column, title = _DEVIATION[cfg.mode]
    rows = workload(p, cfg.seed)
    name = f"{cfg.mode}_deviation"
    _write_csv(out / f"{name}.csv",
               [size_column, "median_deviation", "p90_deviation",
                "max_deviation"], rows)
    artifacts = [f"{name}.csv"]
    if p["svg"]:
        _write_svg(out / f"{name}.svg", [r[0] for r in rows],
                   {"median": [r[1] for r in rows],
                    "p90": [r[2] for r in rows]}, title.format(**p))
        artifacts.append(f"{name}.svg")
    medians = [r[1] for r in rows]
    summary = {"medians": medians,
               "monotone_decreasing":
                   all(a > b for a, b in zip(medians, medians[1:]))}
    return artifacts, summary, 0


def _mix_curve(p: dict, seed: int):
    """Sliced W1 of a cold-started ensemble to the quadrature reference.

    Returns ([(step, w1)] for every snapshot the run recorded, sorted ids
    of chains that diverged).  Once every chain has stopped the run ends,
    so later snapshots are missing from the curve.
    """
    d, beta = p["d"], p["beta"]
    snapshots = sorted(p["snapshot_steps"])
    zs = np.array([1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(d, beta=beta)

    def pg(Z):
        return ls.modified_loss(Z, zs, d, params)

    z0 = np.tile(np.array([-p["start_radius"], 0.0]), (p["chains"], 1))
    lcfg = smp.LangevinConfig(eta=p["eta"], beta=beta, steps=snapshots[-1],
                              seed=seed + 61,
                              record_every=math.gcd(*snapshots))
    run = smp.run_langevin_ensemble(pg, z0, lcfg)
    ref = diag.reference_grid_sampler(d, beta, grid=p["grid"],
                                      count=p["chains"], seed=seed + 62)
    recorded = set(run.step_indices.tolist())
    rows = [(int(t), float(diag.sliced_w1(run.snapshot(t), ref.samples,
                                          projections=p["projections"],
                                          seed=seed + 63)))
            for t in snapshots if t in recorded]
    return rows, np.nonzero(run.aborted_at >= 0)[0].tolist()


def _run_mix(cfg, out: Path):
    p = cfg.params
    rows, aborted = _mix_curve(p, cfg.seed)
    _write_csv(out / "mixing_w1.csv", ["step", "sliced_w1"], rows)
    artifacts = ["mixing_w1.csv"]
    if p["svg"] and rows:
        _write_svg(out / "mixing_w1.svg", [r[0] for r in rows],
                   {"sliced W1": [r[1] for r in rows]},
                   f"transport distance to reference (beta={p['beta']})")
        artifacts.append("mixing_w1.svg")
    summary = {"final_w1": rows[-1][1] if rows else None,
               "w1_curve": {str(t): w for t, w in rows},
               "aborted_chains": aborted}
    return artifacts, summary, 5 if aborted else 0


def _invert_one(p: dict, seed: int, run_id: int):
    """One random inverse problem solved both ways.

    Returns ((run, observed coords, latent residual, intermediate
    residual), whether either descent diverged).  A diverged descent
    reports the residual of its last recorded finite state.
    """
    dims = p["dims"]
    rng = np.random.default_rng((seed, 11, run_id))
    G = gen.build_generator(dims, seed=int(rng.integers(2**63)))
    z_true = rng.standard_normal(dims[0])
    y = gen.forward(G, z_true)[0]
    if p["noise_sigma"] > 0:
        with np.errstate(over="ignore"):    # an infinite y stops at step 0
            y = y + p["noise_sigma"] * rng.standard_normal(dims[-1])
    m_obs = max(1, round(p["mask_fraction"] * dims[-1]))
    mask = np.zeros(dims[-1], dtype=bool)
    mask[rng.choice(dims[-1], size=m_obs, replace=False)] = True
    problem = gen.InverseProblem(
        generator=G, map=gen.MeasurementMap(matrix=None, m=dims[-1]),
        y=y, noise_sigma=p["noise_sigma"], mask=mask)
    z0 = rng.standard_normal(dims[0])

    def pg(z):
        return gen.empirical_loss_grad(problem, z)

    tr_c = smp.run_gd(pg, z0, eta=p["eta_csgm"], steps=p["steps"],
                      record_every=p["steps"])
    tr_i = smp.run_ilo_baseline(problem, split_layer=p["split_layer"],
                                radius=p["radius"], eta=p["eta_ilo"],
                                steps=p["steps"], z0=z0)
    row = (run_id, m_obs, math.sqrt(2.0 * float(tr_c.losses[-1])),
           math.sqrt(2.0 * float(tr_i.losses[-1])))
    return row, tr_c.aborted_at is not None or tr_i.aborted_at is not None


def _invert_rows(p: dict, seed: int):
    """Rows of every run in run order, and the ids of diverged runs."""
    done = [_invert_one(p, seed, r) for r in range(p["runs"])]
    return ([row for row, _ in done],
            [row[0] for row, diverged in done if diverged])


def _run_invert(cfg, out: Path):
    p = cfg.params
    rows, aborted = _invert_rows(p, cfg.seed)
    _write_csv(out / "invert_runs.csv",
               ["run", "observed_coords", "residual_latent_descent",
                "residual_intermediate_projected"], rows)
    artifacts = ["invert_runs.csv"]
    med_c = float(np.median([r[2] for r in rows]))
    med_i = float(np.median([r[3] for r in rows]))
    if p["svg"]:
        _write_svg(out / "invert_residuals.svg",
                   list(range(len(rows))),
                   {"latent descent": sorted(r[2] for r in rows),
                    "intermediate projected": sorted(r[3] for r in rows)},
                   "sorted residuals across runs")
        artifacts.append("invert_residuals.svg")
    summary = {"median_residual_latent": med_c,
               "median_residual_intermediate": med_i,
               "intermediate_beats_latent": med_i < med_c,
               "aborted_runs": aborted}
    return artifacts, summary, 5 if aborted else 0


def _prior(p: dict) -> priors.GaussianMixturePrior:
    return priors.GaussianMixturePrior(
        weights=np.asarray(p["prior_weights"], dtype=float),
        means=np.asarray(p["prior_means"], dtype=float),
        variances=np.asarray(p["prior_variances"], dtype=float))


def _posterior_chains(p: dict, seed: int):
    """SGLD chains on the posterior in one batch; chain c is seeded
    seed + 101 + c.

    Returns (the kept second half of each chain's records before any
    divergence, sorted ids of chains that diverged).
    """
    prior = _prior(p)
    y = np.asarray(p["y"], dtype=float)
    g2 = None if p["g2"] == "identity" else p["g2"]
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=g2, m=len(y)),
        y=y, noise_sigma=p["sigma"])
    lcfg = smp.LangevinConfig(eta=p["eta"], beta=1.0, steps=p["steps"],
                              seed=seed + 101, record_every=p["record_every"])
    run = smp.posterior_sgld(problem, prior, lcfg, chains=p["chains"],
                             likelihood_weight=p["likelihood_weight"])
    ends = np.where(run.aborted_at >= 0,
                    np.searchsorted(run.step_indices, run.aborted_at),
                    len(run.step_indices))
    kept = [run.states[end // 2:end, c] for c, end in enumerate(ends)]
    return kept, np.nonzero(run.aborted_at >= 0)[0].tolist()


def _run_posterior(cfg, out: Path):
    p = cfg.params
    kept, aborted = _posterior_chains(p, cfg.seed)
    rows = [(c, *map(float, state))
            for c, states in enumerate(kept) for state in states]
    pooled = np.concatenate(kept)
    dim = pooled.shape[1]
    _write_csv(out / "posterior_samples.csv",
               ["chain"] + [f"x{i}" for i in range(dim)], rows)
    # null when every chain stopped before its first kept record
    mean = pooled.mean(axis=0).tolist() if len(pooled) else None
    cov = np.cov(pooled.T).reshape(dim, dim).tolist() \
        if len(pooled) > 1 else None
    summary = {"sample_count": len(pooled), "mean": mean, "cov": cov,
               "aborted_chains": aborted}
    artifacts = ["posterior_samples.csv"]
    if p["svg"] and len(pooled):
        qs = np.linspace(0.0, 1.0, 201)
        series = {f"x{i}": np.quantile(pooled[:, i], qs)
                  for i in range(dim)}
        _write_svg(out / "posterior_marginals.svg", qs, series,
                   "pooled marginal quantiles after burn-in")
        artifacts.append("posterior_marginals.svg")
    return artifacts, summary, 5 if aborted else 0


def _run_theory_check(cfg, out: Path):
    p = cfg.params
    ids = p["checks"] or None
    t0 = time.monotonic()
    results = checks.theory_check_suite(cfg.seed, ids)
    records = []
    for r in results:
        records.append(r.record())
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.check_id}: {status} (statistic {r.statistic:.6g}, "
              f"bound {r.bound:.6g})")
    all_pass = all(r.passed for r in results)
    report = {"seed": cfg.seed, "all_pass": all_pass, "checks": records}
    _write_json(out / "theory_report.json", report)
    print(f"theory-check: {sum(r.passed for r in results)}/{len(results)} "
          f"passed in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    summary = {"all_pass": all_pass,
               "failed": [r.check_id for r in results if not r.passed]}
    return ["theory_report.json"], summary, 0 if all_pass else 3


_RUNNERS = {"landscape": _run_landscape, "wdc": _run_deviation,
            "rric": _run_deviation, "mix": _run_mix, "invert": _run_invert,
            "posterior": _run_posterior, "theory-check": _run_theory_check}


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one validated config; returns the process exit code."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    artifacts, summary, code = _RUNNERS[config.mode](config, out)
    result = {"mode": config.mode, "config_hash": config.hash(),
              "params": config.params, "artifacts": sorted(artifacts),
              "summary": summary}
    _write_json(out / "result.json", result)
    print(f"[{config.mode}] wrote {len(artifacts) + 1} files to {out} "
          f"in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return code
