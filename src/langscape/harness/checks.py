"""The twelve primary verification checks behind the acceptance gate.

Each check is a deterministic function of a seed returning a CheckResult
with a measured statistic, the bound it is held against, an optional
confidence interval, and a pass flag.  The CLI theory-check mode and the
acceptance test suite both run these same functions, so there is exactly
one definition of every pass threshold.  Checks that test a CLI mode's
experiment (c04 wdc/rric, c06 mix, c10 posterior, c11 invert) run that
mode's own workload function on a frozen config, so every workload has
one definition too.

Workloads are sized to the stated runtime budgets; Monte-Carlo
configurations were calibrated once against the analytic oracles and then
frozen (seeds included).
"""

from __future__ import annotations

import filecmp
import math
import tempfile
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .. import diagnostics as diag
from .. import generator as gen
from .. import landscape as ls
from .. import priors
from .. import samplers as smp
from . import experiment
from .config import validate_config

__all__ = ["CheckResult", "CHECK_IDS", "theory_check_suite"]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    statistic: float
    bound: float
    ci_low: float | None
    ci_high: float | None
    passed: bool
    detail: str

    def record(self) -> dict:
        """JSON-ready dict; a non-finite statistic is written as None."""
        d = asdict(self)
        d["pass"] = d.pop("passed")
        if not math.isfinite(self.statistic):
            d["statistic"] = None
        return d


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _sample_away_from_critical(rng, count, n, d, r_lo=0.15, r_hi=2.5,
                               exclusion=0.05):
    """Points with radius in [r_lo, r_hi] (units of ||z*||=1) at least
    `exclusion` from z* = e1 and the saddle."""
    A = ls.saddle_radius(d)
    zs = np.zeros(n)
    zs[0] = 1.0
    out = np.zeros((0, n))
    while len(out) < count:
        dirs = rng.standard_normal((count, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = dirs * rng.uniform(r_lo, r_hi, size=count)[:, None]
        keep = (np.linalg.norm(x - zs, axis=1) > exclusion) \
            & (np.linalg.norm(x + A * zs, axis=1) > exclusion)
        out = np.concatenate([out, x[keep]])
    return out[:count]


# ---------------------------------------------------------------------------
# c01: finite-difference fidelity of gradient and Hessian-vector products


def c01_gradient_fd(seed: int, grad_fn=None) -> CheckResult:
    """Max relative FD error of the gradient and Hessian-vector product
    over ~1e4 random (d, n, x, z*) configurations.

    grad_fn overrides the gradient under test (mutation hook used by the
    harness tests to prove the check can fail).
    """
    if grad_fn is None:
        grad_fn = ls.ideal_gradient
    worst = 0.0
    per_combo = 1112
    for d in (2, 3, 4):
        for n in (2, 10, 50):
            rng = np.random.default_rng((seed, d, n))
            s = rng.uniform(0.5, 2.0)
            z_star = s * _unit(rng.standard_normal(n))
            X = s * _sample_away_from_critical(rng, per_combo, n, d)
            # rotate e1 onto z_star's direction: reflect across bisector
            u = _unit(_unit(z_star) + np.eye(n)[0])
            X = X - 2.0 * np.outer(X @ u, u)

            g = grad_fn(X, z_star, d)
            h = 1e-6 * s
            fd = np.zeros_like(g)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[:, i] = (ls.ideal_loss(X + e, z_star, d)
                            - ls.ideal_loss(X - e, z_star, d)) / (2 * h)
            rel = np.linalg.norm(fd - g, axis=1) \
                / np.maximum(np.linalg.norm(g, axis=1), 1e-4)
            worst = max(worst, float(rel.max()))

            V = rng.standard_normal(X.shape)
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            fd_hv = (grad_fn(X + h * V, z_star, d)
                     - grad_fn(X - h * V, z_star, d)) / (2 * h)
            hv = ls.hessian_vector_product(X, z_star, d, V)
            rel_hv = np.linalg.norm(fd_hv - hv, axis=1) \
                / np.maximum(np.linalg.norm(hv, axis=1), 1e-4)
            worst = max(worst, float(rel_hv.max()))
    return CheckResult("c01_gradient_fd", statistic=worst, bound=1e-5,
                       ci_low=None, ci_high=None, passed=worst <= 1e-5,
                       detail=f"max relative FD error over "
                              f"{9 * per_combo} configs (grad and Hv)")


# ---------------------------------------------------------------------------
# c02: critical-point census


def c02_census(seed: int) -> CheckResult:
    n = 6
    crit_worst = 0.0
    floor = math.inf
    details = []
    for d in (2, 3, 4):
        rng = np.random.default_rng((seed, d))
        zs = _unit(rng.standard_normal(n))
        A = ls.saddle_radius(d)
        for point in (zs, -A * zs, np.zeros(n)):
            gn = float(np.linalg.norm(ls.ideal_gradient(point, zs, d)))
            crit_worst = max(crit_worst, gn)
        count = 100_000
        dirs = rng.standard_normal((count, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        X = dirs * (3.0 * rng.random(count) ** (1.0 / n))[:, None]
        keep = (np.linalg.norm(X - zs, axis=1) >= 0.1) \
            & (np.linalg.norm(X + A * zs, axis=1) >= 0.1) \
            & (np.linalg.norm(X, axis=1) >= 0.1)
        gn = np.linalg.norm(ls.ideal_gradient(X[keep], zs, d), axis=1)
        floor = min(floor, float(gn.min()))
        details.append(f"d={d}: floor {gn.min():.3e} over {keep.sum()} pts")
    saddle_err = abs(ls.saddle_radius(2) - 1.0 / math.pi)
    passed = crit_worst <= 1e-8 and floor > 0.0 and saddle_err <= 1e-12
    return CheckResult("c02_census", statistic=floor, bound=0.0,
                       ci_low=None, ci_high=None, passed=passed,
                       detail=f"max grad at critical points {crit_worst:.2e}; "
                              f"|cos(g^2(pi)) - 1/pi| = {saddle_err:.1e}; "
                              + "; ".join(details))


# ---------------------------------------------------------------------------
# c03: strong convexity around the minimizer


def c03_convexity_ball(seed: int) -> CheckResult:
    n = 8
    radii = []
    id_worst = 0.0
    interior_ok = True
    for d in (2, 3):
        rng = np.random.default_rng((seed, d))
        zs = _unit(rng.standard_normal(n))
        H = ls.hessian_vector_product(np.tile(zs, (n, 1)), zs, d, np.eye(n))
        id_worst = max(id_worst, float(np.max(np.abs(H - np.eye(n)))))

        def shell_min(l, trials=300):
            dirs = rng.standard_normal((trials, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            return diag.min_hessian_eig(zs + l * dirs, zs, d, n).min()

        lo, hi = 0.0, 1.0
        for _ in range(18):
            mid = 0.5 * (lo + hi)
            if shell_min(mid) >= 0.9:
                lo = mid
            else:
                hi = mid
        l_hat = lo * 0.98          # step inside the measured boundary
        radii.append(l_hat)
        dirs = rng.standard_normal((1500, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = zs + dirs * (l_hat * rng.random(1500) ** (1.0 / n))[:, None]
        eigs = diag.min_hessian_eig(pts, zs, d, n)
        interior_ok = interior_ok and bool(np.all(eigs >= 0.9))
    stat = min(radii)
    passed = id_worst <= 1e-8 and interior_ok and stat >= 0.05
    return CheckResult("c03_convexity_ball", statistic=stat, bound=0.05,
                       ci_low=None, ci_high=None, passed=passed,
                       detail=f"Hessian-at-minimizer max |H - I| = "
                              f"{id_worst:.2e}; measured radii "
                              f"{[round(r, 4) for r in radii]} (d=2,3); "
                              f"interior min-eig >= 0.9: {interior_ok}")


# ---------------------------------------------------------------------------
# c04: WDC / RRIC concentration


def c04_wdc_rric(seed: int) -> CheckResult:
    wdc = validate_config("wdc", {"k": 3, "n_values": [256, 1024, 4096],
                                  "pairs": 200}).params
    rric = validate_config("rric", {"dims": [8, 64, 128],
                                    "m_values": [16, 64, 256],
                                    "tuples": 200}).params
    wdc_medians = [r[1] for r in experiment._wdc_rows(wdc, seed)]
    rric_medians = [r[1] for r in experiment._rric_rows(rric, seed)]
    wdc_ok = wdc_medians[0] > wdc_medians[1] > wdc_medians[2]
    rric_ok = rric_medians[0] > rric_medians[1] > rric_medians[2]
    drops = [a - b for a, b in zip(wdc_medians[:-1], wdc_medians[1:])] \
        + [a - b for a, b in zip(rric_medians[:-1], rric_medians[1:])]
    return CheckResult("c04_wdc_rric", statistic=min(drops), bound=0.0,
                       ci_low=None, ci_high=None, passed=wdc_ok and rric_ok,
                       detail=f"WDC medians {[round(v, 4) for v in wdc_medians]} "
                              f"(n=256,1024,4096); RRIC medians "
                              f"{[round(v, 4) for v in rric_medians]} "
                              f"(m=16,64,256)")


# ---------------------------------------------------------------------------
# c05: empirical-vs-idealized gradient proximity


def c05_gradient_proximity(seed: int) -> CheckResult:
    k, d = 4, 2
    rng = np.random.default_rng((seed, 55))
    z_star = _unit(rng.standard_normal(k))
    medians = []
    for expansion in (4, 16, 64):
        dims = [k, k * expansion, k * expansion * expansion]
        G = gen.build_generator(dims, seed=seed + expansion)
        rep = gen.gradient_proximity(G, None, z_star, sample_count=200,
                                     seed=seed + 9)
        medians.append(rep.median_ratio)
    ok = medians[0] > medians[1] > medians[2]
    return CheckResult("c05_gradient_proximity",
                       statistic=min(a - b for a, b in zip(medians, medians[1:])),
                       bound=0.0, ci_low=None, ci_high=None, passed=ok,
                       detail=f"median ratios {[round(v, 4) for v in medians]} "
                              f"at expansion 4, 16, 64")


# ---------------------------------------------------------------------------
# c06: mixing against the quadrature reference (n = 2)


def c06_mixing(seed: int) -> CheckResult:
    mix = validate_config("mix", {
        "d": 2, "beta": 40.0, "eta": 1e-3, "chains": 200,
        "snapshot_steps": [100, 1000, 10_000, 100_000], "grid": 192,
        "projections": 128, "start_radius": 2.0}).params
    rows, _ = experiment._mix_curve(mix, seed)
    w1s = [w for _, w in rows]
    monotone = all(w1s[i + 1] <= 1.10 * w1s[i] for i in range(len(w1s) - 1))
    passed = monotone and w1s[-1] <= 0.1
    return CheckResult("c06_mixing", statistic=w1s[-1], bound=0.1,
                       ci_low=None, ci_high=None, passed=passed,
                       detail=f"sliced W1 at t={[t for t, _ in rows]}: "
                              f"{[round(v, 4) for v in w1s]}; "
                              f"nonincreasing within 10%: {monotone}")


# ---------------------------------------------------------------------------
# c07: escape (no approach to the origin) and norm growth bound


def c07_escape(seed: int) -> CheckResult:
    d, n, beta, eta, chains = 2, 8, 80.0, 5e-3, 500
    steps = 1200
    zs = np.zeros(n)
    zs[0] = 1.0
    A = ls.saddle_radius(d)
    params = ls.ModifiedLossParams.for_depth(d, beta=beta)

    def pg(Z):
        return ls.modified_loss(Z, zs, d, params)

    rng = np.random.default_rng((seed, 7))
    dirs = rng.standard_normal((chains, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z0 = 0.5 * A * dirs
    cfg = smp.LangevinConfig(eta=eta, beta=beta, steps=steps,
                             seed=seed + 71, record_every=25)
    run = smp.run_langevin_ensemble(pg, z0, cfg)
    rep = diag.tail_statistics(run, beta=beta, eta=eta, A=A, a=0.2)
    passed = (rep.escape_ci_high <= rep.escape_bound + 0.05
              and rep.norm_exceed_frequency == 0.0)
    return CheckResult("c07_escape", statistic=rep.escape_ci_high,
                       bound=rep.escape_bound + 0.05,
                       ci_low=rep.escape_ci_low, ci_high=rep.escape_ci_high,
                       passed=passed,
                       detail=f"escape freq {rep.escape_frequency:.4f} vs "
                              f"bound {rep.escape_bound:.4f}+0.05; norm-bound "
                              f"exceedances {rep.norm_exceed_frequency}")


# ---------------------------------------------------------------------------
# c08: hitting-time scaling in the step size


def c08_hitting_time(seed: int) -> CheckResult:
    d, n, beta = 2, 8, 80.0
    chains = 50
    zs = np.zeros(n)
    zs[0] = 1.0
    region = diag.RegionSpec(center=zs, radius=0.3)
    z0_single = 1.3 * (math.cos(2.6) * np.eye(n)[0] + math.sin(2.6) * np.eye(n)[1])
    z0 = np.tile(z0_single, (chains, 1))

    def pg(Z):
        return ls.ideal_loss(Z, zs, d), ls.ideal_gradient(Z, zs, d)

    medians = {}
    for eta, steps in ((0.02, 6000), (0.01, 12_000)):
        cfg = smp.LangevinConfig(eta=eta, beta=beta, steps=steps,
                                 seed=seed + 81, record_every=1)
        taus = diag.hitting_time(smp.run_langevin_ensemble(pg, z0, cfg),
                                 region)
        if np.any(taus < 0):
            return CheckResult("c08_hitting_time", statistic=math.nan,
                               bound=2.8, ci_low=None, ci_high=None,
                               passed=False,
                               detail=f"{np.count_nonzero(taus < 0)} chains "
                                      f"never hit at eta={eta}")
        medians[eta] = float(np.median(taus))
    ratio = medians[0.01] / medians[0.02]
    passed = 1.4 <= ratio <= 2.8 and medians[0.01] > medians[0.02]
    return CheckResult("c08_hitting_time", statistic=ratio, bound=2.8,
                       ci_low=None, ci_high=None, passed=passed,
                       detail=f"median tau eta=0.02: {medians[0.02]:.0f}, "
                              f"eta=0.01: {medians[0.01]:.0f}; ratio in "
                              f"[1.4, 2.8]")


# ---------------------------------------------------------------------------
# c09: coupled contraction and discretization-gap scaling


def c09_contraction_discretization(seed: int) -> CheckResult:
    mu, s = 0.5, 2.0
    a = np.linspace(mu, s, 6)

    def pg(Z):
        return 0.5 * np.sum(a * Z * Z, axis=-1), a * Z

    worst_excess = -math.inf
    for eta in (0.3, 2.0 / (s + mu)):
        bound = 1.0 - eta * s * mu / (s + mu) + 1e-12
        cfg = smp.LangevinConfig(eta=eta, beta=5.0, steps=300,
                                 seed=seed + 91, record_every=1)
        pair = smp.coupled_pair(pg, np.ones(6), -0.7 * np.ones(6), cfg)
        dist = np.linalg.norm(pair.states[:, 0] - pair.states[:, 1], axis=1)
        # shared noise makes the pair merge to bitwise equality; stop
        # checking once the gap reaches rounding scale
        live = dist[:-1] > 1e-9
        ratios = dist[1:][live] / dist[:-1][live]
        worst_excess = max(worst_excess, float(np.max(ratios - bound)))
    contraction_ok = worst_excess <= 0.0

    quad = lambda Z: (0.5 * np.sum(Z * Z, axis=-1), Z)
    g_coarse = diag.discretization_gap(quad, np.ones(4), eta=0.1,
                                       refinement=64, T_steps=40,
                                       trials=200, seed=seed + 92, beta=4.0)
    g_fine = diag.discretization_gap(quad, np.ones(4), eta=0.025,
                                     refinement=64, T_steps=160,
                                     trials=200, seed=seed + 93, beta=4.0)
    ratio = g_coarse / g_fine
    passed = contraction_ok and 1.5 <= ratio <= 2.8
    return CheckResult("c09_contraction_discretization", statistic=ratio,
                       bound=2.8, ci_low=None, ci_high=None, passed=passed,
                       detail=f"max per-step contraction excess "
                              f"{worst_excess:.2e} (<= 0); gap "
                              f"{g_coarse:.4f}/{g_fine:.4f} ratio "
                              f"{ratio:.3f} in [1.5, 2.8]")


# ---------------------------------------------------------------------------
# c10: posterior sampling oracles


def c10_posterior_oracles(seed: int) -> CheckResult:
    # conjugate part: G2 = I, A = I, sigma = 1, prior N(0, I)
    p, chains = 8, 8
    y = np.full(p, 1.4)
    conj = validate_config("posterior", {
        "prior_weights": [1.0], "prior_means": [[0.0] * p],
        "prior_variances": [1.0], "y": y.tolist(), "sigma": 1.0,
        "eta": 0.02, "steps": 30_000, "chains": chains,
        "record_every": 10}).params
    kept, _ = experiment._posterior_chains(conj, seed)
    chain_means = np.array([k.mean(axis=0) for k in kept])
    pooled = np.concatenate(kept)
    se = chain_means.std(axis=0, ddof=1) / math.sqrt(chains)
    mean_dev = np.abs(pooled.mean(axis=0) - y / 2.0)
    mean_ok = bool(np.all(mean_dev <= 3.0 * se))
    cov_dev = float(np.max(np.abs(np.cov(pooled.T) - 0.5 * np.eye(p))))
    cov_ok = cov_dev <= 0.05

    # mixture part: 2-component prior, linear G2, quadrature reference
    mix = validate_config("posterior", {
        "prior_weights": [0.5, 0.5], "prior_means": [[-1.5, 0.0], [1.5, 0.5]],
        "prior_variances": [0.4, 0.3], "g2": [[1.0, 0.3], [-0.2, 0.8]],
        "y": [0.5, -0.3], "sigma": 0.7, "eta": 0.01, "steps": 30_000,
        "chains": 4, "record_every": 10}).params
    # the mode seeds chain c with seed + 101 + c, so these chains keep the
    # frozen seeds seed + 131 + c
    kept2, _ = experiment._posterior_chains(mix, seed + 30)
    samples = np.concatenate(kept2)
    prior2 = experiment._prior(mix)
    M, y2 = np.array(mix["g2"]), np.array(mix["y"])

    def log_post(Z):
        r = Z @ M.T - y2
        logp, _ = priors.gmm_log_density_and_score(prior2, Z)
        return -0.5 * np.sum(r * r, axis=-1) / mix["sigma"]**2 + logp

    ref = diag.grid_density_sampler(log_post, ((-4.0, 4.0), (-4.0, 4.0)),
                                    resolution=300, count=len(samples),
                                    seed=seed + 139)
    w1 = diag.sliced_w1(samples, ref.samples, projections=128,
                        seed=seed + 140)
    passed = mean_ok and cov_ok and w1 <= 0.1
    return CheckResult("c10_posterior_oracles", statistic=w1, bound=0.1,
                       ci_low=None, ci_high=None, passed=passed,
                       detail=f"conjugate: max |mean - y/2| / SE = "
                              f"{float(np.max(mean_dev / se)):.2f} (<= 3), "
                              f"max |cov - I/2| = {cov_dev:.4f} (<= 0.05); "
                              f"mixture posterior sliced W1 = {w1:.4f}")


# ---------------------------------------------------------------------------
# c11: baseline ordering at 0.75% observed coordinates


def c11_baseline_ordering(seed: int) -> CheckResult:
    inv = validate_config("invert", {
        "dims": [8, 64, 2048], "runs": 20, "steps": 300,
        "mask_fraction": 0.0075, "eta_csgm": 1.0, "eta_ilo": 1.0,
        "radius": 5.0, "split_layer": 1}).params
    rows, _ = experiment._invert_rows(inv, seed)
    med_c = float(np.median([r[2] for r in rows]))
    med_i = float(np.median([r[3] for r in rows]))
    passed = med_i < med_c
    return CheckResult("c11_baseline_ordering", statistic=med_i, bound=med_c,
                       ci_low=None, ci_high=None, passed=passed,
                       detail=f"median residual over {inv['runs']} runs at "
                              f"{rows[0][1]}/{inv['dims'][-1]} observed: "
                              f"l1-projected intermediate {med_i:.4f} < "
                              f"latent-only {med_c:.4f}")


# ---------------------------------------------------------------------------
# c12: CLI determinism across every mode


def c12_determinism(seed: int) -> CheckResult:
    tiny = {
        "landscape": {"d": 2, "n": 4, "r_points": 12, "theta_points": 13},
        "wdc": {"n_values": [64, 128], "pairs": 10},
        "rric": {"dims": [4, 16, 32], "m_values": [8, 32], "tuples": 10},
        "mix": {"chains": 20, "snapshot_steps": [50, 200], "grid": 48},
        "invert": {"dims": [4, 16, 64], "runs": 2, "steps": 40,
                   "radius": 3.0, "mask_fraction": 0.05},
        "posterior": {"prior_weights": [1.0], "prior_means": [[0.0, 0.0]],
                      "prior_variances": [1.0], "y": [0.3, -0.2],
                      "sigma": 1.0, "steps": 400, "chains": 2},
        "theory-check": {"checks": ["c02_census"]},
    }
    mismatched = []
    for mode, raw in tiny.items():
        raw = dict(raw)
        raw["seed"] = seed
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for rep in ("a", "b"):
                out = Path(tmp) / rep
                out.mkdir()
                cfg = validate_config(mode, raw, out_dir=str(out))
                experiment.run_experiment(cfg, strict_checks=False)
                outputs.append(sorted(p for p in out.rglob("*") if p.is_file()))
            names_a = [p.name for p in outputs[0]]
            names_b = [p.name for p in outputs[1]]
            if names_a != names_b:
                mismatched.append(f"{mode}: file sets differ")
                continue
            for pa, pb in zip(*outputs):
                if not filecmp.cmp(pa, pb, shallow=False):
                    mismatched.append(f"{mode}:{pa.name}")
    passed = not mismatched
    return CheckResult("c12_determinism", statistic=float(len(mismatched)),
                       bound=0.0, ci_low=None, ci_high=None, passed=passed,
                       detail="byte-identical re-runs for all modes" if passed
                              else "mismatches: " + ", ".join(mismatched))


# ---------------------------------------------------------------------------
# registry


_REGISTRY = {
    "c01_gradient_fd": c01_gradient_fd,
    "c02_census": c02_census,
    "c03_convexity_ball": c03_convexity_ball,
    "c04_wdc_rric": c04_wdc_rric,
    "c05_gradient_proximity": c05_gradient_proximity,
    "c06_mixing": c06_mixing,
    "c07_escape": c07_escape,
    "c08_hitting_time": c08_hitting_time,
    "c09_contraction_discretization": c09_contraction_discretization,
    "c10_posterior_oracles": c10_posterior_oracles,
    "c11_baseline_ordering": c11_baseline_ordering,
    "c12_determinism": c12_determinism,
}

CHECK_IDS = tuple(_REGISTRY)


def theory_check_suite(seed: int = 0, ids=None) -> list[CheckResult]:
    """Run the full verification suite (or a subset) and return records.

    Unknown ids raise KeyError before any check runs."""
    ids = list(ids) if ids else list(CHECK_IDS)
    unknown = [i for i in ids if i not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown check ids: {', '.join(unknown)}")
    return [_REGISTRY[i](seed) for i in ids]
