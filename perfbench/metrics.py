"""Names, units and directions of every metric, and the per-layer values.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json mirrors
(selftest.py checks they agree).  The fourth field of a per-layer entry
names the end-to-end metric and workload it should move; "-" marks an
accounting value that moves nothing on its own.
"""

from __future__ import annotations

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("work_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_LAYER_MOVES = {
    "landscape": "wall_s on mix and census",
    "generator": "wall_s on invert",
    "priors": "wall_s and work_per_s on posterior",
    "samplers": "wall_s on mix, posterior and invert",
    "diagnostics": "wall_s on mix and posterior",
    "harness": "wall_s and setup_s on every workload",
}

# (name, unit, better, moves)
PER_LAYER = []
for _layer, _moves in _LAYER_MOVES.items():
    PER_LAYER += [
        (f"{_layer}.self_s", "s", "lower", _moves),
        (f"{_layer}.share", "ratio", "lower", _moves),
        (f"{_layer}.calls", "count", "lower", _moves),
    ]

_MIX = "wall_s and work_per_s on mix"
_CENSUS = "wall_s on census"
_POST = "wall_s and work_per_s on posterior"
_INV = "wall_s and work_per_s on invert"
PER_LAYER += [
    ("landscape.modified_loss.calls", "count", "lower", _MIX),
    ("landscape.modified_loss.rows", "count", "lower", _MIX),
    ("landscape.modified_loss.self_s", "s", "lower", _MIX),
    ("landscape.modified_loss.us_per_call", "us", "lower", _MIX),
    ("landscape.theta_chain.calls", "count", "lower", _CENSUS),
    ("landscape.theta_chain.self_s", "s", "lower", _CENSUS),
    ("landscape.ideal_loss.self_s", "s", "lower", _CENSUS),
    ("landscape.ideal_gradient.self_s", "s", "lower", _CENSUS),
    ("landscape.ideal_hessian.self_s", "s", "lower", _CENSUS),
    ("landscape.hessian_vector_product.calls", "count", "lower", _CENSUS),
    ("landscape.hessian_vector_product.self_s", "s", "lower", _CENSUS),
    ("landscape.mid_range_row_share", "ratio", "higher",
     "input property of a mid-range fast path (mix, census)"),
    ("landscape.all_mid_range_call_share", "ratio", "higher",
     "input property of a mid-range fast path (mix, census)"),
    ("generator.empirical_loss_grad.calls", "count", "lower", _INV),
    ("generator.empirical_loss_grad.self_s", "s", "lower", _INV),
    ("generator.empirical_loss_grad.us_per_call", "us", "lower", _INV),
    ("generator.forward.calls", "count", "lower", _INV),
    ("generator.forward.self_s", "s", "lower", _INV),
    ("generator.forward.mflop_computed", "Mflop", "lower", _INV),
    ("generator.build_generator.self_s", "s", "lower", _INV),
    ("priors.gmm_log_density_and_score.calls", "count", "lower", _POST),
    ("priors.gmm_log_density_and_score.rows", "count", "lower", _POST),
    ("priors.gmm_log_density_and_score.self_s", "s", "lower", _POST),
    ("priors.gmm_log_density_and_score.us_per_call", "us", "lower", _POST),
    ("samplers.run_langevin_ensemble.self_s", "s", "lower", _MIX),
    ("samplers.run_langevin.self_s", "s", "lower", _POST),
    ("samplers.posterior_sgld.self_s", "s", "lower", _POST),
    ("samplers.run_gd.self_s", "s", "lower", _INV),
    ("samplers.run_ilo_baseline.self_s", "s", "lower", _INV),
    ("samplers.project_l1.calls", "count", "lower", _INV),
    ("samplers.project_l1.self_s", "s", "lower", _INV),
    ("samplers.chain_steps", "count", "higher", "-"),
    ("samplers.grad_rows", "count", "higher", "-"),
    ("samplers.aborted_chains", "count", "lower", "-"),
    ("samplers.rows_per_oracle_call", "rows/call", "higher", _POST),
    ("diagnostics.sliced_w1.self_s", "s", "lower", _MIX),
    ("diagnostics.reference_grid_sampler.self_s", "s", "lower", _MIX),
    ("diagnostics.grid_density_sampler.self_s", "s", "lower", _POST),
    ("diagnostics.min_hessian_eig.calls", "count", "lower", _CENSUS),
    ("diagnostics.min_hessian_eig.self_s", "s", "lower", _CENSUS),
    ("harness.run_experiment.self_s", "s", "lower",
     "wall_s on every workload"),
    ("harness.validate_config.self_s", "s", "lower",
     "setup_s on every workload"),
    ("harness.artifact_bytes", "B", "lower", "wall_s on every workload"),
    ("trace.overhead_s", "s", "lower", "-"),
    ("trace.unspanned_s", "s", "lower", "-"),
    ("trace.wall_s", "s", "lower", "-"),
    ("trace.spans", "count", "lower", "-"),
    ("micro.modified_loss.200x2.us", "us", "lower", _MIX),
    ("micro.theta_chain.d2x200.us", "us", "lower", _MIX),
    ("micro.gmm_score.1pt.us", "us", "lower", _POST),
    ("micro.gmm_score.8pt.us", "us", "lower", _POST),
    ("micro.empirical_loss_grad.8-64-2048.us", "us", "lower", _INV),
    ("micro.sliced_w1.200x2x128.us", "us", "lower", _MIX),
    ("micro.min_hessian_eig.n8.us", "us", "lower", _CENSUS),
    ("micro.ensemble_step.200x2.us", "us", "lower", _MIX),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

_FUNCTION_FIELDS = {"calls": "calls", "rows": "rows", "self_s": "in_run_self_s"}


def per_layer(trace: dict, artifact_bytes: int) -> dict:
    """Per-layer values of one traced experiment (no trace/micro entries)."""
    funcs, layers, c = trace["functions"], trace["layers"], trace["counters"]
    wall = trace["wall_s"]
    values = {}
    for layer, tot in layers.items():
        values[f"{layer}.self_s"] = tot["self_s"]
        values[f"{layer}.share"] = tot["self_s"] / wall
        values[f"{layer}.calls"] = tot["calls"]
    for name, *_ in PER_LAYER:
        if name in values or name.count(".") != 2:
            continue
        layer, func, field = name.split(".")
        f = funcs.get(f"{layer}.{func}")
        if field == "us_per_call":
            values[name] = f["total_s"] / f["calls"] * 1e6 if f else 0.0
        elif field in _FUNCTION_FIELDS:
            values[name] = f[_FUNCTION_FIELDS[field]] if f else 0
    values["generator.forward.mflop_computed"] = c["forward_flop"] / 1e6
    values["landscape.mid_range_row_share"] = (
        c["mid_rows"] / c["angle_rows"] if c["angle_rows"] else 0.0)
    values["landscape.all_mid_range_call_share"] = (
        c["all_mid_calls"] / c["angle_calls"] if c["angle_calls"] else 0.0)
    values["samplers.chain_steps"] = c["chain_steps"]
    values["samplers.grad_rows"] = c["oracle_rows"]
    values["samplers.aborted_chains"] = c["aborted_chains"]
    values["samplers.rows_per_oracle_call"] = (
        c["oracle_rows"] / c["oracle_calls"] if c["oracle_calls"] else 0.0)
    # validation runs before run_experiment, outside the layer totals
    values["harness.validate_config.self_s"] = funcs.get(
        "harness.validate_config", {}).get("self_s", 0.0)
    values["harness.artifact_bytes"] = artifact_bytes
    values["trace.unspanned_s"] = trace["unspanned_s"]
    values["trace.wall_s"] = wall
    values["trace.spans"] = trace["spans"]
    return values
