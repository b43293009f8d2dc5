"""Harness tests: config validation, stable hashing, CLI exit codes,
artifact layout, byte-level determinism, and planted defects that prove
the claim checks can actually fail."""

import itertools
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from langscape import diagnostics as diag
from langscape import generator as gen
from langscape import landscape as ls
from langscape import samplers as smp
from langscape.harness import checks as hchecks
from langscape.harness import experiment as hexp
from langscape.harness.cli import main
from langscape.harness.config import (ConfigError, ExperimentConfig,
                                      load_json, validate_config)
from langscape.harness.experiment import _write_svg, run_experiment


def _write_cfg(tmp_path: Path, payload: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_strict_json(path: Path) -> dict:
    """The JSON in a file; NaN and Infinity tokens raise ValueError."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


# ---------------------------------------------------------------------------
# config validation


def test_defaults_applied():
    cfg = validate_config("landscape", {"d": 2, "n": 4})
    assert cfg.params["seed"] == 0
    assert cfg.params["svg"] is False
    assert cfg.params["r_points"] == 48
    assert cfg.params["theta_points"] == 49
    assert cfg.params["xi"] == 10.0
    assert cfg.seed == 0
    assert cfg.mode == "landscape"


def test_seed_override_wins_over_config_value():
    cfg = validate_config("landscape", {"d": 2, "n": 4, "seed": 5},
                          seed_override=9)
    assert cfg.params["seed"] == 9
    with pytest.raises(ConfigError, match=r"'seed' must be integer >= 0"):
        validate_config("landscape", {"d": 2, "n": 4}, seed_override=-3)


def test_unknown_key_error_names_key_and_mode():
    with pytest.raises(ConfigError, match=r"'granularity'.*'wdc'"):
        validate_config("wdc", {"granularity": 3})


def test_type_mismatch_error_names_key_and_expected_type():
    with pytest.raises(ConfigError, match=r"'d' must be integer"):
        validate_config("landscape", {"d": 2.5, "n": 4})
    with pytest.raises(ConfigError, match=r"list of integers"):
        validate_config("wdc", {"n_values": [256, "big"]})


def test_missing_required_key_is_an_error():
    with pytest.raises(ConfigError, match=r"missing required.*'radius'"):
        validate_config("invert", {"dims": [4, 16, 64]})


def test_bool_is_not_accepted_where_integer_expected():
    with pytest.raises(ConfigError, match=r"'d' must be integer"):
        validate_config("landscape", {"d": True, "n": 4})


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="unknown mode"):
        validate_config("frobnicate", {})


def test_load_json_rejects_malformed_and_non_object(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_json(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_json(str(arr))


_PRIOR = {"prior_means": [[0.0, 0.0]], "prior_variances": [1.0],
          "y": [0.3, -0.2], "sigma": 1.0}


@pytest.mark.parametrize("mode, raw, key", [
    ("mix", {"chains": 0}, "chains"),
    ("mix", {"eta": -1}, "eta"),
    ("mix", {"snapshot_steps": [0]}, "snapshot_steps"),
    ("invert", {"dims": [8, 64, 2048], "radius": 2.0, "split_layer": 5},
     "split_layer"),
    ("invert", {"dims": [8, 64, 2048], "radius": 2.0, "mask_fraction": 2.0},
     "mask_fraction"),
    ("landscape", {"d": -1, "n": 4}, "d"),
    ("landscape", {"d": 0, "n": 4}, "d"),
    ("landscape", {"d": 2, "n": 1}, "n"),
    ("wdc", {"pairs": 0}, "pairs"),
    ("wdc", {"seed": -1}, "seed"),
    ("posterior", {"prior_weights": [0.5], **_PRIOR}, "prior_weights"),
    ("posterior", {"prior_weights": [0.5, 0.5], **_PRIOR}, "prior_weights"),
    ("posterior", {"prior_weights": [1.0], **_PRIOR, "y": [0.3]}, "y"),
    ("posterior", {"prior_weights": [1.0], **_PRIOR,
                   "g2": [[1.0, 0.0, 0.0]]}, "g2"),
    ("posterior", {"prior_weights": [1.0], **_PRIOR, "g2": [[1.0, 0.0]]},
     "y"),
    ("theory-check", {"checks": ["c99"]}, "c99"),
    ("mix", {"eta": 10**400}, "eta"),       # valid JSON, beyond any float
    ("mix", {"d": 1}, "d"),
    ("landscape", {"d": 1, "n": 4}, "d"),
])
def test_cli_out_of_range_config_exits_2_naming_the_key(tmp_path, capsys,
                                                         mode, raw, key):
    cfg = _write_cfg(tmp_path, raw)
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{key}'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("raw", [
    {"dims": [1, 1], "m_values": [1], "tuples": 5},
    {"dims": [2, 2], "m_values": [1, 4], "tuples": 200},
])
def test_cli_rric_zero_range_difference_exits_2_naming_dims(tmp_path, capsys,
                                                             raw):
    # a generator this narrow maps two latents of a tuple to one point
    cfg = _write_cfg(tmp_path, raw)
    assert main(["rric", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'dims'" in err


@pytest.mark.parametrize("raw", [
    {"d": 2, "n": 4, "r_max": 1e-160},
    {"d": 2, "n": 4, "r_max": 2e-162, "r_points": 1},
    {"d": 3, "n": 2, "r_max": 5e-324, "r_points": 1},
])
def test_cli_landscape_underflowing_radius_exits_2_naming_r_max(tmp_path,
                                                                capsys, raw):
    # the squares of a grid point this close to 0 underflow to r = 0
    cfg = _write_cfg(tmp_path, raw)
    assert main(["landscape", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'r_max'" in err


# ---------------------------------------------------------------------------
# config hashing


def test_config_hash_is_independent_of_key_order():
    a = validate_config("landscape", {"d": 2, "n": 4, "seed": 3})
    b = validate_config("landscape", {"seed": 3, "n": 4, "d": 2})
    assert a.hash() == b.hash()
    assert len(a.hash()) == 64
    assert set(a.hash()) <= set("0123456789abcdef")
    assert validate_config("landscape", {"d": 2, "n": 4}).hash() == (
        "97ee078d99c37b62b6855c334a11cc622480514b6adc523f6b7ccd1a0cd597fd")


def test_config_hash_changes_when_any_parameter_changes():
    base = validate_config("landscape", {"d": 2, "n": 4})
    seen = {base.hash()}
    for raw in ({"d": 3, "n": 4}, {"d": 2, "n": 5},
                {"d": 2, "n": 4, "seed": 1},
                {"d": 2, "n": 4, "r_max": 3.0}):
        h = validate_config("landscape", raw).hash()
        assert h not in seen
        seen.add(h)
    assert ExperimentConfig("wdc", base.params, ".").hash() != base.hash()


# ---------------------------------------------------------------------------
# CLI exit codes and artifacts


def test_cli_landscape_run_writes_declared_artifacts(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"d": 2, "n": 4, "r_points": 6,
                                "theta_points": 7})
    out = tmp_path / "out"
    code = main(["landscape", "--config", cfg, "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert set(result) == {"mode", "config_hash", "params", "artifacts",
                           "summary"}
    assert result["mode"] == "landscape"
    assert result["params"]["seed"] == 7
    assert result["config_hash"] == validate_config(
        "landscape", result["params"]).hash()
    for name in result["artifacts"]:
        assert (out / name).is_file()
    csv_lines = (out / "landscape_scan.csv").read_text().splitlines()
    assert csv_lines[0] == ("r,theta,loss,loss_modified,potential,"
                            "generator_functional,min_hessian_eig")
    assert len(csv_lines) == 1 + 6 * 7


def test_landscape_scan_equals_single_point_oracles(tmp_path):
    # reference: the scan as a loop of one-point calls, point for point
    d, n = 3, 5
    cfg = _write_cfg(tmp_path, {"d": d, "n": n, "r_points": 4,
                                "theta_points": 6})
    out = tmp_path / "out"
    assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "landscape_scan.csv").read_text().splitlines()[1:]
    params = ls.ModifiedLossParams.for_depth(d)
    zs = np.eye(n)[0]
    grid = [tuple(map(float, line.split(",")[:2])) for line in lines]
    assert len(set(grid)) == 4 * 6 and grid == sorted(grid)   # r-major
    for line, (r, t) in zip(lines, grid):
        x = r * (math.cos(t) * np.eye(n)[0] + math.sin(t) * np.eye(n)[1])
        want = (r, t, ls.ideal_loss(x, zs, d),
                ls.modified_loss(x, zs, d, params)[0],
                *ls.potential(x, zs, d, params),
                diag.min_hessian_eig(x, zs, d, n))
        assert line == ",".join(repr(float(v)) for v in want)


def test_cli_svg_artifact_is_wellformed_xml(tmp_path):
    cfg = _write_cfg(tmp_path, {"d": 2, "n": 4, "r_points": 5,
                                "theta_points": 5, "svg": True})
    out = tmp_path / "out"
    assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
    svg = out / "landscape_sections.svg"
    assert svg.is_file()
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    tags = {el.tag.split("}")[-1] for el in root.iter()}
    assert "polyline" in tags


def test_cli_exit_2_on_unknown_config_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"d": 2, "n": 4, "granularity": 1})
    assert main(["landscape", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_2_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for content in (b"{d: 2",
                    b'\xff\xfe{"d": 2}',              # not UTF-8
                    b"[" * 100_000 + b"]" * 100_000,    # nested too deep
                    b'{"d": ' + b"1" * 5000 + b"}"):    # int past 4300 digits
        path.write_bytes(content)
        assert main(["landscape", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error: config is not valid JSON" \
            in capsys.readouterr().err


def test_cli_exit_4_on_missing_config_file(tmp_path, capsys):
    assert main(["landscape", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_rejects_unknown_mode_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_theory_check_report_structure(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"checks": ["c02_census"]})
    out = tmp_path / "out"
    code = main(["theory-check", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "c02_census: PASS (statistic" in captured.out
    report = json.loads((out / "theory_report.json").read_text())
    assert report["all_pass"] is True
    assert report["seed"] == 0
    (rec,) = report["checks"]
    assert set(rec) == {"check_id", "statistic", "bound", "ci_low",
                        "ci_high", "pass", "detail"}
    assert rec["check_id"] == "c02_census"
    assert rec["pass"] is True
    assert isinstance(rec["statistic"], float)
    assert isinstance(rec["bound"], float)


def test_cli_theory_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    def failing_stub(seed):
        return hchecks.CheckResult(
            check_id="c02_census", statistic=1.0, bound=0.5,
            ci_low=None, ci_high=None, passed=False, detail="forced failure")

    monkeypatch.setitem(hchecks._REGISTRY, "c02_census", failing_stub)
    cfg = _write_cfg(tmp_path, {"checks": ["c02_census"]})
    out = tmp_path / "out"
    assert main(["theory-check", "--config", cfg, "--out", str(out)]) == 3
    assert "c02_census: FAIL" in capsys.readouterr().out
    report = json.loads((out / "theory_report.json").read_text())
    assert report["all_pass"] is False


def test_cli_theory_report_writes_nan_statistic_as_null(tmp_path,
                                                       monkeypatch):
    def nan_stub(seed):
        return hchecks.CheckResult(
            check_id="c08_hitting_time", statistic=math.nan, bound=2.8,
            ci_low=None, ci_high=None, passed=False, detail="never hit")

    monkeypatch.setitem(hchecks._REGISTRY, "c08_hitting_time", nan_stub)
    cfg = _write_cfg(tmp_path, {"checks": ["c08_hitting_time"]})
    out = tmp_path / "out"
    assert main(["theory-check", "--config", cfg, "--out", str(out)]) == 3
    report = _read_strict_json(out / "theory_report.json")
    assert report["checks"][0]["statistic"] is None


def test_cli_theory_check_empty_list_runs_every_check(tmp_path, capsys,
                                                     monkeypatch):
    def stub(check_id):
        return lambda seed: hchecks.CheckResult(
            check_id=check_id, statistic=0.0, bound=1.0, ci_low=None,
            ci_high=None, passed=True, detail="stub")

    for check_id in hchecks.CHECK_IDS:
        monkeypatch.setitem(hchecks._REGISTRY, check_id, stub(check_id))
    cfg = _write_cfg(tmp_path, {"checks": []})
    out = tmp_path / "out"
    assert main(["theory-check", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "theory_report.json").read_text())
    assert [r["check_id"] for r in report["checks"]] == list(hchecks.CHECK_IDS)


def test_theory_check_suite_rejects_unknown_id():
    with pytest.raises(KeyError, match="c99_missing"):
        hchecks.theory_check_suite(0, ["c02_census", "c99_missing"])


def test_check_result_record_uses_pass_key():
    res = hchecks.CheckResult(check_id="x", statistic=0.1, bound=0.2,
                              ci_low=None, ci_high=None, passed=True,
                              detail="d")
    rec = res.record()
    assert rec["pass"] is True
    assert "passed" not in rec


# ---------------------------------------------------------------------------
# the gradient check must be able to fail: corrupt the gradient under test


def test_gradient_check_fails_on_sign_corruption(monkeypatch):
    grad = ls.ideal_gradient
    monkeypatch.setattr(ls, "ideal_gradient",
                        lambda X, zs, d: -grad(X, zs, d))
    res = hchecks.c01_gradient_fd(0)
    assert not res.passed
    assert res.statistic > res.bound


def test_gradient_check_fails_on_small_relative_corruption(monkeypatch):
    grad = ls.ideal_gradient
    monkeypatch.setattr(ls, "ideal_gradient",
                        lambda X, zs, d: 1.001 * grad(X, zs, d))
    res = hchecks.c01_gradient_fd(0)
    assert not res.passed
    assert res.statistic > 5e-4


# planted defects: each claim check must fail when its oracle is broken


def test_census_check_fails_on_gradient_offset(monkeypatch):
    # a constant offset leaves no critical point at z*, -A z* or 0
    grad = ls.ideal_gradient
    monkeypatch.setattr(ls, "ideal_gradient",
                        lambda X, zs, d: grad(X, zs, d) + 1e-3)
    res = hchecks.c02_census(0)
    assert not res.passed


def test_concentration_check_fails_on_constant_wdc_deviation(monkeypatch):
    # a deviation that does not shrink with width is no concentration
    monkeypatch.setattr(gen, "wdc_deviation", lambda W, x, y: 0.1)
    res = hchecks.c04_wdc_rric(0)
    assert not res.passed
    assert res.statistic <= res.bound


def test_convexity_check_fails_on_scaled_rotational_curvature(monkeypatch):
    # c_psi 1% too large puts H(z*) a distance 1e-2 from the identity
    hess = ls.ideal_hessian

    def scaled(x, zs, d):
        c_rr, c_tt, c_psi = hess(x, zs, d)
        return c_rr, c_tt, 1.01 * c_psi
    monkeypatch.setattr(ls, "ideal_hessian", scaled)
    monkeypatch.setattr(diag, "ideal_hessian", scaled)
    res = hchecks.c03_convexity_ball(0)
    assert not res.passed
    assert "max |H - I| = 1.00e-02" in res.detail


def test_fd_check_fails_on_scaled_tangential_curvature(monkeypatch):
    # c_tt 1% too large: the Hessian-vector products leave the finite
    # differences of the gradient (c03 passes with this defect)
    hess = ls.ideal_hessian

    def scaled(x, zs, d):
        c_rr, c_tt, c_psi = hess(x, zs, d)
        return c_rr, 1.01 * c_tt, c_psi
    monkeypatch.setattr(ls, "ideal_hessian", scaled)
    monkeypatch.setattr(diag, "ideal_hessian", scaled)
    res = hchecks.c01_gradient_fd(0)
    assert not res.passed
    assert res.statistic > 5e-3          # 0.0099 against a bound of 1e-5


def test_escape_check_fails_on_ascending_gradient(monkeypatch):
    # chains that climb the smoothed loss leave the norm bound
    loss = ls.modified_loss

    def ascending(x, zs, d, params):
        val, grad = loss(x, zs, d, params)
        return val, -grad
    monkeypatch.setattr(ls, "modified_loss", ascending)
    res = hchecks.c07_escape(0)
    assert not res.passed
    assert "norm-bound exceedances 0.0" not in res.detail


def test_contraction_check_fails_on_independent_noise(monkeypatch):
    # without shared increments the pair's distance does not contract
    monkeypatch.setattr(smp, "coupled_pair", lambda pg, a, b, cfg:
                        smp.run_langevin_ensemble(pg, np.stack([a, b]), cfg))
    res = hchecks.c09_contraction_discretization(0)
    assert not res.passed
    assert "contraction excess 2.53e+00" in res.detail


def test_hitting_time_check_fails_on_a_negated_gradient(monkeypatch):
    # chains that climb the loss never reach the ball around z*
    grad = ls.ideal_gradient
    monkeypatch.setattr(ls, "ideal_gradient",
                        lambda X, zs, d: -grad(X, zs, d))
    res = hchecks.c08_hitting_time(0)
    assert res.passed is False
    assert math.isnan(res.statistic)
    assert res.detail == "50 chains never hit at eta=0.02"


def test_baseline_ordering_check_fails_on_a_shrunken_l1_ball(monkeypatch):
    # a ball a tenth of the radius keeps the intermediate descent too
    # near its start to fit the observations better than latent descent
    project = smp.project_l1
    monkeypatch.setattr(smp, "project_l1", lambda v, center, radius:
                        project(v, center, radius / 10))
    res = hchecks.c11_baseline_ordering(0)
    assert res.passed is False
    assert res.statistic > res.bound
    # the detail states the relation that holds, not the one hoped for
    assert "intermediate 0.1774 >= latent-only 0.0973" in res.detail
    assert "<" not in res.detail


def test_determinism_check_fails_on_a_changing_csv_row(monkeypatch):
    # every CSV written gets one more row, numbered by a process counter
    write, count = hexp._write_csv, itertools.count()
    monkeypatch.setattr(hexp, "_write_csv", lambda path, header, rows: write(
        path, header, [*rows, (next(count),) * len(header)]))
    res = hchecks.c12_determinism(0)
    assert not res.passed
    assert res.statistic == 6.0        # every mode that writes a CSV


def test_determinism_check_fails_on_an_extra_file_per_run(monkeypatch):
    # each run leaves one more file, named by a process counter
    run, count = hexp.run_experiment, itertools.count()

    def leaky(cfg):
        code = run(cfg)
        (Path(cfg.out_dir) / f"extra{next(count)}.txt").write_text("x")
        return code
    monkeypatch.setattr(hexp, "run_experiment", leaky)
    res = hchecks.c12_determinism(0)
    assert not res.passed
    assert res.statistic == 7.0        # every mode
    assert res.detail.count("file sets differ") == 7


# ---------------------------------------------------------------------------
# determinism and threading of experiment outputs


def test_rerunning_a_config_reproduces_every_byte(tmp_path):
    raw = {"d": 2, "n": 4, "r_points": 6, "theta_points": 7, "svg": True}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = validate_config("landscape", dict(raw), out_dir=str(out))
        assert run_experiment(cfg) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_posterior_mode_artifact_schema(tmp_path):
    raw = {"prior_weights": [1.0], "prior_means": [[0.0, 0.0]],
           "prior_variances": [1.0], "y": [0.5, -0.5], "sigma": 1.0,
           "steps": 400, "chains": 2, "record_every": 10, "svg": True}
    out = tmp_path / "out"
    cfg = validate_config("posterior", raw, out_dir=str(out))
    assert run_experiment(cfg) == 0
    root = ET.fromstring((out / "posterior_marginals.svg").read_text())
    assert root.tag.endswith("svg")
    lines = (out / "posterior_samples.csv").read_text().splitlines()
    assert lines[0] == "chain,x0,x1"
    # two chains, 41 recorded states each, second half kept per chain
    assert len(lines) == 1 + 2 * 21
    result = json.loads((out / "result.json").read_text())
    mean = np.array(result["summary"]["mean"])
    cov = np.array(result["summary"]["cov"])
    assert mean.shape == (2,)
    assert cov.shape == (2, 2)
    assert result["summary"]["aborted_chains"] == []


def test_cli_posterior_divergence_exits_5(tmp_path):
    # likelihood curvature 1/sigma^2 = 1e4 makes eta = 1 unstable
    cfg = _write_cfg(tmp_path, {
        "prior_weights": [1.0], "prior_means": [[0.0, 0.0]],
        "prior_variances": [1.0], "y": [0.3, -0.2], "sigma": 0.01,
        "eta": 1.0, "steps": 400, "chains": 2})
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == 5
    result = json.loads((out / "result.json").read_text())
    assert result["summary"]["aborted_chains"] == [0, 1]


def test_cli_posterior_overflowing_sigma_samples_the_prior(tmp_path):
    # sigma^2 overflows to inf (a float or an int sigma): the likelihood
    # weight is 0, so the samples are those of likelihood_weight 0
    raw = {"prior_weights": [1.0], "prior_means": [[0.0, 0.0]],
           "prior_variances": [1.0], "g2": [[1.0, 0.5]], "y": [0.3],
           "steps": 200, "chains": 2}
    samples = []
    for name, extra in (("ref", {"sigma": 1.0, "likelihood_weight": 0.0}),
                        ("float", {"sigma": 1e300}),
                        ("int", {"sigma": 10**200})):
        cfg = _write_cfg(tmp_path, {**raw, **extra}, name=f"{name}.json")
        out = tmp_path / name
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == 0
        samples.append((out / "posterior_samples.csv").read_bytes())
    assert samples[1] == samples[0] and samples[2] == samples[0]


def test_cli_invert_divergence_exits_5(tmp_path):
    # step 500 makes the latent descent blow up (runs stop at 225 and 182)
    cfg = _write_cfg(tmp_path, {
        "dims": [8, 64, 2048], "radius": 2.0, "runs": 2, "eta_csgm": 500.0,
        "eta_ilo": 500.0, "steps": 600})
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["invert", "--config", cfg, "--out", str(out)]) == 5
    result = json.loads((out / "result.json").read_text())
    assert result["summary"]["aborted_runs"] == [0, 1]
    lines = (out / "invert_runs.csv").read_text().splitlines()
    assert lines[0] == ("run,observed_coords,residual_latent_descent,"
                        "residual_intermediate_projected")
    assert len(lines) == 3


def _assert_mix_diverges(tmp_path, raw, chains, curve):
    # no errstate scope: a diverging chain must not raise a numpy warning
    cfg = _write_cfg(tmp_path, {**raw, "svg": True})
    out = tmp_path / "out"
    assert main(["mix", "--config", cfg, "--out", str(out)]) == 5
    summary = json.loads((out / "result.json").read_text())["summary"]
    assert summary["aborted_chains"] == list(range(chains))
    assert list(summary["w1_curve"]) == curve
    assert summary["final_w1"] == (summary["w1_curve"][curve[-1]]
                                   if curve else None)
    lines = (out / "mixing_w1.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == curve


@pytest.mark.parametrize("snapshots, curve", [([100], []), ([50, 100], ["50"])])
def test_cli_mix_divergence_exits_5(tmp_path, snapshots, curve):
    # at eta = 50 every chain stops at step 92, so step 100 is never reached
    _assert_mix_diverges(tmp_path, {"eta": 50, "snapshot_steps": snapshots},
                         200, curve)


def test_cli_mix_overflowing_state_exits_5(tmp_path):
    # the first step overflows to an infinite state whose angle is NaN
    _assert_mix_diverges(tmp_path, {"eta": 1e308, "chains": 2, "grid": 8,
                                    "snapshot_steps": [10], "projections": 4},
                         2, [])


@pytest.mark.parametrize("sigma", [1e-160, 1e-300])
def test_cli_posterior_chains_stopped_before_burn_in_exit_5(tmp_path, sigma):
    # 1/sigma^2 is infinite (1e-300 squares to 0), so every chain stops at
    # step 0, before its first kept record; the SVG is skipped
    cfg = _write_cfg(tmp_path, {"prior_weights": [1.0], **_PRIOR,
                                "sigma": sigma, "steps": 400, "chains": 2,
                                "svg": True})
    out = tmp_path / "out"
    assert main(["posterior", "--config", cfg, "--out", str(out)]) == 5
    result = _read_strict_json(out / "result.json")
    assert result["artifacts"] == ["posterior_samples.csv"]
    assert result["summary"] == {"sample_count": 0, "mean": None,
                                 "cov": None, "aborted_chains": [0, 1]}
    assert (out / "posterior_samples.csv").read_text() == "chain,x0,x1\n"


@pytest.mark.parametrize("raw, aborted, finite", [
    # y overflows to inf: both descents of both runs stop at step 0
    ({"noise_sigma": 1e308}, [0, 1], False),
    # run 1's first projected step is too far out for an l1 threshold
    ({"eta_ilo": 1e300}, [1], True),
], ids=["noise_sigma", "eta_ilo"])
def test_cli_invert_non_finite_descent_exits_5(tmp_path, raw, aborted,
                                               finite):
    cfg = _write_cfg(tmp_path, {"dims": [4, 16, 64], "runs": 2, "steps": 40,
                                "radius": 3.0, "mask_fraction": 0.05, **raw})
    out = tmp_path / "out"
    assert main(["invert", "--config", cfg, "--out", str(out)]) == 5
    summary = _read_strict_json(out / "result.json")["summary"]
    assert summary["aborted_runs"] == aborted
    medians = [summary["median_residual_latent"],
               summary["median_residual_intermediate"]]
    assert all((m is not None) == finite for m in medians)
    residuals = [_csv_column(out / "invert_runs.csv", c) for c in (2, 3)]
    assert np.all(np.isfinite(residuals)) == finite


def test_cli_invert_non_finite_residuals_write_a_finite_svg(tmp_path):
    # every residual is inf: the plot keeps its axes and drops both series
    cfg = _write_cfg(tmp_path, {"dims": [4, 16, 64], "runs": 2, "steps": 40,
                                "radius": 3.0, "mask_fraction": 0.05,
                                "noise_sigma": 1e308, "svg": True})
    out = tmp_path / "out"
    assert main(["invert", "--config", cfg, "--out", str(out)]) == 5
    text = (out / "invert_residuals.svg").read_text()
    assert ET.fromstring(text).tag.endswith("svg")
    assert "nan" not in text.lower() and "inf" not in text.lower()
    assert "<polyline" not in text


def _invert_one_full_width(p: dict, seed: int, run_id: int):
    """The invert workload's problem solved on every output row, with the
    unobserved ones masked out of the loss; same draws in the same order."""
    dims = p["dims"]
    rng = np.random.default_rng((seed, 11, run_id))
    G = gen.build_generator(dims, seed=int(rng.integers(2**63)))
    y = gen.forward(G, rng.standard_normal(dims[0]))[0]
    if p["noise_sigma"] > 0:
        y = y + p["noise_sigma"] * rng.standard_normal(dims[-1])
    m_obs = max(1, round(p["mask_fraction"] * dims[-1]))
    mask = np.zeros(dims[-1], dtype=bool)
    mask[rng.choice(dims[-1], size=m_obs, replace=False)] = True
    problem = gen.InverseProblem(
        generator=G, map=gen.MeasurementMap(matrix=None, m=dims[-1]),
        y=y, noise_sigma=p["noise_sigma"], mask=mask)
    z0 = rng.standard_normal(dims[0])
    tr_c = smp.run_langevin_ensemble(
        lambda z: gen.empirical_loss_grad(problem, z), z0[None],
        smp.LangevinConfig(eta=p["eta_csgm"], beta=math.inf,
                           steps=p["steps"], seed=0, record_every=p["steps"]))
    tr_i = smp.run_ilo_baseline(problem, split_layer=p["split_layer"],
                                radius=p["radius"], eta=p["eta_ilo"],
                                steps=p["steps"], z0=z0)
    row = (run_id, m_obs, math.sqrt(2.0 * float(tr_c.losses[-1, 0])),
           math.sqrt(2.0 * float(tr_i.losses[-1])))
    return row, tr_c.aborted_at[0] >= 0 or tr_i.aborted_at is not None


_TINY_INVERT = {"dims": [4, 16, 64], "runs": 2, "steps": 40, "radius": 3.0,
                "mask_fraction": 0.05}


@pytest.mark.parametrize("raw, seed", [
    (_TINY_INVERT, 0),                  # c12's invert config
    (_TINY_INVERT, 7),
    ({"dims": [4, 16, 256], "runs": 3, "steps": 60, "radius": 2.0,
      "mask_fraction": 0.02, "noise_sigma": 0.05}, 0),
    ({**_TINY_INVERT, "eta_csgm": 1e6, "eta_ilo": 1e6}, 0),   # run 1 stops
    ({**_TINY_INVERT, "mask_fraction": 1.0, "noise_sigma": 0.1}, 0),
], ids=["c12", "c12-seed7", "256-outputs", "diverging", "all-observed"])
def test_invert_on_observed_rows_matches_the_masked_full_width_problem(
        raw, seed):
    # only the summation order over the rows changes, so the residuals
    # agree to rounding, and bit for bit when every row is observed
    p = validate_config("invert", raw).params
    rows, aborted = hexp._invert_rows(p, seed)
    ref = [_invert_one_full_width(p, seed, r) for r in range(p["runs"])]
    assert [r[:2] for r in rows] == [r[:2] for r, _ in ref]
    assert aborted == [r[0] for r, diverged in ref if diverged]
    got, want = (np.array([r[2:] for r in rs], dtype=float)
                 for rs in (rows, [r for r, _ in ref]))
    if p["mask_fraction"] == 1.0:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_svg_skips_non_finite_points(tmp_path):
    path = tmp_path / "plot.svg"
    _write_svg(path, [0.0, 1.0, 2.0, 3.0],
               {"a": [1.0, math.inf, 3.0, math.nan],
                "b": [math.nan] * 4, "c": [2.0, 2.0, -math.inf, 2.0]}, "t")
    text = path.read_text()
    lines = [ET.fromstring(line) for line in text.splitlines()
             if line.startswith("<polyline")]
    # the axes span the finite values: x in [0, 3], y in [1, 3]
    assert [line.get("points") for line in lines] == [
        "60.00,360.00 433.33,30.00",
        "60.00,195.00 246.67,195.00 620.00,195.00"]
    assert ">b<" not in text and "nan" not in text and "inf" not in text


def test_posterior_single_sample_writes_strict_json(tmp_path):
    # one chain of 10 steps keeps a single record: its covariance is null
    cfg = _write_cfg(tmp_path, {"prior_weights": [1.0], **_PRIOR,
                                "steps": 10, "chains": 1})
    out = tmp_path / "out"
    assert main(["posterior", "--config", cfg, "--out", str(out)]) == 0
    result = _read_strict_json(out / "result.json")
    assert result["summary"]["sample_count"] == 1
    assert result["summary"]["cov"] is None


# ---------------------------------------------------------------------------
# the mode and its check run one workload: the artifacts give the statistic


def _csv_column(path: Path, col: int) -> list[float]:
    return [float(line.split(",")[col])
            for line in path.read_text().splitlines()[1:]]


def test_mode_artifacts_reproduce_check_statistics(tmp_path):
    medians = []
    for mode in ("wdc", "rric"):
        out = tmp_path / mode
        assert run_experiment(validate_config(mode, {},
                                              out_dir=str(out))) == 0
        m = _csv_column(out / f"{mode}_deviation.csv", 1)
        medians.append(m)
    drops = [a - b for m in medians for a, b in zip(m, m[1:])]
    assert min(drops) == hchecks.c04_wdc_rric(0).statistic

    out = tmp_path / "invert"
    cfg = validate_config("invert", {
        "dims": [8, 64, 2048], "runs": 20, "steps": 300,
        "mask_fraction": 0.0075, "eta_csgm": 1.0, "eta_ilo": 1.0,
        "radius": 5.0, "split_layer": 1}, out_dir=str(out))
    assert run_experiment(cfg) == 0
    res = hchecks.c11_baseline_ordering(0)
    assert float(np.median(_csv_column(out / "invert_runs.csv", 3))) \
        == res.statistic
    assert float(np.median(_csv_column(out / "invert_runs.csv", 2))) \
        == res.bound
