"""Acceptance suite: the twelve verification criteria at the default seed.

Each test runs one registered check (the same functions behind the CLI
theory-check mode), prints a single PASS/FAIL line with the measured
statistic and its bound (shown with `pytest -s`, or on failure), and
asserts the criterion holds.
"""

from langscape.harness import checks as hchecks

SEED = 0


def _run(check_id: str) -> None:
    (res,) = hchecks.theory_check_suite(SEED, [check_id])
    status = "PASS" if res.passed else "FAIL"
    ci = ""
    if res.ci_low is not None:
        ci = f", ci [{res.ci_low:.6g}, {res.ci_high:.6g}]"
    print(f"{res.check_id}: {status} (statistic {res.statistic:.6g}, "
          f"bound {res.bound:.6g}{ci}) {res.detail}")
    assert res.passed, f"{check_id} failed: {res.detail}"


def test_01_gradient_and_curvature_match_finite_differences():
    _run("c01_gradient_fd")


def test_02_landscape_census_three_critical_points():
    _run("c02_census")


def test_03_strong_convexity_ball_around_minimizer():
    _run("c03_convexity_ball")


def test_04_concentration_deviations_shrink_with_size():
    _run("c04_wdc_rric")


def test_05_gradient_proximity_improves_with_expansion():
    _run("c05_gradient_proximity")


def test_06_langevin_ensemble_mixes_to_reference():
    _run("c06_mixing")


def test_07_escape_probability_within_exponential_bound():
    _run("c07_escape")


def test_08_hitting_time_scales_inversely_with_step_size():
    _run("c08_hitting_time")


def test_09_contraction_rate_and_discretization_gap():
    _run("c09_contraction_discretization")


def test_10_posterior_sampler_matches_analytic_oracles():
    _run("c10_posterior_oracles")


def test_11_projected_intermediate_descent_beats_latent_descent():
    _run("c11_baseline_ordering")


def test_12_all_modes_byte_deterministic():
    _run("c12_determinism")
