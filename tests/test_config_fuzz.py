"""Property tests of the config contract: any JSON object whose keys come
from a mode's schema either validates or raises ConfigError (exit 2),
never another exception; and a whole run of any such config, in every
mode but theory-check, exits 0, 2 or 5 and writes strict JSON."""

import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from langscape.harness.cli import main
from langscape.harness.config import SCHEMAS, ConfigError, validate_config

# JSON integers are unbounded: 10**400 is valid JSON but no float
_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-10**400, max_value=10**400)
            | st.integers(min_value=-3, max_value=300) | st.floats()
            | st.sampled_from(["identity", "c02_census", "c99", ""]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_config_accepts_or_raises_config_error(data):
    mode = data.draw(st.sampled_from(sorted(SCHEMAS)))
    raw = data.draw(st.dictionaries(st.sampled_from(sorted(SCHEMAS[mode])),
                                    _JSON))
    try:
        cfg = validate_config(mode, raw)
    except ConfigError:
        return
    assert set(cfg.params) == set(SCHEMAS[mode])


# the ends of the float range, both signs, an int past sqrt(float max),
# and ordinary values
_EDGE = st.sampled_from([0, 0.0, 1, 0.5, -2.0, 1e300, -1e300, 1.7e308,
                         -1.7e308, 5e-324, -5e-324, 10**200])
_NUM = _EDGE | st.floats(min_value=-1e6, max_value=1e6)
# positive, so that most runs get past validation (the schema fuzz above
# covers out-of-range values)
_POS = st.sampled_from([1, 0.01, 1e300, 1.7e308, 5e-324, 10**200]) \
    | st.floats(min_value=1e-6, max_value=1e6)


def _vector(n):
    return st.lists(_NUM, min_size=n, max_size=n)


@st.composite
def _posterior_config(draw):
    p, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    return {
        "seed": draw(st.integers(0, 5)),
        "svg": draw(st.booleans()),
        "prior_weights": draw(st.just([1.0 / k] * k) | _vector(k)),
        "prior_means": draw(st.lists(_vector(p), min_size=k, max_size=k)),
        "prior_variances": draw(st.lists(_POS, min_size=k, max_size=k)),
        "g2": "identity" if rows is None
              else draw(st.lists(_vector(p), min_size=rows, max_size=rows)),
        "y": draw(_vector(p if rows is None else rows)),
        "sigma": draw(_POS), "eta": draw(_POS),
        "likelihood_weight": draw(st.just(1.0) | _POS),
        "steps": draw(st.integers(1, 30)),
        "chains": draw(st.integers(1, 3)),
        "record_every": draw(st.integers(1, 10)),
    }


def _no_constant(name):
    raise ValueError(f"{name} in a JSON artifact")


def _run_cli(mode, raw):
    """Exit code of one whole run; result.json must be strict unless 2."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(raw))
        # numpy's overflow warnings are not part of the exit contract
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([mode, "--config", str(cfg), "--out", str(out)])
        if code != 2:
            json.loads((out / "result.json").read_text(),
                       parse_constant=_no_constant)
    return code


@settings(max_examples=60, deadline=None)
@given(_posterior_config())
def test_posterior_cli_exits_0_2_or_5(raw):
    assert _run_cli("posterior", raw) in (0, 2, 5)


# 0, the least subnormal, radii whose squares underflow, and the top of
# the float range, beside ordinary values
_TINY_TO_HUGE = st.sampled_from([0, 0.0, 5e-324, 1e-300, 2e-162, 1e-160,
                                 1e300, 1.7e308]) \
    | st.floats(min_value=1e-6, max_value=1e3)


@st.composite
def _mode_config(draw):
    mode = draw(st.sampled_from(["landscape", "wdc", "rric", "mix",
                                 "invert"]))
    i = lambda lo, hi: draw(st.integers(lo, hi))
    x = lambda: draw(_TINY_TO_HUGE)
    raw = {"seed": i(0, 5), "svg": draw(st.booleans())}
    if mode == "landscape":
        raw.update(d=i(2, 3), n=i(2, 4), r_points=i(1, 4),
                   theta_points=i(1, 4), r_max=x(), xi=x(), lam=x(),
                   beta=x())
    elif mode == "wdc":
        raw.update(k=i(1, 3), n_values=[i(1, 16) for _ in range(i(1, 2))],
                   pairs=i(1, 5))
    elif mode == "rric":
        raw.update(dims=[i(1, 8) for _ in range(i(2, 3))],
                   m_values=[i(1, 8) for _ in range(i(1, 2))],
                   tuples=i(1, 5))
    elif mode == "mix":
        raw.update(d=i(2, 3), beta=x(), eta=x(), chains=i(1, 3),
                   snapshot_steps=[i(1, 20) for _ in range(i(1, 2))],
                   grid=i(1, 8), projections=i(1, 4),
                   start_radius=draw(_NUM))
    else:
        raw.update(dims=[i(1, 4), i(1, 8), i(1, 16)], radius=x(),
                   mask_fraction=draw(st.sampled_from([0, 5e-324, 1e-300,
                                                       0.5, 1.0])),
                   noise_sigma=x(), eta_csgm=x(), eta_ilo=x(),
                   steps=i(1, 10), runs=i(1, 2))
    return mode, raw


@settings(max_examples=100, deadline=None)
@given(_mode_config())
@example(("landscape", {"d": 2, "n": 4, "r_max": 1e-160}))
@example(("landscape", {"d": 2, "n": 4, "r_max": 2e-162, "r_points": 1}))
def test_every_mode_cli_exits_0_2_or_5(mode_raw):
    assert _run_cli(*mode_raw) in (0, 2, 5)
