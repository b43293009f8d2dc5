"""JSON experiment configs: published schema, validation, stable hashing.

A config file is a flat JSON object whose allowed keys depend on the mode.
Validation is strict: unknown keys are errors (named in the message), as
are type mismatches, out-of-range values (each key's type states its
range), missing required keys, an invert split layer outside the
generator, mixture-prior weights that do not form a distribution, a
posterior observation y or measurement map g2 whose shape does not fit
the prior, and unknown theory-check ids.
The config hash is the sha256 of the canonical (sorted-key) JSON of the
fully defaulted config, so key order in the file never matters and every
emitted artifact can embed the hash of the exact settings that produced
it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "MODES",
    "ConfigError",
    "ExperimentConfig",
    "load_json",
    "validate_config",
]


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def _num(v):
    """A finite float or an integer within the float range (exact test)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _bool(v):
    return isinstance(v, bool)


def _bounded(base, name: str, test):
    """(predicate, type name) of a value of type base that passes test."""
    return (lambda v: base(v) and test(v)), name


_NUMBER = (_num, "number")
_POSITIVE = _bounded(_num, "number > 0", lambda v: v > 0)
_NONNEGATIVE = _bounded(_num, "number >= 0", lambda v: v >= 0)
_FRACTION = _bounded(_num, "number in [0, 1]", lambda v: 0 <= v <= 1)
_COUNT = _bounded(_int, "integer >= 1", lambda v: v >= 1)
_SEED = _bounded(_int, "integer >= 0", lambda v: v >= 0)


def _list_of(item, min_len: int = 1):
    """(predicate, type name) of a list of at least min_len items."""
    pred, name = item
    kind, _, bound = name.partition(" ")
    count = "" if min_len == 1 else f"at least {min_len} "
    return _bounded(lambda v: isinstance(v, list) and len(v) >= min_len,
                    f"list of {count}{kind}s {bound}".rstrip(),
                    lambda v: all(pred(x) for x in v))


_NUMBERS = _list_of(_NUMBER)


def _matrix(v):
    """A nonempty list of equally long nonempty lists of numbers."""
    return isinstance(v, list) and len(v) > 0 \
        and all(_NUMBERS[0](row) for row in v) \
        and len({len(row) for row in v}) == 1


_REQUIRED = object()

# key -> (predicate, human-readable type and range, default)
_COMMON = {
    "seed": (*_SEED, 0),
    "svg": (_bool, "boolean", False),
}

SCHEMAS: dict[str, dict[str, tuple]] = {
    "landscape": {
        **_COMMON,
        "d": (*_bounded(_int, "integer >= 2", lambda v: v >= 2), _REQUIRED),
        "n": (*_bounded(_int, "integer >= 2", lambda v: v >= 2), _REQUIRED),
        "r_points": (*_COUNT, 48),
        "theta_points": (*_COUNT, 49),
        "r_max": (*_POSITIVE, 2.5),
        "xi": (*_POSITIVE, 10.0),
        "lam": (*_POSITIVE, 0.1),
        "beta": (*_POSITIVE, 1.0),
    },
    "wdc": {
        **_COMMON,
        "k": (*_COUNT, 3),
        "n_values": (*_list_of(_COUNT), [256, 1024, 4096]),
        "pairs": (*_COUNT, 200),
    },
    "rric": {
        **_COMMON,
        "dims": (*_list_of(_COUNT, 2), [8, 64, 128]),
        "m_values": (*_list_of(_COUNT), [16, 64, 256]),
        "tuples": (*_COUNT, 200),
    },
    "mix": {
        **_COMMON,
        "d": (*_bounded(_int, "integer >= 2", lambda v: v >= 2), 2),
        "beta": (*_POSITIVE, 40.0),
        "eta": (*_POSITIVE, 1e-3),
        "chains": (*_COUNT, 200),
        "snapshot_steps": (*_list_of(_COUNT), [100, 1000, 10_000, 100_000]),
        "grid": (*_COUNT, 192),
        "projections": (*_COUNT, 128),
        "start_radius": (*_NUMBER, 2.0),
    },
    "invert": {
        **_COMMON,
        "dims": (*_list_of(_COUNT, 3), _REQUIRED),
        "mask_fraction": (*_FRACTION, 0.0075),
        "noise_sigma": (*_NONNEGATIVE, 0.0),
        "split_layer": (*_COUNT, 1),
        "radius": (*_NONNEGATIVE, _REQUIRED),
        "eta_csgm": (*_POSITIVE, 0.05),
        "eta_ilo": (*_POSITIVE, 0.05),
        "steps": (*_COUNT, 300),
        "runs": (*_COUNT, 20),
    },
    "posterior": {
        **_COMMON,
        "prior_weights": (*_list_of(_NONNEGATIVE), _REQUIRED),
        "prior_means": (_matrix, "list of vectors", _REQUIRED),
        "prior_variances": (*_list_of(_POSITIVE), _REQUIRED),
        "g2": (lambda v: v == "identity" or _matrix(v),
               '"identity" or a matrix', "identity"),
        "y": (*_NUMBERS, _REQUIRED),
        "sigma": (*_POSITIVE, _REQUIRED),
        "eta": (*_POSITIVE, 0.01),
        "steps": (*_COUNT, 20_000),
        "chains": (*_COUNT, 4),
        "record_every": (*_COUNT, 10),
        "likelihood_weight": (*_NONNEGATIVE, 1.0),
    },
    "theory-check": {
        "seed": (*_SEED, 0),
        "checks": (lambda v: isinstance(v, list)
                   and all(isinstance(x, str) for x in v),
                   "list of check ids", []),
    },
}

MODES = tuple(SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated, fully defaulted experiment description."""

    mode: str
    params: dict
    out_dir: str

    @property
    def seed(self) -> int:
        return self.params["seed"]

    def hash(self) -> str:
        canon = json.dumps({"mode": self.mode, "params": self.params},
                           sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_json(path: str) -> dict:
    """The JSON object in a file; ConfigError for anything that does not
    parse: bad syntax, bytes that are not UTF-8, an integer too long to
    convert (ValueError), or nesting too deep (RecursionError)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def validate_config(mode: str, raw: dict, seed_override: int | None = None,
                    out_dir: str = ".") -> ExperimentConfig:
    """Check keys/types against the mode schema and apply defaults."""
    if mode not in SCHEMAS:
        raise ConfigError(
            f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    schema = SCHEMAS[mode]
    if seed_override is not None:
        raw = {**raw, "seed": int(seed_override)}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for mode {mode!r}")
    params: dict[str, Any] = {}
    for key, (pred, typename, default) in schema.items():
        if key in raw:
            value = raw[key]
            if not pred(value):
                raise ConfigError(
                    f"config key {key!r} must be {typename}, "
                    f"got {value!r}")
            params[key] = value
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r} "
                              f"for mode {mode!r}")
        else:
            params[key] = default
    if mode == "invert":
        top = len(params["dims"]) - 2
        if not params["split_layer"] <= top:
            raise ConfigError(f"config key 'split_layer' must be in [1, {top}] "
                              f"for {len(params['dims'])} dims, "
                              f"got {params['split_layer']!r}")
    if mode == "posterior":
        w = params["prior_weights"]
        if not len(w) == len(params["prior_means"]) \
                == len(params["prior_variances"]):
            raise ConfigError("config keys 'prior_weights', 'prior_means' and "
                              "'prior_variances' must have matching counts")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ConfigError(f"config key 'prior_weights' must sum to 1 "
                              f"within 1e-12, got {w!r}")
        dim, g2 = len(params["prior_means"][0]), params["g2"]
        if g2 != "identity" and len(g2[0]) != dim:
            raise ConfigError(f"config key 'g2' must have {dim} columns, "
                              f"one per prior dimension, got {len(g2[0])}")
        rows = dim if g2 == "identity" else len(g2)
        if len(params["y"]) != rows:
            raise ConfigError(f"config key 'y' must have {rows} entries, "
                              f"one per output of 'g2', got {len(params['y'])}")
    if mode == "theory-check":
        from .checks import CHECK_IDS  # checks imports this module
        unknown = [c for c in params["checks"] if c not in CHECK_IDS]
        if unknown:
            raise ConfigError(f"config key 'checks' has unknown check ids "
                              f"{unknown!r}; known: {', '.join(CHECK_IDS)}")
    return ExperimentConfig(mode=mode, params=params, out_dir=out_dir)

