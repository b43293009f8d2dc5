"""Experiment orchestration: config schema, CLI, checks, result emission."""

from .config import ConfigError, ExperimentConfig, validate_config
from .checks import CHECK_IDS, CheckResult, theory_check_suite
from .experiment import run_experiment

__all__ = [
    "CHECK_IDS",
    "ConfigError",
    "CheckResult",
    "ExperimentConfig",
    "validate_config",
    "run_experiment",
    "theory_check_suite",
]
