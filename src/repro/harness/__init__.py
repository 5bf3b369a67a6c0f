"""Experiment harness: profiling, calibration, sweeps, peak finding."""

from repro.harness.profiles import (
    AppProfile,
    InteractionProfile,
    InteractionVariant,
    profile_application,
)
from repro.harness.experiment import ExperimentSpec, run_experiment

__all__ = [
    "AppProfile",
    "InteractionProfile",
    "InteractionVariant",
    "profile_application",
    "ExperimentSpec",
    "run_experiment",
]
