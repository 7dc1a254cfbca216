"""Top-level public API: machine configuration, assembly and experiments."""

from repro.core.config import MachineConfig
from repro.core.machine import FlashMachine
from repro.core.experiment import (
    run_recovery_scalability,
    run_validation_experiment,
)

__all__ = [
    "FlashMachine",
    "MachineConfig",
    "run_recovery_scalability",
    "run_validation_experiment",
]
