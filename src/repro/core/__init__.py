"""Top-level public API: machine configuration, assembly and experiments."""

from repro.core.config import MachineConfig
from repro.core.machine import FlashMachine
from repro.core.experiment import (
    EndToEndResult,
    run_end_to_end_experiment,
    run_recovery_scalability,
    run_validation_experiment,
)

__all__ = [
    "EndToEndResult",
    "FlashMachine",
    "MachineConfig",
    "run_end_to_end_experiment",
    "run_recovery_scalability",
    "run_validation_experiment",
]
