"""Static verification of the coherence protocol: one gate.

:mod:`repro.verify.model` runs the handlers of ``coherence/protocol.py``
— the ``_HANDLERS`` table the simulator dispatches through — on a
stand-in MAGIC over abstract single-line configurations;
:mod:`repro.verify.checker` exhaustively explores the reachable space
and checks the paper's containment invariants (single-owner, lock
bookkeeping and drainability, sharer consistency, firewall escape), and
delivers the uncached kinds once each (uncached-I/O containment).
:func:`check_protocol` runs all of it as ``repro.cli verify-protocol``.
"""

from repro.verify.checker import (Report, ScenarioResult, Violation,
                                  check_protocol)
from repro.verify.model import (HOME, Config, ModelError, Scenario,
                                StandInMagic, initial_config)

__all__ = [
    "HOME", "Config", "ModelError", "Report", "Scenario", "ScenarioResult",
    "StandInMagic", "Violation", "check_protocol", "initial_config",
]
