"""Static verification of the coherence protocol: one gate.

:mod:`repro.verify.extract` (over :mod:`repro.verify.cfg`) lifts the
transition table out of the AST of ``coherence/protocol.py`` and owns
the golden-spec format; :mod:`repro.verify.model` executes the table
over abstract single-line configurations; :mod:`repro.verify.checker`
exhaustively explores the reachable space and checks the paper's
containment invariants (single-owner, lock bookkeeping and
drainability, sharer consistency, firewall escape) plus the spec's
shape.  :func:`check_protocol` runs all of it as
``repro.cli verify-protocol``.
"""

from repro.verify.checker import (GOLDEN_SPEC, ProtocolCheck, Report,
                                  ScenarioResult, Violation, check_protocol,
                                  verify_spec)
from repro.verify.extract import (ExtractionError, ProtocolModel,
                                  extract_from_source, extract_protocol,
                                  load_spec, spec_diff, write_spec)
from repro.verify.model import (HOME, Config, ModelError, Scenario,
                                SpecMachine, initial_config)

__all__ = [
    "GOLDEN_SPEC", "HOME", "Config", "ExtractionError", "ModelError",
    "ProtocolCheck", "ProtocolModel", "Report", "Scenario",
    "ScenarioResult", "SpecMachine", "Violation", "check_protocol",
    "extract_from_source", "extract_protocol", "initial_config",
    "load_spec", "spec_diff", "verify_spec", "write_spec",
]
