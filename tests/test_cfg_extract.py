"""Flow-sensitive extraction of the coherence transition system.

These tests pin the extraction contract the model checker depends on:
the real protocol module extracts cleanly, anything outside the handler
dialect raises, the item vocabulary stays canonical, specs round-trip
through JSON, drift is detectable, and the committed golden spec
matches a fresh extraction of the tree.
"""

import json
import os

import pytest

from repro.verify import check_protocol
from repro.verify.extract import (ExtractionError, ProtocolModel,
                                  extract_from_source, spec_diff)

HERE = os.path.dirname(os.path.abspath(__file__))
PROTOCOL_PATH = os.path.join(
    os.path.dirname(HERE), "src", "repro", "coherence", "protocol.py")

with open(PROTOCOL_PATH) as _handle:
    SOURCE = _handle.read()

ITEM_TAGS = {
    "acks_dec", "assert", "bind", "cache", "fanout", "guard", "hook",
    "io", "lock", "mem_write", "scrub", "send", "sharers_add", "stat",
    "stray", "unlock", "write",
}


@pytest.fixture(scope="module")
def model():
    return extract_from_source(SOURCE)


class TestRealModuleExtraction:
    def test_full_handler_table_extracts_strictly(self, model):
        assert len(model.handlers) == 13
        assert len(model.transitions) == 55

    def test_every_transition_is_canonical(self, model):
        spec = model.to_spec()
        for transition in spec["transitions"]:
            assert transition["kind"] in spec["handlers"]
            assert isinstance(transition["path"], int)
            assert isinstance(transition["occupancy"], str)
            for item in transition["items"]:
                assert item[0] in ITEM_TAGS, item

    def test_entry_flag_atoms_survive_extraction(self, model):
        """Bare truthiness guards on entry fields (``if
        entry.memory_valid:`` in the FWD_MISS handler) must
        canonicalise to ["entry_flag", field], not an opaque atom."""
        found = set()

        def visit(node):
            if isinstance(node, list):
                if node and node[0] == "entry_flag":
                    found.add(node[1])
                for child in node:
                    visit(child)

        for transition in model.to_spec()["transitions"]:
            visit(transition["items"])
        assert "memory_valid" in found

    def test_every_kind_keeps_at_least_one_path(self, model):
        by_kind = model.by_kind()
        assert set(by_kind) == set(model.handlers)
        assert all(by_kind[kind] for kind in by_kind)


class TestDialectEnforcement:
    BAD = SOURCE.replace(
        "        entry = magic.directory.entry(line)\n\n"
        "        if entry.state == DirState.EXCLUSIVE"
        " and entry.owner == writer:",
        "        entry = magic.directory.entry(line)\n"
        "        while value > 0:\n"
        "            value -= 1\n\n"
        "        if entry.state == DirState.EXCLUSIVE"
        " and entry.owner == writer:")

    def test_strict_mode_raises_on_unsupported_flow(self):
        assert self.BAD != SOURCE
        with pytest.raises(ExtractionError) as excinfo:
            extract_from_source(self.BAD)
        assert "While" in str(excinfo.value)

    def test_tolerant_mode_reports_issue_and_drops_handler(self):
        """There is no tolerant mode: the error names every issue, and
        only the broken handler has one."""
        with pytest.raises(ExtractionError) as excinfo:
            extract_from_source(self.BAD)
        assert {issue.handler for issue in excinfo.value.issues} == {
            "_home_put"}


class TestSpecRoundTrip:
    def test_spec_round_trips_through_from_spec(self, model):
        spec = model.to_spec()
        assert ProtocolModel.from_spec(spec).to_spec() == spec

    def test_spec_round_trips_through_json(self, model):
        spec = model.to_spec()
        assert json.loads(json.dumps(spec)) == spec


class TestSpecDiff:
    def test_identical_specs_produce_no_diff(self, model):
        spec = model.to_spec()
        assert spec_diff(spec, spec) == []

    def test_dropped_transition_is_reported(self, model):
        spec = model.to_spec()
        pruned = dict(spec)
        pruned["transitions"] = [t for t in spec["transitions"]
                                 if t["kind"] != "FWD_MISS"]
        drift = spec_diff(spec, pruned)
        assert drift
        assert any("FWD_MISS" in line for line in drift)

    def test_rerouted_handler_is_reported(self, model):
        spec = model.to_spec()
        rerouted = json.loads(json.dumps(spec))
        rerouted["handlers"]["PUT"] = "_home_getx"
        drift = spec_diff(spec, rerouted)
        assert any("PUT" in line and "_home_getx" in line
                   for line in drift)


class TestGoldenSpec:
    def test_committed_spec_matches_fresh_extraction(self):
        """Drift gate: editing protocol.py without re-blessing the spec
        (repro.cli verify-protocol --update-spec) must fail here, through
        the same check_protocol the CLI runs."""
        check = check_protocol()
        assert check.drift == []
        assert check.ok
