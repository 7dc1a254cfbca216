"""Small-model checker tests: clean-tree verification plus directed
seeded-bug experiments.

The seeded bugs mutate the *real* protocol source and assert that the
one protocol gate -- extraction plus the exhaustive explorer -- rejects
each of them, with a reproduction trace where the explorer is the one
that catches it.
"""

import os

import pytest

from repro.coherence.messages import MessageKind
from repro.coherence.protocol import _HANDLERS
from repro.node.magic import _RECOVERY_KINDS, _REPLY_KINDS
from repro.verify import ExtractionError, verify_spec
from repro.verify.checker import static_checks
from repro.verify.extract import extract_from_source
from repro.verify.model import _admissible_states, _may_states, _must_states

PROTOCOL_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro", "coherence", "protocol.py")

with open(PROTOCOL_PATH) as _handle:
    CLEAN_SOURCE = _handle.read()


def mutate(old, new):
    """Apply a single-site mutation to the real protocol source."""
    assert CLEAN_SOURCE.count(old) == 1, "mutation anchor must be unique"
    return CLEAN_SOURCE.replace(old, new)


def model_violations(source, max_states=200000):
    spec = extract_from_source(source).to_spec()
    report = verify_spec(spec, max_states=max_states)
    return report, {v.invariant for v in report.violations()}


class TestCleanTree:
    def test_clean_protocol_verifies_exhaustively(self):
        report, invariants = model_violations(CLEAN_SOURCE)
        assert report.ok, "clean tree must verify: %s" % sorted(invariants)
        assert report.total_states > 5000, (
            "exploration suspiciously small: %d states"
            % report.total_states)
        assert report.total_transitions > report.total_states

    def test_static_checks_flag_missing_uncached_rejection(self):
        spec = extract_from_source(CLEAN_SOURCE).to_spec()
        assert static_checks(spec) == []
        gutted = dict(spec)
        gutted["transitions"] = [t for t in spec["transitions"]
                                 if t["kind"] != "UC_WRITE"]
        invariants = {v.invariant for v in static_checks(gutted)}
        assert "missing-handler" in invariants

    def test_static_checks_flag_unknown_enum_names(self):
        spec = extract_from_source(CLEAN_SOURCE).to_spec()
        spec["handlers"]["TYPO"] = spec["handlers"].pop("PUT")
        spec["transitions"][0]["items"].insert(
            0, ["guard", ["state", "BROKEN"], False])
        unknown = {v.description.split(" ")[0] for v in static_checks(spec)
                   if v.invariant == "unknown-member"}
        assert unknown == {"MessageKind.TYPO", "DirState.BROKEN"}


class TestDispatchCoverage:
    def test_every_message_kind_has_a_dispatch_path(self):
        """MAGIC hands a kind to the recovery inbox, the OS inbox, the
        reply harness or the protocol table; any other kind would count
        as a stray message at runtime."""
        dispatched = (set(_HANDLERS) | _REPLY_KINDS | _RECOVERY_KINDS
                      | {MessageKind.OS_MSG})
        assert set(MessageKind) - dispatched == set()


class TestStateAlgebra:
    """may/must guard interpretation feeding _admissible_states."""

    def test_positive_state_guard(self):
        items = [["guard", ["state", "LOCKED"], True]]
        assert _admissible_states(items) == frozenset({"LOCKED"})

    def test_negated_or_of_states(self):
        atom = ["not", ["or", [["state", "UNOWNED"], ["state", "SHARED"]]]]
        assert _may_states(atom) == frozenset(
            {"EXCLUSIVE", "LOCKED", "INCOHERENT"})
        assert _must_states(atom) == frozenset(
            {"EXCLUSIVE", "LOCKED", "INCOHERENT"})

    def test_unknown_atoms_widen_may_and_narrow_must(self):
        atom = ["and", [["state", "LOCKED"], ["acks_remaining"]]]
        assert _may_states(atom) == frozenset({"LOCKED"})
        assert _must_states(atom) == frozenset()

    def test_sharing_wb_main_path_reduces_to_locked(self):
        """The SHARING_WB main path is guarded by a negated stray
        check (``not (state is not LOCKED or ...)``); the algebra must
        still pin it to exactly {LOCKED}."""
        model = extract_from_source(CLEAN_SOURCE)
        spec = model.to_spec()
        main = [t for t in spec["transitions"]
                if t["kind"] == "SHARING_WB"
                and not any(i[0] == "stray" for i in t["items"])]
        assert main, "SHARING_WB main path missing from extraction"
        for transition in main:
            assert _admissible_states(transition["items"]) == frozenset(
                {"LOCKED"}), transition["path"]


# ---------------------------------------------------------- seeded bugs

LOCK_LEAK = (
    # _home_fwd_miss stale-memory branch: drop the unlock but keep the
    # NAK.  A release for pending GET/GETX still exists on other paths,
    # so only exploration shows the line wedging.
    "        requester = entry.pending_requester\n"
    "        entry.unlock(DirState.EXCLUSIVE)\n"
    "        self._reply_nak(requester, line)\n",

    "        requester = entry.pending_requester\n"
    "        self._reply_nak(requester, line)\n",
)

FIREWALL_BYPASS = (
    # _home_getx: invert the membership test so *remote* writers skip
    # the firewall check.  The guard still mentions firewall_enabled,
    # so every grant still looks dominated by a firewall consultation.
    "        if (magic.firewall_enabled\n"
    "                and requester not in magic.failure_unit):",

    "        if (magic.firewall_enabled\n"
    "                and requester in magic.failure_unit):",
)

WRITEBACK_RACE = (
    # _home_put LOCKED branch: reintroduce the original seed bug by
    # completing the pending transaction from the freshly absorbed
    # writeback while the forwarded intervention is still in flight.
    "            magic.memory.write_line(line, value)\n"
    "            entry.memory_valid = True\n"
    "            magic.hooks.on_put_absorbed(magic.node_id, line)\n"
    "            return self.params.handler_time\n",

    "            magic.memory.write_line(line, value)\n"
    "            entry.memory_valid = True\n"
    "            magic.hooks.on_put_absorbed(magic.node_id, line)\n"
    "            self._complete_pending_from_memory(entry, line)\n"
    "            return self.params.handler_time\n",
)


class TestSeededLockLeak:
    def test_model_catches_it(self):
        report, invariants = model_violations(mutate(*LOCK_LEAK))
        assert "lock-deadlock" in invariants
        witness = next(v for v in report.violations()
                       if v.invariant == "lock-deadlock")
        assert witness.trace, "violation must carry a reproduction trace"


class TestSeededFirewallBypass:
    def test_model_catches_it(self):
        report, invariants = model_violations(mutate(*FIREWALL_BYPASS))
        assert "escape-send" in invariants
        witness = next(v for v in report.violations()
                       if v.invariant == "escape-send")
        assert witness.scenario == "failed-cell", (
            "the bypass must manifest as a grant into the failed cell")


class TestSeededWritebackRace:
    def test_model_catches_the_original_seed_bug(self):
        """Regression: the race the checker originally found must stay
        findable if anyone reintroduces the eager completion."""
        report, invariants = model_violations(mutate(*WRITEBACK_RACE))
        assert not report.ok
        assert invariants & {"single-owner", "lock-bookkeeping",
                             "sharer-vector"}, sorted(invariants)


LOCKED_NAK_REMOVED = (
    # _home_get without its LOCKED branch: a GET on a locked line falls
    # through to the EXCLUSIVE path and locks it again.
    "        if entry.state == DirState.LOCKED:\n"
    "            self._reply_nak(requester, line)\n"
    "            return self.params.short_handler_time\n"
    "\n"
    "        if entry.state == DirState.UNOWNED:\n"
    "            entry.state = DirState.SHARED\n",

    "        if entry.state == DirState.UNOWNED:\n"
    "            entry.state = DirState.SHARED\n",
)


class TestSendToNoNode:
    def test_is_reported_as_a_model_gap(self):
        """Regression: a handler path that sends to a slot holding None
        (here FWD_GET to the owner of a line locked with no owner) used
        to crash the explorer with a TypeError while it sorted the
        network queues."""
        report, invariants = model_violations(mutate(*LOCKED_NAK_REMOVED))
        gaps = [v for v in report.violations()
                if v.invariant == "model-gap" and "to no node" in
                v.description]
        assert gaps, sorted(invariants)
        assert gaps[0].trace, "violation must carry a reproduction trace"


def _unhandled(kind, method, rejected_by):
    """The mutation that drops one ``_HANDLERS`` entry."""
    line = "    MessageKind.%s: ProtocolEngine.%s,\n" % (kind, method)
    return pytest.param(line, "", rejected_by,
                        id="%s-unhandled" % kind.lower().replace("_", "-"))


#: One case per measured mutation: (old, new, what rejects it).
MEASURED_MUTATIONS = [
    pytest.param(
        "        if (magic.firewall_enabled\n"
        "                and requester not in magic.failure_unit):\n"
        "            reply_delay = self.params.firewall_check_time\n"
        "            cost += reply_delay\n"
        "            page = page_of(line, magic.address_map.page_size)\n"
        "            if not magic.firewall_allows(page, requester):\n"
        "                magic.stats.firewall_rejections += 1\n"
        "                self._reply_bus_error(requester, line,\n"
        "                                      BusErrorKind.FIREWALL)\n"
        "                return cost\n",
        "", "escape-send", id="getx-firewall-removed"),
    pytest.param(
        "            entry.unlock(DirState.UNOWNED)\n"
        "            magic.hooks.on_put_absorbed(magic.node_id, line)\n",
        "            entry.unlock(DirState.UNOWNED)\n"
        "            entry.lock(MessageKind.GET, writer)\n"
        "            magic.hooks.on_put_absorbed(magic.node_id, line)\n",
        "lock-deadlock", id="put-lock-after-unlock"),
    pytest.param(
        "        self._note_stray(packet, \"put-without-ownership\")\n"
        "        return self.params.short_handler_time\n",
        "", ExtractionError, id="put-default-removed"),
    _unhandled("FWD_MISS", "_home_fwd_miss", "model-gap"),
    _unhandled("INVAL_ACK", "_home_inval_ack", "model-gap"),
    _unhandled("PAGE_SCRUB", "_home_page_scrub", "missing-handler"),
    pytest.param(
        "        if entry.state == DirState.INCOHERENT:\n"
        "            self._reply_bus_error(requester, line,\n"
        "                                  BusErrorKind.INCOHERENT_LINE)\n"
        "            return self.params.handler_time\n",
        "        if entry.state == DirState.BROKEN:\n"
        "            self._reply_bus_error(requester, line,\n"
        "                                  BusErrorKind.INCOHERENT_LINE)\n"
        "            return self.params.handler_time\n",
        "unknown-member", id="incoherent-renamed-broken"),
    pytest.param(*LOCKED_NAK_REMOVED, "lock-bookkeeping",
                 id="get-locked-nak-removed"),
]


class TestMeasuredMutations:
    @pytest.mark.parametrize("old, new, rejected_by", MEASURED_MUTATIONS)
    def test_is_rejected(self, old, new, rejected_by):
        source = mutate(old, new)
        if rejected_by is ExtractionError:
            with pytest.raises(ExtractionError):
                extract_from_source(source)
            return
        _report, invariants = model_violations(source)
        assert rejected_by in invariants, sorted(invariants)
