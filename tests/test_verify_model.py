"""Small-model checker tests: clean-tree verification plus directed
seeded-bug experiments.

The checker runs the live handlers, so a seeded bug is an edit to the
*real* protocol source: the mutated source is executed into a fresh
module and its ``_HANDLERS``/``ProtocolEngine`` are handed to the one
protocol gate, which must reject each mutation — with a reproduction
trace where the explorer is the one that catches it — and never crash.
"""

import json
import os
import types

import pytest

from repro.cli import build_parser, main
from repro.coherence.messages import MessageKind
from repro.coherence.protocol import _HANDLERS
from repro.node.magic import _RECOVERY_KINDS, _REPLY_KINDS
from repro.verify import check_protocol
from tests.test_hygiene import findings

PROTOCOL_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro", "coherence", "protocol.py")

with open(PROTOCOL_PATH) as _handle:
    CLEAN_SOURCE = _handle.read()

#: states/transitions per scenario on the shipped protocol
CLEAN_COUNTS = {
    "fault-free/firewall-on": (5071, 5454),
    "fault-free/firewall-off": (5071, 5454),
    "failed-cell": (6686, 7035),
}


def mutate(old, new):
    """Apply a single-site mutation to the real protocol source."""
    assert CLEAN_SOURCE.count(old) == 1, "mutation anchor must be unique"
    return CLEAN_SOURCE.replace(old, new)


def load_protocol(source):
    """Execute protocol source into a fresh module."""
    module = types.ModuleType("protocol_under_test")
    exec(compile(source, PROTOCOL_PATH, "exec"), module.__dict__)
    return module


def undispatched(handlers):
    """Kinds MAGIC would hand to nobody: not the recovery inbox, the OS
    inbox, the reply harness or the protocol table."""
    dispatched = (set(handlers) | _REPLY_KINDS | _RECOVERY_KINDS
                  | {MessageKind.OS_MSG})
    return set(MessageKind) - dispatched


def rejections(source, max_states=200000):
    """The checker's report on ``source``, and everything that rejects
    it: the checker's invariants, the hygiene rules that fire on it as
    ``coherence/protocol.py``, and ``dispatch-coverage``."""
    module = load_protocol(source)
    report = check_protocol(handlers=module._HANDLERS,
                            engine_class=module.ProtocolEngine,
                            max_states=max_states)
    found = {violation.invariant for violation in report.violations()}
    found |= {rule for _, rule, _ in findings("coherence/protocol.py",
                                               source)}
    if undispatched(module._HANDLERS):
        found.add("dispatch-coverage")
    return report, found


def counts(report):
    return {scenario.name: (scenario.states, scenario.transitions)
            for scenario in report.scenarios}


class TestCleanTree:
    def test_clean_protocol_verifies_exhaustively(self):
        report = check_protocol()
        assert report.ok, [v.description for v in report.violations()]
        assert counts(report) == CLEAN_COUNTS
        assert (report.total_states, report.total_transitions) == (
            16828, 17943)
        assert len(report.pairs) == 19

    def test_executed_copy_matches_the_shipped_module(self):
        """The mutation harness itself: the unmutated source, executed
        into a fresh module, explores the same space and nothing
        rejects it."""
        report, found = rejections(CLEAN_SOURCE)
        assert found == set()
        assert counts(report) == CLEAN_COUNTS
        assert report.pairs == check_protocol().pairs


class TestDispatchCoverage:
    def test_every_message_kind_has_a_dispatch_path(self):
        """MAGIC hands a kind to the recovery inbox, the OS inbox, the
        reply harness or the protocol table; any other kind would count
        as a stray message at runtime."""
        assert undispatched(_HANDLERS) == set()


class TestCli:
    def test_verify_protocol_json_report(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["verify-protocol", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out.read_text())
        assert payload["ok"]
        assert payload["total_states"] == 16828
        assert ["LOCKED", "PUT"] in payload["pairs"]
        assert payload["direct_violations"] == []

    def test_no_spec_options_remain(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["verify-protocol", "--update-spec"])


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
        report, invariants = rejections(mutate(*LOCK_LEAK))
        assert "lock-deadlock" in invariants
        witness = next(v for v in report.violations()
                       if v.invariant == "lock-deadlock")
        assert witness.trace, "violation must carry a reproduction trace"


class TestSeededFirewallBypass:
    def test_model_catches_it(self):
        report, invariants = rejections(mutate(*FIREWALL_BYPASS))
        assert "escape-send" in invariants
        witness = next(v for v in report.violations()
                       if v.invariant == "escape-send")
        assert witness.scenario == "failed-cell", (
            "the bypass must manifest as a grant into the failed cell")


class TestSeededWritebackRace:
    def test_model_catches_the_original_seed_bug(self):
        """Regression: the race the checker originally found must stay
        findable if anyone reintroduces the eager completion."""
        report, invariants = rejections(mutate(*WRITEBACK_RACE))
        assert "single-owner" in invariants, sorted(invariants)
        witness = next(v for v in report.violations()
                       if v.invariant == "single-owner")
        assert witness.trace


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

INCOHERENT_RENAMED_BROKEN = (
    "        if entry.state == DirState.INCOHERENT:\n"
    "            self._reply_bus_error(requester, line,\n"
    "                                  BusErrorKind.INCOHERENT_LINE)\n"
    "            return self.params.handler_time\n",

    "        if entry.state == DirState.BROKEN:\n"
    "            self._reply_bus_error(requester, line,\n"
    "                                  BusErrorKind.INCOHERENT_LINE)\n"
    "            return self.params.handler_time\n",
)


class TestSendToNoNode:
    def test_is_reported_as_a_model_gap(self):
        """Regression: a handler path that sends to None (here FWD_GET
        to the owner of a line locked with no owner) is a finding with a
        trace, not a crash while the explorer sorts the network queues."""
        report, invariants = rejections(mutate(*LOCKED_NAK_REMOVED))
        gaps = [v for v in report.violations()
                if v.invariant == "model-gap" and "to no node" in
                v.description]
        assert gaps, sorted(invariants)
        assert gaps[0].trace, "violation must carry a reproduction trace"


class TestHandlerException:
    def test_is_reported_with_a_trace(self):
        """A handler that raises (a misspelt ``DirState`` member) is a
        violation carrying the delivery that raised, not a crash."""
        report, _ = rejections(mutate(*INCOHERENT_RENAMED_BROKEN))
        raised = [v for v in report.violations()
                  if v.invariant == "handler-exception"]
        assert raised
        assert "AttributeError" in raised[0].description
        assert "BROKEN" in raised[0].description
        assert "(protocol.py:" in raised[0].description
        assert raised[0].trace


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
        "", {"escape-send"}, id="getx-firewall-removed"),
    pytest.param(
        "            entry.unlock(DirState.UNOWNED)\n"
        "            magic.hooks.on_put_absorbed(magic.node_id, line)\n",
        "            entry.unlock(DirState.UNOWNED)\n"
        "            entry.lock(MessageKind.GET, writer)\n"
        "            magic.hooks.on_put_absorbed(magic.node_id, line)\n",
        {"lock-deadlock"}, id="put-lock-after-unlock"),
    pytest.param(
        "        self._note_stray(packet, \"put-without-ownership\")\n"
        "        return self.params.short_handler_time\n",
        "", {"handler-cost"}, id="put-default-removed"),
    _unhandled("FWD_MISS", "_home_fwd_miss", {"model-gap"}),
    _unhandled("INVAL_ACK", "_home_inval_ack", {"model-gap"}),
    _unhandled("UC_WRITE", "_home_uc_write",
               {"dispatch-coverage", "missing-handler"}),
    pytest.param(*INCOHERENT_RENAMED_BROKEN, {"handler-exception"},
                 id="incoherent-renamed-broken"),
    pytest.param(*LOCKED_NAK_REMOVED, {"lock-bookkeeping", "model-gap"},
                 id="get-locked-nak-removed"),
    pytest.param(
        # _home_uncached without the remote-I/O rejection (§3.3): the
        # request falls through to the device access.
        "        if (magic.address_map.is_io_region(address)\n"
        "                and requester not in magic.failure_unit):\n"
        "            # Nonidempotent I/O never crosses failure-unit boundaries\n"
        "            # directly; it must go through the OS RPC path (§3.3).  The\n"
        "            # error rides the uncached-reply kind so the requester's\n"
        "            # outstanding-table lookup finds it by uc_key.\n"
        "            magic.send_message(requester, reply_kind,\n"
        "                               {\"uc_key\": payload[\"uc_key\"],\n"
        "                                \"address\": address,\n"
        "                                \"error_kind\":\n"
        "                                    BusErrorKind.REMOTE_UNCACHED_IO,\n"
        "                                \"detail\": \"uncached I/O across "
        "failure unit\"})\n"
        "            return self.params.handler_time\n",
        "", {"uncached-escape"}, id="uc-io-rejection-removed"),
]


class TestMeasuredMutations:
    @pytest.mark.parametrize("old, new, rejected_by", MEASURED_MUTATIONS)
    def test_is_rejected(self, old, new, rejected_by):
        _report, found = rejections(mutate(old, new))
        assert rejected_by <= found, sorted(found)
