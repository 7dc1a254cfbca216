"""Multi-fault recovery: the §4.1 restart rule, injector hardening, and
the transient fault models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import FlashMachine, MachineConfig
from repro.campaign.schedule import FaultSchedule, TimedFault
from repro.common.types import Lane
from repro.core.experiment import run_schedule_experiment, run_validation_experiment
from repro.faults.models import FaultSpec, FaultType
from repro.interconnect.topology import make_topology


def small_config(seed=11, num_nodes=8):
    return MachineConfig(num_nodes=num_nodes, mem_per_node=1 << 16,
                         l2_size=1 << 13, seed=seed)


# ------------------------------------------------- §4.1 restart, per phase

class TestSecondFaultDuringRecovery:
    """A node dies just as its own agent enters each recovery phase."""

    @pytest.mark.parametrize("phase", ["P1", "P2", "P3", "P4"])
    def test_second_fault_each_phase_contained(self, phase):
        schedule = FaultSchedule(
            entries=(
                TimedFault(FaultSpec.node_failure(7), time=0.0),
                TimedFault(FaultSpec.node_failure(4),
                           phase=phase, phase_node=4),
            ),
            num_nodes=8, topology="mesh", name="directed-" + phase)
        result = run_schedule_experiment(
            schedule, config=small_config(11), seed=11)

        assert result.passed, result.problems
        assert result.episodes >= 1
        survivors = set(result.reports[-1].available_nodes)
        assert 7 not in survivors
        assert 4 not in survivors
        assert survivors, "recovery lost the whole machine"
        if phase == "P1":
            # A death during P1 needs no restart: P1 *is* the discovery
            # phase — the CWN probing observes the node dead and the views
            # absorb it (every agent is still building its view, none has
            # committed to the victim as a protocol partner yet).
            assert result.restarts >= 0
        else:
            # P2-P4: the victim is already a dissemination/barrier partner
            # of the surviving agents, so its death mid-protocol must trip
            # the §4.1 restart rule — and recovery must still converge.
            assert result.restarts >= 1, (
                "second fault in %s was silently absorbed" % phase)


class TestLinkFailureOnP4Entry:
    """A false alarm, then a link dies as the first agent enters P4.

    ``PUT``s that P4 flushes along tables computed with the link up are
    lost on it; a node still waiting at the ``routes`` barrier times out
    and restarts recovery (§4.1).  The restarted P4 must re-snapshot the
    oracle, or the lines whose writeback was lost count as over-marked.
    """

    @pytest.mark.parametrize("num_nodes,topology,link,at_ms,reason", [
        (8, "mesh", (5, 7), 412.49, "barrier 'routes'"),
        (8, "mesh", (2, 4), 412.49, "barrier 'routes'"),
        (16, "hypercube", (5, 7), 416.38, "flush barrier"),
    ], ids=["mesh8-link5-7", "mesh8-link2-4", "hypercube16-link5-7"])
    def test_restarted_p4_resnapshots_the_oracle(self, num_nodes, topology,
                                                 link, at_ms, reason):
        schedule = FaultSchedule(
            entries=(
                TimedFault(FaultSpec.false_alarm(0), time=0.0),
                TimedFault(FaultSpec.link_failure(*link), phase="P4"),
            ),
            num_nodes=num_nodes, topology=topology)
        result = run_schedule_experiment(
            schedule, config=MachineConfig(
                num_nodes=num_nodes, topology=topology,
                mem_per_node=1 << 16, l2_size=1 << 13, seed=0), seed=0,
            collect_metrics=True)

        assert result.passed, result.problems
        assert result.episodes == 1
        assert result.restarts == 1
        # The record shows the restart, and the episode's time adds up:
        # trigger, the barrier wait that ends in the restart, then the
        # completing pass that ``phase_ms`` describes.
        recovery = result.metrics["recovery"]
        (episode,) = recovery["timeline"]
        (restart,) = episode["restarts"]
        assert restart["at_ms"] == pytest.approx(at_ms, abs=0.01)
        assert restart["reason"].startswith(reason), restart
        assert episode["total_ms"] == recovery["total_ms"]
        complete_ms = episode["trigger_ms"] + episode["total_ms"]
        assert episode["trigger_ms"] < restart["at_ms"] < complete_ms
        longest_phase = max(recovery["phase_ms"][phase]
                            for phase in ("P1", "P2", "P3", "P4"))
        assert complete_ms - restart["at_ms"] >= longest_phase


class TestDroppedPutMutant:
    """The P4 re-snapshot allows every line with a ``PUT`` in flight at
    P4 entry.  A MAGIC that silently drops drained ``PUT``s must still
    turn some run of a small battery red: the allowance is not so wide
    that it hides lost writebacks."""

    RUNS = 4

    def _battery(self):
        from repro.campaign.runner import CampaignRunner
        runner = CampaignRunner(kind="fault-during-recovery",
                                campaign_seed=0)
        verdicts = []
        for run_index in range(self.RUNS):
            seed, schedule = runner.plan_run(run_index)
            verdicts.append(run_schedule_experiment(
                schedule, config=small_config(seed), seed=seed).passed)
        return verdicts

    def test_dropping_drained_puts_goes_red(self, monkeypatch):
        from repro.coherence.messages import MessageKind
        from repro.node.magic import Magic

        assert all(self._battery())

        real = Magic._handle_drained

        def drop_puts(self, packet):
            if packet.kind == MessageKind.PUT:
                self.last_normal_delivery = self.sim.now
                self.stats.drained_messages += 1
                return self.params.handler_time
            return real(self, packet)

        monkeypatch.setattr(Magic, "_handle_drained", drop_puts)
        assert not all(self._battery())


class TestLinkFailureDuringRecovery:
    """Property form of the reproducer above: a first fault at t=0, then
    any link of the 8-node mesh dies as the first agent enters P2, P3 or
    P4.  Every such run recovers and passes the memory check."""

    MESH8_LINKS = [(a, b) for a, _, b, _ in make_topology("mesh", 8).links()]

    @given(first=st.sampled_from([FaultSpec.node_failure(2),
                                  FaultSpec.false_alarm(0),
                                  FaultSpec.infinite_loop(6)]),
           link=st.sampled_from(MESH8_LINKS),
           phase=st.sampled_from(["P2", "P3", "P4"]))
    @settings(derandomize=True, max_examples=8, deadline=None)
    def test_link_failure_on_phase_entry_is_contained(self, first, link,
                                                      phase):
        schedule = FaultSchedule(
            entries=(
                TimedFault(first, time=0.0),
                TimedFault(FaultSpec.link_failure(*link), phase=phase),
            ),
            num_nodes=8, topology="mesh")
        result = run_schedule_experiment(
            schedule, config=MachineConfig(
                num_nodes=8, topology="mesh", mem_per_node=1 << 16,
                l2_size=1 << 13, seed=0), seed=0)
        assert result.passed, result.problems


class TestPartitionedSurvivors:
    """A router failure plus one link failure cuts the 8-node mesh in two
    (ROADMAP: "partitioned survivors").  Runs 0 and 3 of ``campaign
    --schedule correlated-link-router --seed 0``, on a campaign worker's
    machine.  Both fail today; each docstring records how."""

    def _run(self, seed, router, link, link_time):
        schedule = FaultSchedule(
            entries=(
                TimedFault(FaultSpec.router_failure(router), time=0.0),
                TimedFault(FaultSpec.link_failure(*link), time=link_time),
            ),
            num_nodes=8, topology="mesh", name="correlated-link-router")
        config = MachineConfig(num_nodes=8, topology="mesh",
                               mem_per_node=64 << 10, l2_size=8 << 10,
                               seed=seed)
        return run_schedule_experiment(schedule, config=config, seed=seed)

    @pytest.mark.xfail(strict=True,
                       reason="split-brain exit loses the machine")
    def test_cut_off_pair_does_not_lose_the_machine(self):
        """Router 3 fails at t=0, then link 0-2 at 135 994.4 ns, which cuts
        {0,1} off from {2,4,5,6,7}.  Today {0,1} take the split-brain
        exit: the one report has ``shutdown_nodes={0,1}`` and no
        ``available_nodes``, nodes 2-7 never enter recovery, and the run
        fails with "no surviving checker completed"."""
        result = self._run(7689419447139100721, 3, (0, 2),
                           135994.39555278243)
        assert result.passed, result.problems

    @pytest.mark.xfail(strict=True,
                       reason="oracle ignores the cut-off nodes")
    def test_lines_lost_with_a_cut_off_pair_are_allowed(self):
        """Router 5 fails at t=0, then link 4-6 at 372 256.8 ns, which cuts
        {6,7} off.  Today no node shuts down, ``available_nodes`` is
        [0..4], and 36 lines are marked against 16 allowed: the oracle's
        failed set holds only the injected targets, so the run fails with
        "over-marked 26 lines"."""
        result = self._run(259822417500629978, 5, (4, 6), 372256.838835771)
        assert result.passed, result.problems


# ------------------------------------------------------ injector hardening

class TestInjectorHardening:
    def test_fault_on_failed_node_is_noop(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(FaultSpec.node_failure(2))
        with pytest.warns(UserWarning, match="already-failed"):
            machine.injector.inject(FaultSpec.node_failure(2))
        assert len(machine.injector.injected) == 1
        assert len(machine.injector.skipped) == 1

    def test_wedge_on_wedged_node_is_noop(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(FaultSpec.infinite_loop(1))
        with pytest.warns(UserWarning, match="already-failed"):
            machine.injector.inject(FaultSpec.infinite_loop(1))
        assert len(machine.injector.skipped) == 1

    def test_fault_on_failed_link_is_noop(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(FaultSpec.link_failure(0, 1))
        with pytest.warns(UserWarning, match="already-failed"):
            machine.injector.inject(FaultSpec.link_failure(0, 1))
        assert len(machine.injector.skipped) == 1

    def test_link_fault_with_dead_endpoint_router_is_noop(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(FaultSpec.router_failure(1))
        with pytest.warns(UserWarning, match="already-failed"):
            machine.injector.inject(FaultSpec.link_failure(0, 1))
        assert len(machine.injector.skipped) == 1

    def test_fault_on_failed_router_is_noop(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(FaultSpec.router_failure(2))
        with pytest.warns(UserWarning, match="already-failed"):
            machine.injector.inject(FaultSpec.router_failure(2))
        assert len(machine.injector.skipped) == 1

    def test_unknown_link_still_raises(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        with pytest.raises(ValueError):
            machine.injector.inject(FaultSpec.link_failure(0, 3))


# -------------------------------------------------- FaultSpec.random exclude

class TestRandomExclude:
    def test_excluded_nodes_never_drawn(self):
        topo = make_topology("mesh", 8)
        rng = random.Random(5)
        exclude = {0, 1, 2, 3, 4, 5, 6}
        for _ in range(30):
            spec = FaultSpec.random(rng, topo, FaultType.NODE_FAILURE,
                                    exclude=exclude)
            assert spec.target == 7

    def test_all_nodes_excluded_raises(self):
        topo = make_topology("mesh", 4)
        rng = random.Random(5)
        with pytest.raises(ValueError):
            FaultSpec.random(rng, topo, FaultType.NODE_FAILURE,
                             exclude={0, 1, 2, 3})

    def test_excluded_links_never_drawn(self):
        topo = make_topology("mesh", 4)
        rng = random.Random(5)
        all_links = {frozenset((a, b)) for a, _, b, _ in topo.links()}
        keep = sorted(all_links, key=sorted)[0]
        exclude = all_links - {keep}
        for _ in range(30):
            spec = FaultSpec.random(rng, topo, FaultType.LINK_FAILURE,
                                    exclude=exclude)
            assert frozenset(spec.target) == keep

    def test_all_links_excluded_raises(self):
        topo = make_topology("mesh", 4)
        rng = random.Random(5)
        all_links = {frozenset((a, b)) for a, _, b, _ in topo.links()}
        with pytest.raises(ValueError):
            FaultSpec.random(rng, topo, FaultType.LINK_FAILURE,
                             exclude=all_links)

    def test_sequential_draws_are_disjoint(self):
        topo = make_topology("mesh", 8)
        rng = random.Random(9)
        used = set()
        for _ in range(6):
            spec = FaultSpec.random(rng, topo, exclude=used)
            assert not (spec.excluded_targets() & used)
            used |= spec.excluded_targets()


# ------------------------------------------------------ transient fault models

class TestTransientModels:
    def test_transient_link_heals_after_dwell(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        link = machine.network.link_between(0, 1)
        machine.injector.inject(
            FaultSpec.transient_link_failure(0, 1, dwell=500_000.0))
        assert link.failed
        machine.sim.run(until=machine.sim.now + 600_000.0)
        assert not link.failed

    def test_heal_is_refused_when_endpoint_router_died(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(
            FaultSpec.transient_link_failure(0, 1, dwell=500_000.0))
        machine.injector.inject(FaultSpec.router_failure(0))
        machine.sim.run(until=machine.sim.now + 600_000.0)
        assert machine.network.link_between(0, 1).failed

    def test_intermittent_drops_only_normal_lanes(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(
            FaultSpec.intermittent_link(0, 1, drop_rate=1.0))
        link = machine.network.link_between(0, 1)

        class _Packet:
            def __init__(self, lane):
                self.lane = lane

        assert link.should_drop(_Packet(Lane.REQUEST))
        assert link.should_drop(_Packet(Lane.REPLY))
        # Recovery traffic lanes are CRC-protected short control packets
        # (§4.1) and must never be dropped by the flaky-connector model.
        assert not link.should_drop(_Packet(Lane.RECOVERY_A))
        assert not link.should_drop(_Packet(Lane.RECOVERY_B))

    def test_intermittent_disarmed_at_recovery_start(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(
            FaultSpec.intermittent_link(0, 1, drop_rate=1.0))
        link = machine.network.link_between(0, 1)
        assert link.drop_rate == 1.0
        machine.recovery_manager.note_phase_entry("P1", 2)
        assert link.drop_rate == 0.0

    def test_delayed_wedge_manifests_after_dwell(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(
            FaultSpec.delayed_wedge(2, dwell=400_000.0))
        assert not machine.nodes[2].magic.wedged
        machine.sim.run(until=machine.sim.now + 500_000.0)
        assert machine.nodes[2].magic.wedged

    def test_delayed_wedge_skipped_if_node_died_meanwhile(self):
        machine = FlashMachine(small_config(3, num_nodes=4)).start()
        machine.injector.inject(
            FaultSpec.delayed_wedge(2, dwell=400_000.0))
        machine.injector.inject(FaultSpec.node_failure(2))
        machine.sim.run(until=machine.sim.now + 500_000.0)
        assert not machine.nodes[2].magic.wedged

    @pytest.mark.parametrize("fault_type", [
        FaultType.TRANSIENT_LINK_FAILURE,
        FaultType.INTERMITTENT_LINK,
        FaultType.DELAYED_WEDGE,
    ])
    def test_validation_passes_for_new_models(self, fault_type):
        topo = make_topology("mesh", 8)
        rng = random.Random(17)
        fault = FaultSpec.random(rng, topo, fault_type)
        result = run_validation_experiment(
            fault, config=small_config(17), seed=17)
        assert result.passed, result.problems

    def test_validation_accepts_schedule(self):
        """run_validation_experiment transparently handles schedules."""
        schedule = FaultSchedule(
            entries=(TimedFault(FaultSpec.false_alarm(1), time=0.0),),
            num_nodes=4, topology="mesh", name="one-alarm")
        result = run_validation_experiment(
            schedule, config=small_config(5, num_nodes=4), seed=5)
        assert result.passed, result.problems
        assert result.episodes >= 1
