"""Applies fault specifications to a running machine.

Beyond the original apply-now semantics the injector supports the campaign
engine (:mod:`repro.campaign`):

* **hardening** — a fault aimed at an already-failed node/router/link is
  recorded as a no-op (with a warning) instead of corrupting machine state
  deep inside the simulation, so randomly generated multi-fault schedules
  can never crash a run;
* **transient models** — a transient link failure schedules its own heal, an
  intermittent link arms probabilistic drops (cleared when its dwell expires
  or when recovery begins — see :class:`~repro.faults.models.FaultSpec`),
  and a delayed wedge manifests after its dwell time;
* **phase-triggered injection** — :meth:`inject_on_phase` fires a fault the
  moment a recovery agent enters a given phase (P1–P4), the precise timing
  the paper's restart rule (§4.1) exists for;
* **schedules** — :meth:`inject_schedule` arms a whole
  :class:`~repro.campaign.schedule.FaultSchedule` at once.
"""

import warnings

from repro.faults.models import LINK_FAULT_TYPES, FaultType


class FaultInjector:
    """Injects faults into a :class:`~repro.core.machine.FlashMachine`."""

    def __init__(self, machine):
        self.machine = machine
        self.trace = None
        self.injected = []
        #: monotonic counter behind the forensic root-cause ids ("F0", ...)
        self._next_root = 0
        #: (time, spec) of faults skipped because the target had already
        #: failed — kept separate so experiments can account for them
        self.skipped = []
        #: optional callable run with the spec just before it is applied
        #: (the §5.2 harness snapshots its oracle here)
        self.pre_inject_hook = None
        #: phase-trigger listeners armed and not yet fired
        self.armed_phase_triggers = []

    # ------------------------------------------------------------- application

    def inject(self, spec):
        """Apply a fault right now; returns the spec for chaining.

        A fault whose target already failed is a no-op: it is recorded in
        :attr:`skipped` with a warning and the spec is still returned.
        """
        machine = self.machine
        fault_type = spec.fault_type

        if self._target_already_failed(spec):
            warnings.warn(
                "fault %s targets an already-failed component; "
                "recording as a no-op" % spec, stacklevel=2)
            self.skipped.append((machine.sim.now, spec))
            tr = self.trace
            if tr is not None:
                tr.emit("fault", "skip", fault=fault_type.value,
                        target=str(spec.target))
            return spec

        if self.pre_inject_hook is not None:
            self.pre_inject_hook(spec)

        # Mint the forensic root-cause id and record the injection *before*
        # applying the fault, so the components failed below can attribute
        # their very first casualties (truncations, buffer losses) to it.
        root = "F%d" % self._next_root
        self._next_root += 1
        inject_eid = None
        tr = self.trace
        if tr is not None:
            inject_eid = tr.emit("fault", "inject", fault=fault_type.value,
                                 target=str(spec.target), root=root,
                                 cell=self._fault_cell(spec))
        lineage = (root, inject_eid)
        machine.network.last_fault_lineage = lineage

        if fault_type == FaultType.NODE_FAILURE:
            self._taint_node(spec.target, lineage)
            machine.nodes[spec.target].fail()
        elif fault_type == FaultType.ROUTER_FAILURE:
            # A dead router takes its links with it; the attached node
            # becomes unreachable (and will shut itself down).
            machine.network.fail_router(spec.target, lineage=lineage)
        elif fault_type == FaultType.LINK_FAILURE:
            rid_a, rid_b = spec.target
            machine.network.fail_link(rid_a, rid_b, lineage=lineage)
        elif fault_type == FaultType.TRANSIENT_LINK_FAILURE:
            rid_a, rid_b = spec.target
            machine.network.fail_link(rid_a, rid_b, lineage=lineage)
            machine.sim.schedule(
                spec.dwell or 2_000_000.0,
                machine.network.heal_link, rid_a, rid_b)
        elif fault_type == FaultType.INTERMITTENT_LINK:
            self._arm_intermittent_link(spec, lineage)
        elif fault_type == FaultType.INFINITE_LOOP:
            self._taint_node(spec.target, lineage)
            machine.nodes[spec.target].wedge()
        elif fault_type == FaultType.DELAYED_WEDGE:
            # The firmware is considered rogue from injection: anything it
            # sends during the dwell descends from this fault (§3.3).
            self._taint_node(spec.target, lineage)
            machine.sim.schedule(
                spec.dwell or 2_000_000.0, self._wedge_if_alive, spec.target)
        elif fault_type == FaultType.FALSE_ALARM:
            # Route through MAGIC's trigger path so hooks observe it too.
            machine.nodes[spec.target].magic.trigger_recovery(
                "false_alarm", cause=inject_eid)
        else:
            raise ValueError("unknown fault type %r" % fault_type)

        self.injected.append((self.machine.sim.now, spec))
        return spec

    def _taint_node(self, node_id, lineage):
        """Mark a node's controller and interface as causally downstream of
        a fault: packets they originate or sink carry the lineage."""
        magic = self.machine.nodes[node_id].magic
        magic.fault_lineage = lineage
        magic.ni.fault_lineage = lineage

    def _fault_cell(self, spec):
        """Sorted node ids of the failure unit(s) this fault lands in."""
        manager = self.machine.recovery_manager
        if spec.fault_type in LINK_FAULT_TYPES:
            rid_a, rid_b = spec.target
            return sorted(manager.unit_of(rid_a) | manager.unit_of(rid_b))
        return sorted(manager.unit_of(spec.target))

    def _target_already_failed(self, spec):
        machine = self.machine
        fault_type = spec.fault_type
        if fault_type in LINK_FAULT_TYPES:
            rid_a, rid_b = spec.target
            link = machine.network.link_between(rid_a, rid_b)
            if link is None:
                raise ValueError(
                    "no link between %d and %d" % (rid_a, rid_b))
            if link.failed:
                return True
            # A link whose endpoint router died is already effectively
            # failed even if its own flag was never set.
            return (machine.network.router(rid_a).failed
                    or machine.network.router(rid_b).failed)
        if fault_type == FaultType.ROUTER_FAILURE:
            return machine.network.router(spec.target).failed
        node = machine.nodes[spec.target]
        return node.failed or node.magic.failed or node.magic.wedged

    # ----------------------------------------------------- transient plumbing

    def _wedge_if_alive(self, node_id):
        """Delayed-wedge manifestation: a node that failed some other way
        in the meantime cannot wedge anymore."""
        node = self.machine.nodes[node_id]
        if node.failed or node.magic.failed or node.magic.wedged:
            return
        node.wedge()

    def _arm_intermittent_link(self, spec, lineage=None):
        """Drops start now and stop at dwell expiry — or as soon as any
        recovery begins.  The quiet drain period lets the flaky connector
        settle; more importantly it keeps the §5.2 oracle sound: after the
        P4-entry snapshot nothing may be lost anymore (P4 flush writebacks
        travel the normal lanes this fault drops)."""
        machine = self.machine
        rid_a, rid_b = spec.target
        rate = spec.drop_rate if spec.drop_rate is not None else 0.3
        machine.network.set_link_drop(rid_a, rid_b, rate, machine.sim.rng)
        if lineage is not None:
            machine.network.link_between(rid_a, rid_b).fault_lineage = lineage

        def disarm(*_args):
            machine.network.set_link_drop(rid_a, rid_b, 0.0, None)
            listeners = machine.recovery_manager.phase_entry_listeners
            if on_phase_entry in listeners:
                listeners.remove(on_phase_entry)

        def on_phase_entry(phase, _node_id):
            if phase == "P1":
                disarm()

        machine.recovery_manager.phase_entry_listeners.append(on_phase_entry)
        machine.sim.schedule(spec.dwell or 2_000_000.0, disarm)

    # -------------------------------------------------------------- scheduling

    def inject_on_phase(self, spec, phase, node_id=None):
        """Inject when a recovery agent enters ``phase`` ("P1".."P4").

        With ``node_id`` the trigger waits for that specific node's agent —
        e.g. kill a node just as *it* reaches P2, when every other agent
        already counts it as a dissemination partner.  The injection is
        scheduled one event later so it never runs inside the agent's own
        generator.  Returns the armed listener (a no-op if it never fires).
        """
        manager = self.machine.recovery_manager

        def listener(entered_phase, entering_node):
            if entered_phase != phase:
                return
            if node_id is not None and entering_node != node_id:
                return
            manager.phase_entry_listeners.remove(listener)
            self.armed_phase_triggers.remove(listener)
            self.machine.sim.schedule(0.0, self.inject, spec)

        manager.phase_entry_listeners.append(listener)
        self.armed_phase_triggers.append(listener)
        return listener

    def inject_schedule(self, schedule, base_time=None):
        """Arm every entry of a :class:`FaultSchedule`.

        Timed entries fire at ``base_time + entry.time`` (default base: now);
        phase-triggered entries fire at their phase entry.
        """
        base = self.machine.sim.now if base_time is None else base_time
        for entry in schedule.entries:
            if entry.phase is not None:
                self.inject_on_phase(entry.spec, entry.phase,
                                     node_id=entry.phase_node)
            else:
                self.machine.sim.schedule_at(
                    base + entry.time, self.inject, entry.spec)
