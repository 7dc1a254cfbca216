"""Fault schedules: timed / phase-triggered sequences of faults.

A :class:`FaultSchedule` is the campaign engine's unit of work: the machine
shape plus an ordered set of :class:`TimedFault` entries.  An entry fires
either at a fixed time offset from the schedule start, or — the §4.1 stress
case — the instant a recovery agent enters a given phase (P1–P4), which is
precisely when the paper's restart rule has to cope with it.

The generators at the bottom produce the hard cases that single-fault
validation never reaches; they are registered by name in
:data:`SCHEDULE_GENERATORS` so campaigns can be described on the command
line and in JSONL records.
"""

import dataclasses
import hashlib
import json

from repro.common.errors import ConfigurationError
from repro.faults.models import FaultSpec, FaultType
from repro.interconnect.topology import make_topology
from repro.recovery.manager import RECOVERY_PHASES


@dataclasses.dataclass(frozen=True)
class TimedFault:
    """One schedule entry.

    ``time`` is the injection offset (ns) from the schedule start.  When
    ``phase`` is set ("P1".."P4") the entry instead fires when a recovery
    agent enters that phase — any agent, or the agent of ``phase_node``.
    """

    spec: FaultSpec
    time: float = 0.0
    phase: str = None
    phase_node: int = None

    def to_dict(self):
        data = {"spec": self.spec.to_dict(), "time": self.time}
        if self.phase is not None:
            data["phase"] = self.phase
        if self.phase_node is not None:
            data["phase_node"] = self.phase_node
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(spec=FaultSpec.from_dict(data["spec"]),
                   time=data.get("time", 0.0),
                   phase=data.get("phase"),
                   phase_node=data.get("phase_node"))

    def __str__(self):
        if self.phase is not None:
            where = "@%s" % self.phase
            if self.phase_node is not None:
                where += "(node %d)" % self.phase_node
        else:
            where = "@%.0fns" % self.time
        return "%s%s" % (self.spec, where)


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """A machine shape plus the faults to throw at it."""

    entries: tuple
    num_nodes: int = 8
    topology: str = "mesh"
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def fault_count(self):
        return len(self.entries)

    def specs(self):
        return [entry.spec for entry in self.entries]

    def excluded_targets(self, topology=None):
        """Union of targets used so far (feeds ``FaultSpec.random``).

        Pass the built topology to also exclude collateral targets (links
        adjacent to a dead router), so drawing against this set never
        produces a fault the injector would skip as a no-op.
        """
        used = set()
        for entry in self.entries:
            used |= entry.spec.excluded_targets(topology)
        return used

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)

    def to_dict(self):
        return {"entries": [entry.to_dict() for entry in self.entries],
                "num_nodes": self.num_nodes,
                "topology": self.topology,
                "name": self.name}

    @classmethod
    def from_dict(cls, data):
        return cls(entries=tuple(TimedFault.from_dict(e)
                                 for e in data["entries"]),
                   num_nodes=data.get("num_nodes", 8),
                   topology=data.get("topology", "mesh"),
                   name=data.get("name", ""))

    def __str__(self):
        label = self.name or "schedule"
        return "%s[%d nodes %s: %s]" % (
            label, self.num_nodes, self.topology,
            "; ".join(str(entry) for entry in self.entries))


def valid_for_machine(schedule, num_nodes, topology=None):
    """Can this schedule's targets exist on a ``num_nodes`` machine?

    Used by the shrinker before trying a smaller machine: every node target
    must exist and every link target must be an actual link of the smaller
    topology.
    """
    topology = topology or schedule.topology
    try:
        topo = make_topology(topology, num_nodes)
    except ConfigurationError:
        # The only expected failure: this machine shape cannot be built
        # (too few nodes, unknown topology kind).
        return False
    link_pairs = {frozenset((a, b)) for a, _, b, _ in topo.links()}
    for entry in schedule.entries:
        spec = entry.spec
        if spec.is_link_fault:
            if frozenset(spec.target) not in link_pairs:
                return False
        elif not 0 <= spec.target < num_nodes:
            return False
        if entry.phase_node is not None and entry.phase_node >= num_nodes:
            return False
    return True


def schedule_fingerprint(schedule):
    """Stable identity of a schedule's *content* (name excluded)."""
    data = schedule.to_dict()
    data.pop("name", None)
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"),
                           digest_size=16).hexdigest()


def redundant_entries(schedule):
    """Entries whose target an earlier entry already failed (injector
    no-ops).  Generators and the fuzz mutator must produce none: a
    schedule entry that the injector skips is dead weight in a corpus."""
    topo = make_topology(schedule.topology, schedule.num_nodes)
    used = set()
    redundant = []
    for entry in schedule.entries:
        if entry.spec.excluded_targets() & used:
            redundant.append(entry)
        used |= entry.spec.excluded_targets(topo)
    return redundant


# ------------------------------------------------------------------ generators

def _primary_fault(rng, topology):
    """A detectable first fault: node, router or link failure."""
    fault_type = rng.choice([FaultType.NODE_FAILURE, FaultType.ROUTER_FAILURE,
                             FaultType.LINK_FAILURE])
    return FaultSpec.random(rng, topology, fault_type)


def fault_during_recovery(rng, num_nodes=8, topology="mesh"):
    """The §4.1 restart case: a second fault strikes inside recovery.

    The second fault kills a node just as *that node's* agent enters a
    random phase — by then the other agents count it as alive, so its death
    mid-protocol forces the restart path rather than being absorbed as a
    pre-existing failure.
    """
    topo = make_topology(topology, num_nodes)
    first = _primary_fault(rng, topo)
    exclude = first.excluded_targets(topo)
    if not first.is_link_fault:
        exclude = exclude | {0}   # keep one stable prober candidate
    second = FaultSpec.random(rng, topo, FaultType.NODE_FAILURE,
                              exclude=exclude)
    phase = rng.choice(RECOVERY_PHASES)
    return FaultSchedule(
        entries=(TimedFault(first, time=0.0),
                 TimedFault(second, phase=phase, phase_node=second.target)),
        num_nodes=num_nodes, topology=topology,
        name="fault-during-recovery")


def correlated_link_router(rng, num_nodes=8, topology="mesh"):
    """Correlated faults: a router dies and a nearby link goes with it —
    the shape a cabinet-level power event produces."""
    topo = make_topology(topology, num_nodes)
    router = FaultSpec.random(rng, topo, FaultType.ROUTER_FAILURE)
    # Links adjacent to the dead router are already down; pick another.
    link = FaultSpec.random(rng, topo, FaultType.LINK_FAILURE,
                            exclude=router.excluded_targets(topo))
    jitter = rng.uniform(0.0, 500_000.0)
    return FaultSchedule(
        entries=(TimedFault(router, time=0.0),
                 TimedFault(link, time=jitter)),
        num_nodes=num_nodes, topology=topology,
        name="correlated-link-router")


def false_alarm_storm(rng, num_nodes=8, topology="mesh"):
    """Several detectors fire with no fault at all, microseconds apart.

    Recovery must coalesce the triggers into one episode (or run clean
    back-to-back episodes) and lose nothing.
    """
    count = rng.randint(2, max(2, min(5, num_nodes - 1)))
    nodes = rng.sample(range(num_nodes), count)
    entries = tuple(
        TimedFault(FaultSpec.false_alarm(node),
                   time=index * rng.uniform(10_000.0, 80_000.0))
        for index, node in enumerate(nodes))
    return FaultSchedule(entries=entries, num_nodes=num_nodes,
                         topology=topology, name="false-alarm-storm")


def flaky_links(rng, num_nodes=8, topology="mesh"):
    """Transient and intermittent link faults, then a real node failure.

    The healing/flaky links may or may not be observed as down by the
    recovery that the node failure triggers — both outcomes must be
    contained.
    """
    topo = make_topology(topology, num_nodes)
    transient = FaultSpec.random(rng, topo,
                                 FaultType.TRANSIENT_LINK_FAILURE)
    intermittent = FaultSpec.random(rng, topo, FaultType.INTERMITTENT_LINK,
                                    exclude=transient.excluded_targets(topo))
    exclude = (transient.excluded_targets(topo)
               | intermittent.excluded_targets(topo) | {0})
    victim = FaultSpec.random(rng, topo, FaultType.NODE_FAILURE,
                              exclude=exclude)
    return FaultSchedule(
        entries=(TimedFault(transient, time=0.0),
                 TimedFault(intermittent, time=rng.uniform(0, 200_000.0)),
                 TimedFault(victim, time=rng.uniform(500_000.0,
                                                     1_500_000.0))),
        num_nodes=num_nodes, topology=topology, name="flaky-links")


def random_multi(rng, num_nodes=8, topology="mesh", fault_count=None):
    """2–3 random well-formed faults at random times within ~2 ms."""
    topo = make_topology(topology, num_nodes)
    count = fault_count or rng.randint(2, 3)
    entries = []
    exclude = {0}   # keep one stable prober candidate
    for _ in range(count):
        try:
            spec = FaultSpec.random(rng, topo, exclude=exclude)
        except ValueError:
            break   # everything usable is excluded already
        exclude |= spec.excluded_targets(topo)
        entries.append(TimedFault(spec, time=rng.uniform(0.0, 2_000_000.0)))
    entries.sort(key=lambda entry: entry.time)
    return FaultSchedule(entries=tuple(entries), num_nodes=num_nodes,
                         topology=topology, name="random-multi")


SCHEDULE_GENERATORS = {
    "fault-during-recovery": fault_during_recovery,
    "correlated-link-router": correlated_link_router,
    "false-alarm-storm": false_alarm_storm,
    "flaky-links": flaky_links,
    "random-multi": random_multi,
}


def make_schedule(kind, rng, num_nodes=8, topology="mesh"):
    """Generate one schedule by registered name."""
    try:
        generator = SCHEDULE_GENERATORS[kind]
    except KeyError:
        raise ValueError(
            "unknown schedule kind %r (have: %s)"
            % (kind, ", ".join(sorted(SCHEDULE_GENERATORS)))) from None
    return generator(rng, num_nodes=num_nodes, topology=topology)
