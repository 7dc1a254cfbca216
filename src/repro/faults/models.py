"""Fault specifications (paper Table 5.2, extended with transient models).

The original Table 5.2 classes are permanent: a failed node, router or link
stays failed.  The campaign engine (:mod:`repro.campaign`) additionally
stresses recovery with *transient* and *delayed* faults:

* ``transient_link_failure`` — the link goes down, truncating the in-flight
  packet, then heals after a dwell time.  Recovery may or may not observe
  the link as down depending on when probing happens.
* ``intermittent_link`` — the link stays up but drops each crossing packet
  with some probability, modelling a flaky connector.
* ``delayed_wedge`` — the MAGIC firmware degrades and enters its infinite
  loop only after a dwell time, so the fault manifests long after the
  injection (possibly mid-recovery of an earlier fault).
"""

import dataclasses
import enum


class FaultType(enum.Enum):
    """The injected fault classes from Table 5.2 plus transient models."""

    NODE_FAILURE = "node_failure"       # MAGIC fails; router stays up;
                                        # packets to the node are discarded
    ROUTER_FAILURE = "router_failure"   # packets to the router are discarded
    LINK_FAILURE = "link_failure"       # packets crossing the link dropped;
                                        # the in-flight one is truncated
    INFINITE_LOOP = "infinite_loop"     # MAGIC stops accepting packets;
                                        # traffic backs up into the fabric
    FALSE_ALARM = "false_alarm"         # recovery triggered with no fault
    TRANSIENT_LINK_FAILURE = "transient_link_failure"  # link heals after
                                                       # a dwell time
    INTERMITTENT_LINK = "intermittent_link"  # link randomly drops packets
    DELAYED_WEDGE = "delayed_wedge"     # wedge manifests after a dwell time


#: the paper's original Table 5.2 fault classes (the evaluation tables
#: iterate these; the transient models below are campaign-engine additions)
TABLE_5_2_FAULT_TYPES = (
    FaultType.NODE_FAILURE,
    FaultType.ROUTER_FAILURE,
    FaultType.LINK_FAILURE,
    FaultType.INFINITE_LOOP,
    FaultType.FALSE_ALARM,
)

#: fault types whose target is an ``(a, b)`` router pair
LINK_FAULT_TYPES = frozenset({
    FaultType.LINK_FAILURE,
    FaultType.TRANSIENT_LINK_FAILURE,
    FaultType.INTERMITTENT_LINK,
})

#: fault types that eventually destroy the state of their target node
NODE_LOSS_FAULT_TYPES = frozenset({
    FaultType.NODE_FAILURE,
    FaultType.ROUTER_FAILURE,
    FaultType.INFINITE_LOOP,
    FaultType.DELAYED_WEDGE,
})


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``target`` is a node/router id for node, router, infinite-loop,
    false-alarm and delayed-wedge faults, and an ``(a, b)`` pair for link
    faults.  ``dwell`` (ns) is the heal delay of a transient link failure or
    the manifestation delay of a delayed wedge; ``drop_rate`` is the
    per-packet drop probability of an intermittent link.
    """

    fault_type: FaultType
    target: object
    dwell: float = None
    drop_rate: float = None

    @classmethod
    def node_failure(cls, node_id):
        return cls(FaultType.NODE_FAILURE, node_id)

    @classmethod
    def router_failure(cls, router_id):
        return cls(FaultType.ROUTER_FAILURE, router_id)

    @classmethod
    def link_failure(cls, node_a, node_b):
        return cls(FaultType.LINK_FAILURE, (node_a, node_b))

    @classmethod
    def infinite_loop(cls, node_id):
        return cls(FaultType.INFINITE_LOOP, node_id)

    @classmethod
    def false_alarm(cls, node_id):
        return cls(FaultType.FALSE_ALARM, node_id)

    @classmethod
    def transient_link_failure(cls, node_a, node_b, dwell=2_000_000.0):
        return cls(FaultType.TRANSIENT_LINK_FAILURE, (node_a, node_b),
                   dwell=dwell)

    @classmethod
    def intermittent_link(cls, node_a, node_b, drop_rate=0.3):
        return cls(FaultType.INTERMITTENT_LINK, (node_a, node_b),
                   drop_rate=drop_rate)

    @classmethod
    def delayed_wedge(cls, node_id, dwell=2_000_000.0):
        return cls(FaultType.DELAYED_WEDGE, node_id, dwell=dwell)

    @property
    def is_link_fault(self):
        return self.fault_type in LINK_FAULT_TYPES

    @property
    def destroys_node_state(self):
        """Will the target node's caches/memory be lost (ground truth)?
        Recovery stops a wedged node, and the split-brain rule shuts down
        the node a dead router strands; a link fault loses only messages
        in flight, which the oracle's snapshots cover."""
        return self.fault_type in NODE_LOSS_FAULT_TYPES

    def excluded_targets(self, topology=None):
        """What this fault uses up, for :meth:`random`'s ``exclude`` set.

        With ``topology`` the set also covers *collateral* damage, so a
        later fault drawn against it can never be a no-op at injection
        time: a dead router takes its adjacent links down with it (the
        injector would skip a "new" fault on such a link), and any fault
        that destroys node state makes a later fault on that node
        redundant.  Without ``topology`` only the direct target is
        returned (backward-compatible).
        """
        if self.is_link_fault:
            return {frozenset(self.target)}
        used = {self.target}
        if (topology is not None
                and self.fault_type == FaultType.ROUTER_FAILURE):
            for _, (neighbor, _) in sorted(
                    topology.neighbors(self.target).items()):
                used.add(frozenset((self.target, neighbor)))
        return used

    @classmethod
    def random(cls, rng, topology, fault_type=None, exclude=None):
        """Draw a random fault of the given (or a random) type.

        ``exclude`` is a set of already-used targets — node ids and/or
        ``frozenset({a, b})`` link pairs (see :meth:`excluded_targets`) —
        that must not be drawn again, so multi-fault schedules never target
        something that is already failed.  Raises ``ValueError`` when every
        candidate target is excluded.
        """
        exclude = exclude or set()
        if fault_type is None:
            fault_type = rng.choice(list(FaultType))
        if fault_type in LINK_FAULT_TYPES:
            links = [link for link in topology.links()
                     if frozenset((link[0], link[2])) not in exclude]
            if not links:
                raise ValueError("every link is excluded")
            rid_a, _, rid_b, _ = rng.choice(links)
            if fault_type == FaultType.TRANSIENT_LINK_FAILURE:
                return cls.transient_link_failure(
                    rid_a, rid_b, dwell=rng.uniform(200_000.0, 5_000_000.0))
            if fault_type == FaultType.INTERMITTENT_LINK:
                return cls.intermittent_link(
                    rid_a, rid_b, drop_rate=rng.uniform(0.05, 0.5))
            return cls.link_failure(rid_a, rid_b)
        nodes = [n for n in range(topology.num_nodes) if n not in exclude]
        if not nodes:
            raise ValueError("every node is excluded")
        node_id = rng.choice(nodes)
        if fault_type == FaultType.DELAYED_WEDGE:
            return cls.delayed_wedge(
                node_id, dwell=rng.uniform(200_000.0, 5_000_000.0))
        return cls(fault_type, node_id)

    def to_dict(self):
        """JSON-friendly form (inverse of :meth:`from_dict`)."""
        data = {"fault_type": self.fault_type.value,
                "target": list(self.target) if self.is_link_fault
                else self.target}
        if self.dwell is not None:
            data["dwell"] = self.dwell
        if self.drop_rate is not None:
            data["drop_rate"] = self.drop_rate
        return data

    @classmethod
    def from_dict(cls, data):
        fault_type = FaultType(data["fault_type"])
        target = data["target"]
        if fault_type in LINK_FAULT_TYPES:
            target = tuple(target)
        return cls(fault_type, target,
                   dwell=data.get("dwell"),
                   drop_rate=data.get("drop_rate"))

    def __str__(self):
        extra = ""
        if self.dwell is not None:
            extra += ", dwell=%.0f" % self.dwell
        if self.drop_rate is not None:
            extra += ", drop=%.2f" % self.drop_rate
        return "%s(%s%s)" % (self.fault_type.value, self.target, extra)
