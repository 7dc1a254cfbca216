"""Packets carried by the interconnect.

A packet is either *table-routed* (normal coherence traffic: each router
looks up the destination node in its routing table) or *source-routed*
(recovery traffic: the sender embeds the exact sequence of output ports,
paper §4.1).  Router probes are source-routed packets whose route ends *at*
a router rather than at a node; a live router answers them in hardware.
"""

import itertools

from repro.common.types import Lane

#: Packet kinds handled by the routers themselves.
ROUTER_PROBE = "router_probe"
ROUTER_PROBE_REPLY = "router_probe_reply"
ROUTER_SET_DISCARD = "router_set_discard"
ROUTER_SET_TABLE = "router_set_table"
ROUTER_CTRL_ACK = "router_ctrl_ack"

_uid_counter = itertools.count()


def merge_causes(a, b):
    """Combine two causal-parent references (eid, tuple of eids, or None).

    Returns the non-None side when only one is set, otherwise a flat tuple
    of distinct parents (a single eid stays a bare int).  Used wherever two
    provenance chains meet: a packet sunk at a failed interface descends
    both from its send and from the fault that killed the interface.
    """
    if a is None:
        return b
    if b is None:
        return a
    first = a if isinstance(a, tuple) else (a,)
    second = b if isinstance(b, tuple) else (b,)
    merged = first + tuple(eid for eid in second if eid not in first)
    return merged[0] if len(merged) == 1 else merged


class Packet:
    """A message in flight.

    Parameters
    ----------
    src, dst:
        Node ids.  ``dst`` is ignored for source-routed packets whose route
        terminates at a router (probes).
    lane:
        Virtual lane (:class:`repro.common.types.Lane`).
    kind:
        Message type tag (protocol message name or recovery message name).
    payload:
        Arbitrary message body.  Dropped when the packet is truncated.
    flits:
        Size used for serialization-time accounting.
    source_route:
        Optional list of output-port indices, consumed hop by hop.
    """

    __slots__ = (
        "src", "dst", "lane", "kind", "payload", "flits",
        "source_route", "route_index", "truncated", "hops", "uid",
        "inject_time", "trace_ports", "root_cause", "cause_eid",
    )

    def __init__(self, src, dst, lane, kind, payload=None, flits=2,
                 source_route=None):
        self.src = src
        self.dst = dst
        self.lane = Lane(lane)
        self.kind = kind
        self.payload = payload
        self.flits = flits
        self.source_route = list(source_route) if source_route else None
        self.route_index = 0
        self.truncated = False
        self.hops = 0
        self.uid = next(_uid_counter)
        self.inject_time = None
        # Causal lineage (forensics, DESIGN.md §11): the fault root id this
        # packet descends from (if any) and the eid of the most recent trace
        # event on its provenance chain.  Pure data — nothing in the
        # interconnect branches on these, so untraced runs are unperturbed.
        self.root_cause = None
        self.cause_eid = None
        # Ports by which the packet arrived at each router along its path;
        # reversing this list yields the source route for a reply (used by
        # router probes and recovery pings).
        self.trace_ports = []

    @property
    def is_source_routed(self):
        return self.source_route is not None

    @property
    def is_recovery(self):
        return self.lane in (Lane.RECOVERY_A, Lane.RECOVERY_B)

    def truncate(self):
        """Mark the packet truncated and discard its data payload (§3.1)."""
        self.truncated = True
        self.payload = None

    def __repr__(self):
        route = ""
        if self.source_route is not None:
            route = " route=%s@%d" % (self.source_route, self.route_index)
        flags = " TRUNC" if self.truncated else ""
        return "<Packet #%d %s %d->%s lane=%s%s%s>" % (
            self.uid, self.kind, self.src, self.dst, self.lane.name,
            route, flags)
