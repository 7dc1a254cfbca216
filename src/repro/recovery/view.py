"""LState/NState: a node's view of the system, and the merge operation.

During dissemination (paper §4.3) nodes repeatedly exchange and merge their
views.  Merging must be commutative, associative and idempotent so that the
order in which information propagates cannot matter; property tests verify
this.

Status semantics:

* a node is ALIVE when *someone* received a ping reply from it (proof that
  its processor entered recovery); DEAD when someone's pings timed out with
  the router answering.  ALIVE wins a merge — a reply is proof of life,
  whereas a timeout is circumstantial.
* a link is UP when a probe crossed it; DOWN when a probe timed out.  DOWN
  wins a merge — links do not heal, so the most pessimistic observation is
  the most recent truth.

Representation: the paper's nodes exchange small node-state and link-state
vectors and OR them together.  Here a view is four sets (alive, dead,
up-links, down-links; a node or link is in at most one of its two) and a
merge is set algebra.  What goes on the wire is a :class:`ViewSnapshot` of
four frozensets: immutable, cached until the view next changes, and shared
by reference between the sender and every receiver.  None of this costs
simulated time — that is charged by the agent through
``recovery_work(instr_* × entry_count)`` and the packet's flit count.
"""

import enum
from typing import NamedTuple


class NodeStatus(enum.Enum):
    ALIVE = "alive"
    DEAD = "dead"


class LinkStatus(enum.Enum):
    UP = "up"
    DOWN = "down"


class ViewSnapshot(NamedTuple):
    """Immutable contents of a view: its wire format and its signature."""

    alive: frozenset
    dead: frozenset
    up: frozenset      # links are frozenset({a, b})
    down: frozenset

    def entry_count(self):
        return sum(map(len, self))


class SystemView:
    """One node's knowledge of node and link health."""

    __slots__ = ("_alive", "_dead", "_up", "_down", "_snapshot")

    def __init__(self, nodes=None, links=None):
        self._alive = set()
        self._dead = set()
        self._up = set()
        self._down = set()
        self._snapshot = None     # cached encode(); None after a mutation
        for node_id, status in (nodes or {}).items():
            self.observe_node(node_id, status)
        for key, status in (links or {}).items():
            self.observe_link(*key, status)

    def observe_node(self, node_id, status):
        if node_id in self._alive:
            return
        if status == NodeStatus.ALIVE:
            self._dead.discard(node_id)
            self._alive.add(node_id)
        elif node_id not in self._dead:
            self._dead.add(node_id)
        else:
            return
        self._snapshot = None

    def observe_link(self, a, b, status):
        key = frozenset((a, b))
        if key in self._down:
            return
        if status == LinkStatus.DOWN:
            self._up.discard(key)
            self._down.add(key)
        elif key not in self._up:
            self._up.add(key)
        else:
            return
        self._snapshot = None

    def merge(self, other):
        """Merge another view, or a snapshot of one, in place; returns True
        if anything changed."""
        if isinstance(other, SystemView):
            other = other.encode()
        new_alive = other.alive - self._alive
        self._alive |= new_alive
        self._dead -= new_alive
        new_dead = other.dead.difference(self._alive, self._dead)
        self._dead |= new_dead
        new_down = other.down - self._down
        self._down |= new_down
        self._up -= new_down
        new_up = other.up.difference(self._down, self._up)
        self._up |= new_up
        changed = bool(new_alive or new_dead or new_down or new_up)
        if changed:
            self._snapshot = None
        return changed

    # -- queries ---------------------------------------------------------------

    def alive_nodes(self):
        return set(self._alive)

    def dead_nodes(self):
        return set(self._dead)

    def down_links(self):
        return set(self._down)

    def node_count(self):
        return len(self._alive) + len(self._dead)

    def link_is_down(self, a, b):
        return frozenset((a, b)) in self._down

    def entry_count(self):
        """Size of the view (drives message size and merge cost)."""
        return (len(self._alive) + len(self._dead)
                + len(self._up) + len(self._down))

    @property
    def nodes(self):
        """node_id -> NodeStatus, built on demand (tests and debugging)."""
        nodes = dict.fromkeys(self._alive, NodeStatus.ALIVE)
        nodes.update(dict.fromkeys(self._dead, NodeStatus.DEAD))
        return nodes

    @property
    def links(self):
        """frozenset({a, b}) -> LinkStatus, built on demand."""
        links = dict.fromkeys(self._up, LinkStatus.UP)
        links.update(dict.fromkeys(self._down, LinkStatus.DOWN))
        return links

    # -- wire format --------------------------------------------------------------

    def encode(self):
        """The view's :class:`ViewSnapshot`; the same object until the view
        next changes, so every partner of a round shares one."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = ViewSnapshot(
                frozenset(self._alive), frozenset(self._dead),
                frozenset(self._up), frozenset(self._down))
        return snapshot

    def signature(self):
        """Hashable digest of the contents (keys the manager's memo): the
        snapshot itself."""
        return self.encode()

    def copy(self):
        clone = SystemView()
        clone.merge(self)
        return clone

    def __eq__(self, other):
        return (isinstance(other, SystemView)
                and self.encode() == other.encode())

    def __repr__(self):
        return "<SystemView alive=%s dead=%s down_links=%d>" % (
            sorted(self._alive), sorted(self._dead), len(self._down))


def surviving_adjacency_from_view(topology, view):
    """Router-level adjacency implied by a (stabilized) view.

    Routers of DEAD nodes still forward (the controller died, not the
    router) *unless* every link to them is down — a fully disconnected or
    failed router looks identical from outside, and the distinction is
    irrelevant for routing.  Links not present in the view default to UP:
    probes only record what they saw, and an unprobed link lies beyond a
    failure frontier (its status cannot matter for the surviving region).
    """
    from repro.interconnect.routing import surviving_adjacency

    return surviving_adjacency(
        topology, dead_nodes=(), dead_links=view.down_links())
