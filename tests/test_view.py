"""Unit + property tests for the dissemination view merge (paper §4.3).

The merge must be commutative, associative and idempotent — the order in
which observations flood through the cwn graph cannot change the final
view, or different nodes would disagree on the global state.
"""

from hypothesis import given, settings, strategies as st

from repro.interconnect.topology import make_topology
from repro.recovery.view import (
    LinkStatus,
    NodeStatus,
    SystemView,
    ViewSnapshot,
    surviving_adjacency_from_view,
)


def copy_of(view):
    """An independent copy: a fresh view that merged ``view``."""
    copy = SystemView()
    copy.merge(view)
    return copy


class TestObservations:
    def test_alive_observation(self):
        view = SystemView()
        view.observe_node(3, NodeStatus.ALIVE)
        assert view.alive_nodes() == {3}

    def test_alive_wins_over_dead(self):
        view = SystemView()
        view.observe_node(3, NodeStatus.ALIVE)
        view.observe_node(3, NodeStatus.DEAD)
        assert view.nodes[3] == NodeStatus.ALIVE

    def test_dead_then_alive_upgrades(self):
        view = SystemView()
        view.observe_node(3, NodeStatus.DEAD)
        view.observe_node(3, NodeStatus.ALIVE)
        assert view.nodes[3] == NodeStatus.ALIVE

    def test_down_wins_over_up(self):
        view = SystemView()
        view.observe_link(0, 1, LinkStatus.DOWN)
        view.observe_link(1, 0, LinkStatus.UP)
        assert view.links[frozenset((0, 1))] == LinkStatus.DOWN

    def test_link_key_is_undirected(self):
        view = SystemView()
        view.observe_link(2, 3, LinkStatus.UP)
        view.observe_link(3, 2, LinkStatus.UP)
        assert len(view.links) == 1


class TestMerge:
    def test_merge_reports_change(self):
        a = SystemView()
        b = SystemView()
        b.observe_node(1, NodeStatus.ALIVE)
        assert a.merge(b) is True
        assert a.merge(b) is False   # second merge is a no-op

    def test_merge_alive_wins(self):
        a = SystemView()
        a.observe_node(1, NodeStatus.DEAD)
        b = SystemView()
        b.observe_node(1, NodeStatus.ALIVE)
        a.merge(b)
        assert a.nodes[1] == NodeStatus.ALIVE

    def test_merge_down_wins(self):
        a = SystemView()
        a.observe_link(0, 1, LinkStatus.UP)
        b = SystemView()
        b.observe_link(0, 1, LinkStatus.DOWN)
        a.merge(b)
        assert a.down_links() == {frozenset((0, 1))}

    def test_wire_roundtrip(self):
        view = SystemView()
        view.observe_node(0, NodeStatus.ALIVE)
        view.observe_node(5, NodeStatus.DEAD)
        view.observe_link(0, 5, LinkStatus.DOWN)
        wire = view.encode()
        assert isinstance(wire, ViewSnapshot)
        assert all(isinstance(part, frozenset) for part in wire)
        assert wire.entry_count() == view.entry_count() == 3
        received = SystemView()
        assert received.merge(wire) is True
        assert received == view

    def test_entry_count(self):
        view = SystemView()
        view.observe_node(0, NodeStatus.ALIVE)
        view.observe_link(0, 1, LinkStatus.UP)
        assert view.entry_count() == 2

    def test_signature_detects_equality(self):
        a = SystemView()
        b = SystemView()
        a.observe_node(1, NodeStatus.ALIVE)
        b.observe_node(1, NodeStatus.ALIVE)
        assert a.signature() == b.signature()


class TestSnapshotAliasing:
    """What is on the wire is shared by reference with every receiver, so
    it must never change after it was sent."""

    def view(self):
        view = SystemView()
        view.observe_node(0, NodeStatus.ALIVE)
        view.observe_node(5, NodeStatus.DEAD)
        view.observe_link(0, 5, LinkStatus.UP)
        return view

    def test_snapshot_survives_later_observations_and_merges(self):
        view = self.view()
        sent = view.encode()
        frozen = tuple(set(part) for part in sent)
        view.observe_node(5, NodeStatus.ALIVE)
        view.observe_link(0, 5, LinkStatus.DOWN)
        other = SystemView()
        other.observe_node(7, NodeStatus.DEAD)
        other.observe_link(5, 7, LinkStatus.UP)
        view.merge(other)
        view.merge(other.encode())
        assert tuple(set(part) for part in sent) == frozen
        assert sent.dead == {5} and sent.up == {frozenset((0, 5))}
        assert view.encode() != sent

    def test_encode_is_cached_until_the_next_mutation(self):
        view = self.view()
        first = view.encode()
        assert view.encode() is first
        assert view.signature() is first
        view.observe_node(6, NodeStatus.DEAD)
        second = view.encode()
        assert second is not first and second != first
        other = SystemView()
        other.observe_link(1, 2, LinkStatus.DOWN)
        assert view.merge(other.encode()) is True
        assert view.encode() is not second

    def test_noop_merge_and_observations_keep_the_snapshot(self):
        view = self.view()
        sent = view.encode()
        assert view.merge(sent) is False
        assert view.merge(copy_of(view)) is False
        view.observe_node(0, NodeStatus.ALIVE)
        view.observe_node(0, NodeStatus.DEAD)     # ALIVE already won
        view.observe_node(5, NodeStatus.DEAD)
        view.observe_link(5, 0, LinkStatus.UP)
        assert view.encode() is sent

    def test_receiver_does_not_alias_the_senders_sets(self):
        sender = self.view()
        receiver = SystemView()
        receiver.merge(sender.encode())
        receiver.observe_node(9, NodeStatus.ALIVE)
        sender.observe_node(8, NodeStatus.ALIVE)
        assert sender.alive_nodes() == {0, 8}
        assert receiver.alive_nodes() == {0, 9}


class TestCopyAndQueries:
    def test_copy_is_independent(self):
        view = SystemView()
        view.observe_node(0, NodeStatus.ALIVE)
        view.observe_link(0, 1, LinkStatus.UP)
        clone = copy_of(view)
        clone.observe_node(1, NodeStatus.DEAD)
        clone.observe_link(0, 1, LinkStatus.DOWN)
        assert view == SystemView(
            {0: NodeStatus.ALIVE}, {frozenset((0, 1)): LinkStatus.UP})
        assert clone != view

    def test_signature_detects_difference(self):
        a = SystemView()
        b = SystemView()
        a.observe_node(1, NodeStatus.ALIVE)
        b.observe_node(1, NodeStatus.DEAD)
        assert a.signature() != b.signature()

    def test_repr_mentions_population(self):
        view = SystemView()
        view.observe_node(2, NodeStatus.ALIVE)
        view.observe_link(0, 1, LinkStatus.DOWN)
        text = repr(view)
        assert "alive=[2]" in text and "down_links=1" in text


class TestSurvivingAdjacency:
    def test_full_view_keeps_full_topology(self):
        topology = make_topology("mesh", 4)
        view = SystemView()
        for node_id in range(4):
            view.observe_node(node_id, NodeStatus.ALIVE)
        adjacency = surviving_adjacency_from_view(topology, view)
        assert set(adjacency) == {0, 1, 2, 3}
        edges = {(rid, nbr) for rid, entries in adjacency.items()
                 for _, nbr, _ in entries}
        assert all((b, a) in edges for a, b in edges)

    def test_down_link_removed_both_directions(self):
        topology = make_topology("mesh", 4)
        view = SystemView()
        view.observe_link(0, 1, LinkStatus.DOWN)
        adjacency = surviving_adjacency_from_view(topology, view)
        assert all(nbr != 1 for _, nbr, _ in adjacency[0])
        assert all(nbr != 0 for _, nbr, _ in adjacency[1])

    def test_dead_node_router_still_forwards(self):
        # The controller died, not the router: it must stay in the graph.
        topology = make_topology("mesh", 4)
        view = SystemView()
        view.observe_node(3, NodeStatus.DEAD)
        adjacency = surviving_adjacency_from_view(topology, view)
        assert 3 in adjacency
        assert any(nbr == 3 for _, nbr, _ in adjacency[1])

    def test_unprobed_links_default_to_up(self):
        topology = make_topology("mesh", 4)
        adjacency = surviving_adjacency_from_view(topology, SystemView())
        assert all(len(entries) == 2 for entries in adjacency.values())


# --- property tests ------------------------------------------------------------

node_obs = st.tuples(st.integers(0, 7),
                     st.sampled_from(list(NodeStatus)))
link_obs = st.tuples(st.integers(0, 7), st.integers(0, 7),
                     st.sampled_from(list(LinkStatus)))


def build_view(nodes, links):
    view = SystemView()
    for node_id, status in nodes:
        view.observe_node(node_id, status)
    for a, b, status in links:
        if a != b:
            view.observe_link(a, b, status)
    return view


view_strategy = st.builds(
    build_view,
    st.lists(node_obs, max_size=12),
    st.lists(link_obs, max_size=12))


def reference_merge(nodes, links, other_nodes, other_links):
    """The documented rules, one entry at a time, on plain dicts: unknown
    adopts the incoming status, ALIVE wins, DOWN wins."""
    changed = False
    for table, incoming, winner in ((nodes, other_nodes, NodeStatus.ALIVE),
                                    (links, other_links, LinkStatus.DOWN)):
        for key, status in incoming.items():
            current = table.get(key)
            if current is None:
                merged = status
            elif winner in (current, status):
                merged = winner
            else:
                merged = current
            if merged != current:
                table[key] = merged
                changed = True
    return changed


@given(view_strategy, view_strategy, st.booleans())
@settings(max_examples=200, deadline=None)
def test_property_merge_matches_reference(a, b, as_snapshot):
    nodes, links = a.nodes, a.links
    expected_changed = reference_merge(nodes, links, b.nodes, b.links)
    b_before = copy_of(b)
    changed = a.merge(b.encode() if as_snapshot else b)
    assert changed is expected_changed
    assert a.nodes == nodes and a.links == links
    assert a.entry_count() == len(nodes) + len(links)
    assert a.encode().entry_count() == a.entry_count()
    assert a.node_count() == len(nodes)
    assert b == b_before      # the source of a merge is never written


@given(view_strategy, view_strategy)
@settings(max_examples=100, deadline=None)
def test_property_merge_commutative(a, b):
    left = copy_of(a)
    left.merge(b)
    right = copy_of(b)
    right.merge(a)
    assert left == right


@given(view_strategy, view_strategy, view_strategy)
@settings(max_examples=100, deadline=None)
def test_property_merge_associative(a, b, c):
    left = copy_of(a)
    left.merge(b)
    left.merge(c)
    bc = copy_of(b)
    bc.merge(c)
    right = copy_of(a)
    right.merge(bc)
    assert left == right


@given(view_strategy)
@settings(max_examples=100, deadline=None)
def test_property_merge_idempotent(a):
    merged = copy_of(a)
    changed = merged.merge(a)
    assert not changed
    assert merged == a
