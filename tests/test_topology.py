"""Unit tests for topologies and baseline routing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.interconnect.topology import (
    FatHypercube,
    Mesh2D,
    make_topology,
)


def hop_diameter(topology):
    """Longest shortest path of the healthy topology, by BFS."""
    longest = 0
    for src in range(topology.num_nodes):
        depth = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for rid in frontier:
                for neighbor, _ in topology.neighbors(rid).values():
                    if neighbor not in depth:
                        depth[neighbor] = depth[rid] + 1
                        nxt.append(neighbor)
            frontier = nxt
        longest = max(longest, max(depth.values()))
    return longest


class TestMesh2D:
    def test_node_count(self):
        mesh = Mesh2D(4, 2)
        assert mesh.num_nodes == 8

    def test_coords_roundtrip(self):
        mesh = Mesh2D(4, 3)
        for rid in range(mesh.num_nodes):
            x, y = mesh.coords(rid)
            assert mesh.router_at(x, y) == rid

    def test_corner_has_two_neighbors(self):
        mesh = Mesh2D(3, 3)
        assert len(mesh.neighbors(0)) == 2

    def test_center_has_four_neighbors(self):
        mesh = Mesh2D(3, 3)
        assert len(mesh.neighbors(4)) == 4

    def test_neighbors_are_symmetric(self):
        mesh = Mesh2D(4, 4)
        for rid in range(mesh.num_nodes):
            for port, (nbr, nbr_port) in mesh.neighbors(rid).items():
                back = mesh.neighbors(nbr)[nbr_port]
                assert back == (rid, port)

    def test_dimension_ordered_route_reaches_destination(self):
        mesh = Mesh2D(4, 4)
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                if src == dst:
                    continue
                current = src
                hops = 0
                while current != dst:
                    port = mesh.routing_port(current, dst)
                    current, _ = mesh.neighbors(current)[port]
                    hops += 1
                    assert hops <= (mesh.width - 1) + (mesh.height - 1)

    def test_route_is_minimal(self):
        mesh = Mesh2D(5, 3)
        src, dst = 0, mesh.num_nodes - 1
        current, hops = src, 0
        while current != dst:
            port = mesh.routing_port(current, dst)
            current, _ = mesh.neighbors(current)[port]
            hops += 1
        sx, sy = mesh.coords(src)
        dx, dy = mesh.coords(dst)
        assert hops == abs(sx - dx) + abs(sy - dy)

    def test_routing_to_self_rejected(self):
        with pytest.raises(ConfigurationError):
            Mesh2D(2, 2).routing_port(1, 1)

    def test_for_nodes_prefers_square(self):
        mesh = Mesh2D.for_nodes(16)
        assert {mesh.width, mesh.height} == {4}

    def test_for_nodes_rectangular(self):
        mesh = Mesh2D.for_nodes(8)
        assert sorted((mesh.width, mesh.height)) == [2, 4]

    def test_diameter(self):
        assert hop_diameter(Mesh2D(4, 4)) == 6
        assert hop_diameter(Mesh2D(16, 8)) == 22

    def test_links_counted_once(self):
        mesh = Mesh2D(3, 3)
        # 2D mesh links: h*(w-1) + w*(h-1)
        assert len(mesh.links()) == 3 * 2 + 3 * 2

    def test_baseline_table_complete(self):
        mesh = Mesh2D(3, 2)
        table = mesh.baseline_table(0)
        assert set(table) == set(range(1, 6))


class TestFatHypercube:
    def test_node_count(self):
        assert FatHypercube(3).num_nodes == 8

    def test_neighbors_flip_one_bit(self):
        cube = FatHypercube(4)
        for rid in range(cube.num_nodes):
            for bit, (nbr, nbr_port) in cube.neighbors(rid).items():
                assert nbr == rid ^ (1 << bit)
                assert nbr_port == bit

    def test_ecube_route_reaches_destination(self):
        cube = FatHypercube(4)
        for src in range(cube.num_nodes):
            for dst in range(cube.num_nodes):
                if src == dst:
                    continue
                current, hops = src, 0
                while current != dst:
                    port = cube.routing_port(current, dst)
                    current ^= (1 << port)
                    hops += 1
                assert hops == bin(src ^ dst).count("1")

    def test_diameter_is_dimension(self):
        assert hop_diameter(FatHypercube(5)) == 5

    def test_for_nodes_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            FatHypercube.for_nodes(12)

    def test_for_nodes_exact(self):
        assert FatHypercube.for_nodes(64).dimension == 6

    def test_links_counted_once(self):
        cube = FatHypercube(3)
        assert len(cube.links()) == 8 * 3 // 2


class TestMakeTopology:
    def test_mesh(self):
        assert make_topology("mesh", 12).num_nodes == 12

    def test_hypercube(self):
        assert make_topology("hypercube", 16).num_nodes == 16

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_topology("torus", 8)

    def test_single_node_mesh(self):
        mesh = make_topology("mesh", 1)
        assert mesh.num_nodes == 1
        assert mesh.neighbors(0) == {}
