"""Routing-table computation, including post-fault deadlock-free rerouting.

During interconnect recovery (paper §4.4) the routing tables must be
recomputed so that traffic is routed around the failed regions *without
introducing cycles* in the channel-dependency graph (which would risk
wormhole deadlock).  The paper uses the turn method and techniques from its
citations [5][21] and notes a fully general solution is open; as our
substitute we implement Autonet up*/down* routing over every surviving link:
links are oriented "up" toward the end nearer the lowest-id surviving router
(by BFS depth, then id), and a routed path never turns from a down hop back
to an up hop, so the channel-dependency graph is acyclic.  Paths stay
shortest among the legal ones (minimal on a healthy mesh or hypercube), and
arbitrary fault shapes are handled as long as the surviving graph stays
connected (the paper makes the same connectivity assumption).

All functions here are pure: they take an explicit description of the
surviving graph and return tables, so the recovery code can run them on each
node's *view* of the system (the view built during dissemination).
"""

from collections import deque

from repro.common.errors import ConfigurationError


def surviving_adjacency(topology, dead_nodes=(), dead_links=()):
    """Adjacency of the surviving graph.

    ``dead_nodes`` are router ids whose *router* failed (a failed node whose
    router survives does **not** remove the router from the graph; packets
    can still be routed through it, as the recovery algorithm requires).
    ``dead_links`` are frozensets/tuples ``{a, b}`` of router ids.

    Returns ``adj[rid] -> list of (port, neighbor, neighbor_port)``.
    """
    dead_nodes = set(dead_nodes)
    dead_link_keys = {frozenset(link) for link in dead_links}
    adjacency = {}
    for rid in range(topology.num_nodes):
        if rid in dead_nodes:
            continue
        entries = []
        for port, (nbr, nbr_port) in sorted(topology.neighbors(rid).items()):
            if nbr in dead_nodes:
                continue
            if frozenset((rid, nbr)) in dead_link_keys:
                continue
            entries.append((port, nbr, nbr_port))
        adjacency[rid] = entries
    return adjacency


def bfs_tree(adjacency, root):
    """Breadth-first tree: returns (parent, depth) maps. parent[root] None."""
    if root not in adjacency:
        raise ConfigurationError("BFS root %r not in graph" % root)
    parent = {root: None}
    depth = {root: 0}
    frontier = deque([root])
    while frontier:
        rid = frontier.popleft()
        for _, nbr, _ in adjacency[rid]:
            if nbr not in parent:
                parent[nbr] = rid
                depth[nbr] = depth[rid] + 1
                frontier.append(nbr)
    return parent, depth


def bft_height(adjacency, root):
    """Height of the breadth-first tree rooted at ``root`` (paper §4.3)."""
    _, depth = bfs_tree(adjacency, root)
    return max(depth.values()) if depth else 0


def connected_component(adjacency, start):
    """Set of routers reachable from ``start`` in the surviving graph."""
    _, depth = bfs_tree(adjacency, start)
    return set(depth)


def compute_up_down_tables(adjacency, dead_node_controllers=()):
    """Compute deadlock-free routing tables for the surviving graph.

    Autonet up*/down* routing over *every* surviving link.  Routers are
    ranked by ``(BFS depth, id)`` from the lowest-id surviving router, and
    each link is oriented "up" toward its lower-ranked end.  A legal path is
    zero or more up hops followed by zero or more down hops; it never turns
    from a down hop back to an up hop.  Per destination:

    * a router from which ``dst`` is reachable by down hops alone takes the
      next hop of a shortest down-only path (so a packet that has taken a
      down hop keeps descending: its next router has a down-only path too);
    * every other router takes the up hop that minimises the remaining
      distance under these tables (the root reaches everything by down
      hops along its BFS tree, so an up hop always exists and leads there).

    Deadlock freedom: up channels depend only on up channels of strictly
    lower rank or on down channels, and down channels only on down channels
    of strictly higher rank, so the channel-dependency graph is acyclic
    (also checked by property tests).  Ties break toward the lower port.

    Parameters
    ----------
    adjacency:
        Output of :func:`surviving_adjacency` — routers that still forward.
    dead_node_controllers:
        Node ids whose *controller* is dead although the router works; they
        are excluded as destinations (the node map stops traffic to them
        anyway) but still forward traffic.

    Returns
    -------
    dict ``router_id -> {dst_node -> port}`` covering every destination
    reachable from the root.
    """
    if not adjacency:
        return {}
    _, depth = bfs_tree(adjacency, min(adjacency))
    routers = sorted(depth, key=lambda rid: (depth[rid], rid))
    rank = {rid: index for index, rid in enumerate(routers)}
    up = {rid: [] for rid in routers}      # rid -> [(port, lower-rank nbr)]
    down = {rid: [] for rid in routers}    # rid -> [(port, higher-rank nbr)]
    for rid in routers:
        for port, nbr, _ in adjacency[rid]:
            if nbr in rank:
                (up if rank[nbr] < rank[rid] else down)[rid].append(
                    (port, nbr))
    dead = set(dead_node_controllers)

    tables = {rid: {} for rid in routers}
    for dst in sorted(depth):
        if dst in dead:
            continue
        # Shortest down-only distance to dst: BFS from dst walking links
        # backwards, i.e. from each router to its up neighbours.
        down_dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            rid = frontier.popleft()
            for _, nbr in up[rid]:
                if nbr not in down_dist:
                    down_dist[nbr] = down_dist[rid] + 1
                    frontier.append(nbr)
        # Rank order settles every up neighbour before the router itself.
        dist = {}
        for rid in routers:
            if rid in down_dist:
                dist[rid] = down_dist[rid]
                if rid != dst:
                    tables[rid][dst] = min(
                        (down_dist[nbr], port) for port, nbr in down[rid]
                        if nbr in down_dist)[1]
            else:
                hops, port = min((dist[nbr], port) for port, nbr in up[rid])
                dist[rid] = hops + 1
                tables[rid][dst] = port
    return tables


def compute_source_route(adjacency, src, dst):
    """Shortest source route (list of output ports) from src to dst.

    Used by the recovery algorithm to send packets around failed regions
    (paper §4.1).  Returns None when dst is unreachable.
    """
    if src == dst:
        return []
    parent_port = {src: None}
    parent = {src: None}
    frontier = deque([src])
    while frontier:
        rid = frontier.popleft()
        for port, nbr, _ in adjacency.get(rid, ()):
            if nbr in parent:
                continue
            parent[nbr] = rid
            parent_port[nbr] = port
            if nbr == dst:
                route = []
                walk = dst
                while parent[walk] is not None:
                    route.append(parent_port[walk])
                    walk = parent[walk]
                route.reverse()
                return route
            frontier.append(nbr)
    return None


def channel_dependency_graph(adjacency, tables):
    """Directed graph over channels induced by the routing tables.

    A channel is a directed link ``(a, b)``.  Routing a packet that arrives
    at ``b`` over ``(a, b)`` and leaves over ``(b, c)`` creates the
    dependency ``(a, b) -> (b, c)``.  Wormhole routing is deadlock-free if
    this graph is acyclic.
    """
    port_to_neighbor = {
        rid: {port: nbr for port, nbr, _ in entries}
        for rid, entries in adjacency.items()
    }
    edges = set()
    for dst in sorted({d for table in tables.values() for d in table}):
        for rid, table in tables.items():
            if dst not in table:
                continue
            # packet can arrive at rid from any neighbor that routes via rid
            out_port = table[dst]
            out_nbr = port_to_neighbor[rid].get(out_port)
            if out_nbr is None:
                continue
            for src_rid, src_table in tables.items():
                if src_table.get(dst) is None:
                    continue
                if port_to_neighbor[src_rid].get(src_table[dst]) == rid:
                    edges.add(((src_rid, rid), (rid, out_nbr)))
    return edges


def graph_is_acyclic(edges):
    """True when the directed graph given as an edge set has no cycle."""
    adjacency = {}
    indegree = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        indegree.setdefault(src, 0)
        indegree[dst] = indegree.get(dst, 0) + 1
    ready = deque(node for node, deg in indegree.items() if deg == 0)
    removed = 0
    while ready:
        node = ready.popleft()
        removed += 1
        for nxt in adjacency.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return removed == len(indegree)
