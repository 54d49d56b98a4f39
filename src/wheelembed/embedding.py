"""Embedding data model, metric evaluation, and the constructive embeddings.

An embedding is a vertex bijection (expansion one) plus one explicit host
path per guest edge. Three constructions are provided: pre-order placement
of hub-centered guests into heap-labeled tree hosts, the four-range windmill
routing into two-jump circulants, and the median-plus-spanning-cycle (or
spanning-path) placement of wheels and fans into arbitrary hosts. Each one
places the guest and host it is given and builds no graph of its own; the
validated `EmbeddingMap` rejects a guest whose edges the placement does not
fit.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from operator import ne
from typing import Optional

from .graphs import (Graph, Record, bfs_parents, require_connected, require_equal_orders,
                     status_and_median)
from .hamiltonian import find_hamiltonian_cycle, find_hamiltonian_path


class HostNotHamiltonianError(ValueError):
    """The host minus each of its medians has no spanning cycle or path, so
    the median construction (and wirelength equality) is unattainable."""


class RouteForest(Mapping, Record):
    """Guest-edge routes stored once as a prefix forest, read as a mapping.

    Node k is host vertex `vertex[k]` below node `parent[k]` (-1 at a root),
    parents before children; the route of guest edge e runs from a root down
    to node `ends[e]` (-1 for an empty route). Reading a key builds its route
    tuple, and no route can be assigned through the mapping. Mapping comes
    first, so a forest compares as a mapping and is unhashable."""

    def __init__(self, parent: list[int], vertex: list[int], ends: dict[tuple[int, int], int]):
        vars(self).update(parent=parent, vertex=vertex, ends=ends)

    @classmethod
    def of(cls, routes: Mapping) -> RouteForest:
        """`routes` itself when it is a forest, else its vertex sequences
        inserted in order into a new forest, each shared prefix once."""
        if isinstance(routes, cls):
            return routes
        parent, vertex, ends, child = [], [], {}, {}
        for key, route in routes.items():
            at = -1
            for x in route:
                if (at, x) not in child:
                    child[at, x] = len(vertex)
                    parent.append(at)
                    vertex.append(x)
                at = child[at, x]
            ends[key] = at
        return cls(parent, vertex, ends)

    def __getitem__(self, edge: tuple[int, int]) -> tuple[int, ...]:
        route, node = [], self.ends[edge]
        while node >= 0:
            route.append(self.vertex[node])
            node = self.parent[node]
        return tuple(reversed(route))

    def __iter__(self):
        return iter(self.ends)

    def __len__(self) -> int:
        return len(self.ends)

    def __repr__(self) -> str:
        return repr(dict(self))


class EmbeddingMap(Record):
    """Vertex bijection plus per-guest-edge host routes, validated when built.

    Routes are keyed by canonical guest edges (u, v) with u < v and read as
    explicit host vertex sequences from vmap[u] to vmap[v]; congestion is
    therefore well-defined even for routings that are not shortest paths.
    Construction checks bijectivity and route wellformedness, raising on the
    first defect, and stores a copy of `vmap`, the routes as a `RouteForest`,
    the node depths and the per-host-edge loads. Embeddings compare by
    identity.
    """

    _fields = ("guest", "host", "vmap", "routes")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, guest: Graph, host: Graph, vmap: Mapping[int, int],
                 routes: Mapping[tuple[int, int], tuple[int, ...]]):
        require_equal_orders(guest, host)
        if sorted(vmap) != list(guest.vertices()) or sorted(vmap.values()) != list(host.vertices()):
            raise ValueError("vmap must be a bijection from guest vertices onto host vertices")
        forest = RouteForest.of(routes)
        for u, v in forest.ends:
            if not u < v:  # else (1, 2) and (2, 1) could both route one edge
                raise ValueError(f"route key ({u}, {v}) is not a guest edge (u, v) with u < v")
        if forest.ends.keys() != guest.edges:
            raise ValueError("routes must cover exactly the guest edges")
        # one walk gives the loads and every node's verdicts; they are read in
        # route order, so the first defect in route order is the one reported
        first, depth, non_edge, repeats, loads = _walk_forest(host, forest)
        for (u, v), node in forest.ends.items():
            if node < 0:
                raise ValueError(f"route for guest edge ({u}, {v}) is empty")
            if first[node] != vmap[u] or forest.vertex[node] != vmap[v]:
                raise ValueError(f"route for guest edge ({u}, {v}) does not join its images")
            if repeats[node]:
                raise ValueError(f"route for guest edge ({u}, {v}) repeats a vertex")
            if non_edge[node] is not None:
                raise ValueError(f"route for guest edge ({u}, {v}) uses the non-edge {non_edge[node]}")
        vars(self).update(guest=guest, host=host, vmap=dict(vmap), routes=forest,
                          _depth=depth, _loads=loads)


class EmbeddingMetrics(Record):
    """Per-edge dilation and congestion together with their maxima and sum;
    compared by identity."""

    _fields = ("dil_per_edge", "cong_per_edge", "max_dilation", "max_congestion", "wirelength")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, dil_per_edge: Mapping[tuple[int, int], int],
                 cong_per_edge: Mapping[tuple[int, int], int], max_dilation: int,
                 max_congestion: int, wirelength: int):
        vars(self).update(dil_per_edge=dil_per_edge, cong_per_edge=cong_per_edge,
                          max_dilation=max_dilation, max_congestion=max_congestion,
                          wirelength=wirelength)


def _walk_forest(host: Graph, forest: RouteForest) -> tuple[list, list, list, list, dict]:
    """Per node of `forest` its route's first vertex, depth, first hop off the
    host's edges (or None) and whether it repeats a vertex; and the loads.
    Node weights, the routes ending in each subtree, are summed toward the
    roots, and each node's children are linked in id order through flat
    first-child and next-sibling lists; then one depth-first walk with an
    explicit stack enters parents first, keeps the path's vertices and loads
    each hop with its weight."""
    parent, vertex, count = forest.parent, forest.vertex, len(forest.vertex)
    # slot -1 stands for the parent of the roots and the end of an empty route,
    # and -1 for no child or no next sibling
    weight, first_child, next_sibling = [0] * (count + 1), [-1] * (count + 1), [-1] * count
    for node in forest.ends.values():
        weight[node] += 1
    for i in range(count - 1, -1, -1):
        p = parent[i]
        weight[p] += weight[i]
        next_sibling[i], first_child[p] = first_child[p], i
    loads, todo = {e: 0 for e in host.edges}, [first_child[-1]]
    first, depth, non_edge, repeats = vertex[:], [0] * count, [None] * count, [False] * count
    # the current root path, each of its vertices' first node, and one int
    # object per depth value (CPython makes a new one for each sum above 256)
    path, held, levels = [], {}, {}
    while todo:
        i = todo.pop()
        if i < 0:
            continue
        todo += next_sibling[i], first_child[i]  # i's subtree before its next sibling
        p, x = parent[i], vertex[i]
        while path and path[-1] != p:
            j = path.pop()
            if held[vertex[j]] == j:
                del held[vertex[j]]
        if p >= 0:
            a, d = vertex[p], depth[p] + 1
            first[i], depth[i], non_edge[i] = first[p], levels.setdefault(d, d), non_edge[p]
            key = (a, x) if a < x else (x, a)
            if key in loads:
                loads[key] += weight[i]
            elif non_edge[i] is None:
                non_edge[i] = (a, x)
            repeats[i] = repeats[p] or x in held
        held.setdefault(x, i)
        path.append(i)
    return first, depth, non_edge, repeats, loads


def build_embedding(guest: Graph, host: Graph, vmap: Mapping[int, int],
                    routes: Mapping[tuple[int, int], tuple[int, ...]]) -> EmbeddingMap:
    """The validated embedding of `vmap` and `routes`: the one entry through
    which this package builds an `EmbeddingMap`. A `RouteForest` is adopted
    as is; any other mapping of vertex sequences is inserted into a new one."""
    return EmbeddingMap(guest, host, vmap, routes)


def route_shortest(guest: Graph, host: Graph, vmap: Mapping[int, int]) -> EmbeddingMap:
    """Route every guest edge on the lexicographically least shortest host path.

    For each guest vertex u with later neighbours, one `bfs_parents` run from
    vmap[u] that stops once it has reached every later neighbour's image;
    nothing outlives the call. Each parent chain is a lex-least shortest
    path, so a target's route nodes are made walking up the parents to the
    first vertex that has one. Unequal orders are reported first, then the
    first guest vertex without an image, then the first guest edge in
    `edge_list()` order with an image outside the host or no host path."""
    require_equal_orders(guest, host)
    unmapped = next((g for g in guest.vertices() if g not in vmap), None)
    if unmapped is not None:
        raise ValueError(f"vmap has no image for guest vertex {unmapped}")
    tree_of, parent, vertex, ends = None, [], [], {}
    for edge in guest.edge_list():  # the guest's own tuples are the route keys
        u, v = edge
        s, t = vmap[u], vmap[v]
        if tree_of != u:  # the edges from u are contiguous in edge_list()
            tree_of = u
            parents = bfs_parents(host, s, (vmap[w] for w in guest.adjacency[u] if w > u))
            node_of = {0: -1}  # route nodes by vertex; the source's parent 0 has node -1
        if not 1 <= t <= host.order:
            raise ValueError(f"vertex {t} outside 1..{host.order}")
        if t not in parents:
            raise ValueError(f"host has no path between {s} and {t}")
        branch = []
        while t not in node_of:
            branch.append(t)
            t = parents[t]
        for x in reversed(branch):
            parent.append(node_of[t])
            vertex.append(x)
            node_of[x], t = len(vertex) - 1, x
        ends[edge] = node_of[t]
    return build_embedding(guest, host, vmap, RouteForest(parent, vertex, ends))


def evaluate(emb: EmbeddingMap) -> EmbeddingMetrics:
    """Per-edge dilation and congestion; their sums coincide in the wirelength."""
    dil = {e: emb._depth[node] for e, node in emb.routes.ends.items()}
    cong = dict(emb._loads)  # the caller may mutate its copy
    return EmbeddingMetrics(
        dil_per_edge=dil,
        cong_per_edge=cong,
        max_dilation=max(dil.values(), default=0),
        max_congestion=max(cong.values(), default=0),
        wirelength=sum(dil.values()),
    )


def preorder_sequence(level: int) -> tuple[int, ...]:
    """Heap labels of the complete binary tree visited root, left, right."""
    limit = 2 ** level
    out: list[int] = []
    stack = [1]
    while stack:
        x = stack.pop()
        if x >= limit:
            continue
        out.append(x)
        stack.append(2 * x + 1)
        stack.append(2 * x)
    return tuple(out)


def embed_wheel_like_into_tree_host(guest: Graph, host: Graph) -> EmbeddingMap:
    """Guest vertex g on the host vertex of pre-order rank g, every guest edge
    on a shortest host path.

    The host must have order 2**level - 1 with level >= 3, and the guest the
    same order. On a heap-labeled tree host the hub (vertex 1) of a
    hub-centered guest lands on the root, and the maximum dilation is expected
    to equal level - 1, the host radius; that claim is checked by the
    bound-verification layer rather than assumed.
    """
    level = host.order.bit_length()
    if 2 ** level - 1 != host.order or level < 3:
        raise ValueError("preorder placement needs a host of order 2**level - 1, level >= 3")
    require_equal_orders(guest, host)
    order = preorder_sequence(level)
    return route_shortest(guest, host, {g: order[g - 1] for g in guest.vertices()})


def embed_windmill_into_circulant(guest: Graph, host: Graph) -> EmbeddingMap:
    """Identity placement of the order-2**n windmill into G(2**n; +-{1, 2**(n-2)}),
    n read from the host's order.

    Spokes from the hub are routed in four label ranges: clockwise along the
    outer cycle, anticlockwise along the outer cycle, and through one of the
    two hub chords followed by the outer cycle. Outer guest edges sit on single
    host edges. This literal routing is what attains congestion 2**(n-2), even
    where shorter chord routes exist. A guest that is not the windmill, or a
    host without those jumps, fails validation: the routes do not cover the
    guest edges, or a route uses a non-edge.
    """
    size = host.order
    n = size.bit_length() - 1
    if 2 ** n != size or n < 3:
        raise ValueError(f"windmill routing needs a host of order 2**n with n >= 3, got {size}")
    quarter = 2 ** (n - 2)
    vmap = {x: x for x in guest.vertices()}

    # four chains below the hub: through either hub chord then along the outer
    # cycle, and along the outer cycle either way. Spoke (1, i) ends at label
    # i's node on the last chain that holds it; an outer edge is two nodes
    parent, vertex = [-1], [1]
    for labels in (range(quarter + 1, 2 * quarter + 2), range(3 * quarter + 1, 2 * quarter + 1, -1),
                   range(2, quarter + 2), range(size, 3 * quarter, -1)):
        base = len(vertex)
        parent += [0, *range(base, base + len(labels) - 1)]
        vertex += labels
    spoke = [0] * (size + 1)  # by label; the hub's entry is never read
    for node, i in enumerate(vertex):
        spoke[i] = node

    # the windmill's edges in sorted order: the spokes, then the outer edges.
    # The guest's own edge tuples are the route keys when they are these; any
    # other guest gets these, which validation finds do not cover its edges
    def windmill_edges():
        return chain(((1, i) for i in range(2, size + 1)),
                     ((i, i + 1) for i in range(2, size - 1, 2)))

    keys = guest.edge_list()
    if len(keys) != 3 * size // 2 - 2 or any(map(ne, keys, windmill_edges())):
        keys = list(windmill_edges())
    ends = dict(zip(keys, spoke[2:]))
    for key in keys[size - 1:]:
        parent += (-1, len(vertex))
        vertex += key
        ends[key] = len(vertex) - 1
    return build_embedding(guest, host, vmap, RouteForest(parent, vertex, ends))


def _embed_via_median(guest: Graph, host: Graph, find, what: str,
                      node_limit: Optional[int]) -> EmbeddingMap:
    """Hub (guest vertex 1) on the first median, in id order, whose removal
    leaves a spanning `what` (cycle or path) that `find` returns; guest
    vertices 2..n along it, every guest edge on a shortest host path."""
    require_equal_orders(guest, host)
    require_connected(host, "median construction")
    medians, _ = status_and_median(host)
    for hub_image in medians:
        rim = find(host, without_vertices=(hub_image,), node_limit=node_limit)
        if rim is not None:
            # rim images are host-adjacent, so shortest routing keeps every rim
            # edge on its single host edge and the spokes on shortest paths
            vmap = {1: hub_image}
            vmap.update({g: rim[g - 2] for g in range(2, host.order + 1)})
            return route_shortest(guest, host, vmap)
    listed = ", ".join(map(str, medians))
    raise HostNotHamiltonianError(
        f"host minus any of its medians ({listed}) has no hamiltonian {what}")


def embed_wheel_via_median(guest: Graph, host: Graph, *,
                           node_limit: Optional[int] = None) -> EmbeddingMap:
    """The median construction with a spanning-cycle rim, for wheels."""
    return _embed_via_median(guest, host, find_hamiltonian_cycle, "cycle", node_limit)


def embed_fan_via_median(guest: Graph, host: Graph, *,
                         node_limit: Optional[int] = None) -> EmbeddingMap:
    """The median construction with a spanning-path rim, for fans."""
    return _embed_via_median(guest, host, find_hamiltonian_path, "path", node_limit)
