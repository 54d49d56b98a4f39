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

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Optional

from .graphs import Graph, edge_key, require_equal_orders, status_and_median
from .hamiltonian import find_hamiltonian_cycle, find_hamiltonian_path


class HostNotHamiltonianError(ValueError):
    """The host minus each of its medians has no spanning cycle or path, so
    the median construction (and wirelength equality) is unattainable."""


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """Vertex bijection plus per-guest-edge host routes, validated when built.

    Routes are keyed by canonical guest edges (u, v) with u < v and stored as
    explicit host vertex sequences from vmap[u] to vmap[v]; congestion is
    therefore well-defined even for routings that are not shortest paths.
    Construction checks bijectivity and route wellformedness, raising on the
    first defect, and stores a copy of `vmap`, the routes as tuples and the
    per-host-edge loads.
    """

    guest: Graph
    host: Graph
    vmap: Mapping[int, int]
    routes: Mapping[tuple[int, int], tuple[int, ...]]
    _loads: dict = field(init=False, repr=False)

    def __post_init__(self):
        guest, host, vmap = self.guest, self.host, self.vmap
        require_equal_orders(guest, host)
        if sorted(vmap) != list(guest.vertices()) or sorted(vmap.values()) != list(host.vertices()):
            raise ValueError("vmap must be a bijection from guest vertices onto host vertices")
        canonical = {}
        for (u, v), route in self.routes.items():
            if not u < v:  # else (1, 2) and (2, 1) could both route one edge
                raise ValueError(f"route key ({u}, {v}) is not a guest edge (u, v) with u < v")
            canonical[u, v] = tuple(route)
        if set(canonical) != guest.edges:
            raise ValueError("routes must cover exactly the guest edges")
        # one pass gives the loads and every route's verdicts; they are read in
        # route order, so the first defect in route order is the one reported
        loads, repeats, non_edges = _fold_hops(host, list(canonical.values()))
        for ((u, v), route), repeat, hop in zip(canonical.items(), repeats, non_edges):
            if not route:
                raise ValueError(f"route for guest edge ({u}, {v}) is empty")
            if route[0] != vmap[u] or route[-1] != vmap[v]:
                raise ValueError(f"route for guest edge ({u}, {v}) does not join its images")
            if repeat:
                raise ValueError(f"route for guest edge ({u}, {v}) repeats a vertex")
            if hop is not None:
                raise ValueError(
                    f"route for guest edge ({u}, {v}) uses the non-edge ({hop[0]}, {hop[1]})")
        object.__setattr__(self, "vmap", dict(vmap))
        object.__setattr__(self, "routes", canonical)
        object.__setattr__(self, "_loads", loads)


@dataclass(frozen=True, eq=False)
class EmbeddingMetrics:
    """Per-edge dilation and congestion together with their maxima and sum."""

    dil_per_edge: Mapping[tuple[int, int], int]
    cong_per_edge: Mapping[tuple[int, int], int]
    max_dilation: int
    max_congestion: int
    wirelength: int


def _fold_hops(host: Graph, routes: list) -> tuple[Optional[dict], list, list]:
    """Per-host-edge loads of `routes`, and per route whether it repeats a
    vertex and its first hop that is not a host edge (or None); the loads
    are None when some hop is not a host edge.

    Routes are read shortest first. A route that is an earlier route plus one
    hop (its parent, looked up by first and last vertex among the routes of
    the last shorter length) adds only that hop, and repeats a vertex when
    its parent does or already holds its last vertex. The hops of every other
    route go into one Counter. A hop's load is the number of routes through
    it: read longest first, each route adds its weight (itself and its
    extensions) to its parent's and to the hops it adds, so every
    route-extension step is counted once."""
    loads = {e: 0 for e in host.edges}
    count = len(routes)
    parent, repeats, non_edges = [-1] * count, [False] * count, [None] * count
    order = sorted(range(count), key=lambda i: len(routes[i]))
    walked = []  # the routes that extend no earlier route
    shorter, ends, length = {}, {}, 0  # routes of the last shorter length and of this one, by ends
    for i in order:
        route = routes[i]
        k = len(route)
        if k != length:
            shorter, ends, length = ends, {}, k
        p = shorter.get((route[0], route[-2])) if k > 1 else None
        if p is not None and routes[p] == route[:-1]:
            a, b = route[-2], route[-1]
            parent[i] = p
            repeats[i] = repeats[p] or b in routes[p]
            if edge_key(a, b) not in loads:
                non_edges[i] = (a, b)
        else:
            walked.append(route)
            repeats[i] = len(set(route)) != k
        if k:
            ends.setdefault((route[0], route[-1]), i)
    hops = Counter(chain.from_iterable(zip(route, route[1:]) for route in walked))
    faulty = any(non_edges)
    for hop, times in hops.items():
        key = hop if hop in loads else hop[::-1]
        if key not in loads:
            faulty = True
            break
        loads[key] += times
    if faulty:  # name each route's first non-edge, which an extension inherits
        for i in order:
            route, p = routes[i], parent[i]
            if p >= 0:
                non_edges[i] = non_edges[p] or non_edges[i]
            else:
                non_edges[i] = next(((a, b) for a, b in zip(route, route[1:])
                                     if not host.has_edge(a, b)), None)
        return None, repeats, non_edges
    weight = [1] * count
    for i in reversed(order):
        route, p, w = routes[i], parent[i], weight[i]
        if p >= 0:
            weight[p] += w
            loads[edge_key(route[-2], route[-1])] += w
        elif w > 1:  # the Counter gave each of its hops one route
            for a, b in zip(route, route[1:]):
                loads[edge_key(a, b)] += w - 1
    return loads, repeats, non_edges


def build_embedding(guest: Graph, host: Graph, vmap: Mapping[int, int],
                    routes: Mapping[tuple[int, int], tuple[int, ...]]) -> EmbeddingMap:
    """The validated embedding of `vmap` and `routes`: the one entry through
    which this package builds an `EmbeddingMap`."""
    return EmbeddingMap(guest, host, vmap, routes)


def route_shortest(guest: Graph, host: Graph, vmap: Mapping[int, int]) -> EmbeddingMap:
    """Route every guest edge on the lexicographically least shortest host path.

    For each guest vertex u with later neighbours, one BFS from vmap[u] over
    the sorted adjacency, grown a layer at a time until it holds every later
    neighbour's image or the whole component; nothing outlives the call. FIFO
    order keeps each layer in the order of its lex-least shortest paths, so a
    vertex's first discoverer ends its own path from the source, and the
    route is read back along the parents. Unequal orders are reported first,
    then the first guest edge in `edge_list()` order with an image outside
    the host or no host path."""
    require_equal_orders(guest, host)
    adjacency, routes, tree_of = host.adjacency, {}, None
    for u, v in guest.edge_list():
        s, t = vmap[u], vmap[v]
        if tree_of != u:  # the edges from u are contiguous in edge_list()
            tree_of = u
            if not 1 <= s <= host.order:
                raise ValueError(f"vertex {s} outside 1..{host.order}")
            parents, frontier = {s: s}, [s]
            missing = [vmap.get(w) for w in guest.adjacency[u] if w > u]
            while missing and frontier:
                reached = []
                for x in frontier:
                    for w in adjacency[x]:
                        if w not in parents:
                            parents[w] = x
                            reached.append(w)
                frontier = reached
                missing = [m for m in missing if m not in parents]
        if not 1 <= t <= host.order:
            raise ValueError(f"vertex {t} outside 1..{host.order}")
        if t not in parents:
            raise ValueError(f"host has no path between {s} and {t}")
        route = [t]
        while t != s:
            t = parents[t]
            route.append(t)
        routes[u, v] = tuple(reversed(route))
    return build_embedding(guest, host, vmap, routes)


def evaluate(emb: EmbeddingMap) -> EmbeddingMetrics:
    """Per-edge dilation and congestion; their sums coincide in the wirelength."""
    dil = {e: len(route) - 1 for e, route in emb.routes.items()}
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

    # routes are slices of one id tuple, so all hops share its int objects
    # instead of allocating a fresh int per hop above 256
    ids = tuple(range(size + 1))
    routes: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(2, size + 1):
        if 2 <= i <= quarter + 1:
            route = ids[1:i + 1]                                # clockwise
        elif 3 * quarter + 1 <= i <= size:
            route = (1,) + ids[size:i - 1:-1]                   # anticlockwise
        elif quarter + 2 <= i <= 2 * quarter + 1:
            route = (1,) + ids[quarter + 1:i + 1]               # chord then clockwise
        else:
            route = (1,) + ids[3 * quarter + 1:i - 1:-1]        # chord then anticlockwise
        routes[(1, i)] = route
    for i in range(2, size - 1, 2):
        routes[(i, i + 1)] = ids[i:i + 2]
    return build_embedding(guest, host, vmap, routes)


def _embed_via_median(guest: Graph, host: Graph, find, what: str,
                      node_limit: Optional[int]) -> EmbeddingMap:
    """Hub (guest vertex 1) on the first median, in id order, whose removal
    leaves a spanning `what` (cycle or path) that `find` returns; guest
    vertices 2..n along it, every guest edge on a shortest host path."""
    require_equal_orders(guest, host)
    try:  # the ball pass that yields the medians also decides connectivity
        medians, _ = status_and_median(host)
    except ValueError:
        raise ValueError("median construction requires a connected host") from None
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
