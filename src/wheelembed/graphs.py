"""Labeled simple undirected graphs and their distance-based invariants.

Vertices are numbered 1..order everywhere in this package. A Graph's fields
are immutable after construction, which builds nothing else. Its derived
values are built on first read and cached on the instance: the sorted
adjacency, and one ball-growth pass for every eccentricity and status
(radius, diameter, medians), which also decides whether a graph is connected
for them. `is_connected` reads only the edges, through a union-find.
Distance rows are not cached: `single_source_distances` runs one BFS per
call. The cached values never change `==` or `hash`.
"""

from __future__ import annotations

import functools
import json
from typing import Iterable, Optional


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical form of an undirected edge: endpoints in increasing order."""
    return (u, v) if u < v else (v, u)


class Record:
    """An immutable record: `__init__` stores the fields in the instance
    `__dict__`, and assigning or deleting an attribute raises AttributeError.

    `_fields` names, in order, the fields that the repr shows and that `==`
    and `hash` compare between records of one class; a field it leaves out
    is stored but takes no part. A record compared by identity restores
    object's `__eq__` and `__hash__`.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class Graph(Record):
    """Simple undirected graph on vertices 1..order.

    `edges` holds canonical (u, v) pairs with u < v. The `name` tag is a
    free-form family label and does not take part in equality. `adjacency`,
    built on first read, maps every vertex to its sorted neighbor tuple.
    """

    # neither `name` nor the cached properties are in _fields, so equality and
    # hash ignore them; each cached property is stored in the instance
    # __dict__ on first read
    _fields = ("order", "edges")

    def __init__(self, order: int, edges: frozenset[tuple[int, int]], name: str = ""):
        vars(self).update(order=order, edges=edges, name=name)

    @functools.cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        # in sorted edge order, v's smaller neighbors arrive ascending, and
        # all before its larger ones, so no list needs a sort of its own
        nbrs: list[list[int]] = [[] for _ in range(self.order + 1)]
        for u, v in sorted(self.edges):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return dict(zip(self.vertices(), map(tuple, nbrs[1:])))

    @functools.cached_property
    def _ball_pass(self) -> tuple:
        """`_ball_growth`'s result, or () on a disconnected graph."""
        return _ball_growth(self) or ()

    def vertices(self) -> range:
        return range(1, self.order + 1)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in sorted canonical order."""
        return sorted(self.edges)

    def __repr__(self) -> str:  # keep reprs short for failed-test output
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} order={self.order} edges={len(self.edges)}>"


def build_graph(order: int, edges: Iterable[tuple[int, int]], name: str = "") -> Graph:
    """Validate vertex range, self-loops and duplicates, then build a Graph
    whose edge tuples all hold one shared int object per vertex id."""
    # type() rather than isinstance(): bool subclasses int, and JSON true is no vertex id
    if type(order) is not int or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    ids = list(range(order + 1))  # ints above 256 are new objects wherever they are made
    canon: set[tuple[int, int]] = set()
    for pair in edges:
        u, v = pair
        if not (type(u) is int and type(v) is int):
            raise ValueError(f"edge endpoints must be integers, got {pair!r}")
        if not (1 <= u <= order and 1 <= v <= order):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{order}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        key = edge_key(ids[u], ids[v])
        if key in canon:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        canon.add(key)
    return Graph(order, frozenset(canon), name)


def require_equal_orders(guest: Graph, host: Graph) -> None:
    """Every embedding, bound and oracle here maps guest onto host one to one."""
    if guest.order != host.order:
        raise ValueError(f"expansion-one embedding needs equal orders, "
                         f"got {guest.order} vs {host.order}")


class Shells(Record):
    """Vertices grouped by distance from a center; layers[i] holds distance i+1."""

    _fields = ("center", "layers")

    def __init__(self, center: int, layers: tuple[frozenset[int], ...]):
        vars(self).update(center=center, layers=layers)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def status(self) -> int:
        """Sum of i * |layer at distance i|, i.e. total distance from the center."""
        return sum((i + 1) * len(layer) for i, layer in enumerate(self.layers))


def single_source_distances(G: Graph, source: int) -> tuple[int, ...]:
    """Hop distances from `source` by one BFS, computed afresh on every call.

    Returns a row indexed by vertex id; -1 marks an unreachable vertex and
    index 0, which names no vertex, holds 0 so that the sum and maximum of a
    connected graph's row are the source's status and eccentricity.
    """
    if not 1 <= source <= G.order:
        raise ValueError(f"vertex {source} outside 1..{G.order}")
    dist = [-1] * (G.order + 1)
    dist[0] = dist[source] = 0
    adjacency = G.adjacency
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for x in frontier:
            for w in adjacency[x]:
                if dist[w] < 0:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
    return tuple(dist)


def all_pairs_distances(G: Graph) -> list[tuple[int, ...]]:
    """Hop distances for all pairs, one BFS per vertex: row v is
    `single_source_distances(G, v)`, so -1 marks an unreachable vertex, and
    row 0, which names no vertex, is empty."""
    return [()] + [single_source_distances(G, v) for v in G.vertices()]


def is_connected(G: Graph) -> bool:
    """One union-find pass over the edges, with path halving; it builds no
    adjacency and runs no BFS."""
    parent = list(range(G.order + 1))
    parts = G.order
    for u, v in G.edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            parts -= 1
    return parts == 1


def _ball_growth(G: Graph) -> Optional[tuple[list[int], list[int]]]:
    """Eccentricities and statuses, indexed by vertex, from bitset balls:
    ball_0(v) = {v}, ball_k+1(v) = ball_k(v) | the ball_k(w) of v's neighbors
    w; ecc(v) is the first k with a full ball and status(v) is the sum over k
    of n - |ball_k(v)|. Costs diameter x |E| big-int ORs. In a connected graph
    a ball that is not full grows at every step, so a ball that stops short of
    full shows the graph is disconnected, and the result is None."""
    n, adjacency = G.order, G.adjacency
    full = (1 << n + 1) - 2  # bit v stands for vertex v
    balls = [1 << v for v in range(n + 1)]
    ecc, status = [0] * (n + 1), [0] * (n + 1)
    growing = [v for v in G.vertices() if balls[v] != full]
    while growing:
        grown = balls[:]  # every ball of step k + 1 reads the balls of step k
        for v in growing:
            ball = balls[v]
            ecc[v] += 1
            status[v] += n - ball.bit_count()
            for w in adjacency[v]:
                ball |= balls[w]
            if ball == balls[v]:
                return None
            grown[v] = ball
        balls = grown
        growing = [v for v in growing if balls[v] != full]
    return ecc, status


def _ball_stats(G: Graph, what: str) -> tuple[list[int], list[int]]:
    if not G._ball_pass:
        raise ValueError(f"{what} requires a connected graph")
    return G._ball_pass


def radius_diameter(G: Graph) -> tuple[int, int]:
    """(radius, diameter) of a connected graph, from the cached ball pass."""
    eccs = _ball_stats(G, "radius_diameter")[0][1:]
    return min(eccs), max(eccs)


def status_and_median(G: Graph) -> tuple[tuple[int, ...], int]:
    """Median set and its status (least total distance to all others), from
    the cached ball pass."""
    statuses = _ball_stats(G, "status_and_median")[1]
    best = min(statuses[1:])
    medians = tuple(v for v in G.vertices() if statuses[v] == best)
    return medians, best


def shells(G: Graph, center: int) -> Shells:
    """Distance layers around `center`; together they partition the other vertices."""
    dist = single_source_distances(G, center)
    if min(dist) < 0:
        raise ValueError("shells requires a connected graph")
    layers = [set() for _ in range(max(dist))]
    for v in G.vertices():
        if dist[v] > 0:
            layers[dist[v] - 1].add(v)
    return Shells(center, tuple(frozenset(layer) for layer in layers))


def _degrees(G: Graph) -> list[int]:
    """Degrees indexed by vertex (index 0 holds 0), counted from the edges
    without building the adjacency."""
    degrees = [0] * (G.order + 1)
    for u, v in G.edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


def max_degree(G: Graph) -> int:
    return max(_degrees(G))


def has_universal_vertex(G: Graph) -> Optional[int]:
    """Smallest vertex adjacent to all others, or None.

    Existence is equivalent to domination number 1.
    """
    degrees = _degrees(G)
    for v in G.vertices():
        if degrees[v] == G.order - 1:
            return v
    return None


# JSON interchange: {"name": str, "order": int, "edges": [[u, v], ...]}, 1-based ids.

def graph_to_json(G: Graph) -> str:
    payload = {
        "name": G.name,
        "order": G.order,
        "edges": [[u, v] for u, v in G.edge_list()],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_json(text: str, what: str):
    """`json.loads`, reporting input nested too deeply for the parser, or an
    object that repeats a key (`json.loads` would keep the last value), as a
    ValueError."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{what} JSON repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None


def graph_from_json(text: str) -> Graph:
    """Parse the graph interchange schema, validating through build_graph."""
    data = parse_json(text, "graph")
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    for key in ("order", "edges"):
        if key not in data:
            raise ValueError(f"graph JSON is missing the {key!r} field")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError("graph name must be a string")
    if not isinstance(data["edges"], list):
        raise ValueError("graph edges must be a list of [u, v] pairs")
    edges = []
    for item in data["edges"]:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"edge entries must be [u, v] pairs, got {item!r}")
        edges.append((item[0], item[1]))
    return build_graph(data["order"], edges, name)
