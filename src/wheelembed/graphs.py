"""Labeled simple undirected graphs and their distance-based invariants.

Vertices are numbered 1..order everywhere in this package. A Graph's fields
are immutable after construction, which builds nothing else. Its derived
values are built on first read and cached on the instance: the sorted
adjacency, and one ball-growth pass for every eccentricity and status
(radius, diameter, medians), which also decides whether a graph is connected
for them. `is_connected` reads only the edges, through a union-find.
Distance rows and shortest routes are not cached: both read `bfs_parents`,
the one adjacency BFS, afresh on every call. The cached values never change
`==` or `hash`.
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


def bfs_parents(G: Graph, source: int, targets: Optional[Iterable[int]] = None) -> dict[int, int]:
    """The package's one adjacency BFS: each vertex reached from `source`
    mapped to its parent (the source to 0, which names no vertex), in the
    order reached. FIFO order over the sorted adjacency makes every parent
    chain read back from a vertex its lex-least shortest path. Given
    `targets`, the search stops once it has reached them all, counting each
    down as it meets it."""
    if not 1 <= source <= G.order:
        raise ValueError(f"vertex {source} outside 1..{G.order}")
    parents, queue = {source: 0}, [source]
    wanted = set() if targets is None else set(targets) - {source}
    if targets is not None and not wanted:
        return parents
    adjacency = G.adjacency
    for x in queue:  # the queue grows while it is read
        for w in adjacency[x]:
            if w not in parents:
                parents[w] = x
                queue.append(w)
                if w in wanted:
                    wanted.remove(w)
                    if not wanted:
                        return parents
    return parents


def single_source_distances(G: Graph, source: int) -> tuple[int, ...]:
    """Hop distances from `source`, read off one `bfs_parents` run on every call.

    Returns a row indexed by vertex id; -1 marks an unreachable vertex and
    index 0, which names no vertex, holds 0 so that the sum and maximum of a
    connected graph's row are the source's status and eccentricity.
    """
    dist = [-1] * (G.order + 1)
    # a parent comes before its children, and the source's parent 0 holds -1 here
    for v, p in bfs_parents(G, source).items():
        dist[v] = dist[p] + 1
    dist[0] = 0
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


def shells(G: Graph, center: int) -> tuple[frozenset[int], ...]:
    """Distance layers around `center`, layer i holding distance i + 1;
    together they partition the other vertices."""
    dist = single_source_distances(G, center)
    if min(dist) < 0:
        raise ValueError("shells requires a connected graph")
    return tuple(frozenset(v for v in G.vertices() if dist[v] == d)
                 for d in range(1, max(dist) + 1))


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
