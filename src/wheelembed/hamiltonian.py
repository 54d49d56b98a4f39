"""Exact hamiltonian cycle/path search and fault-tolerant hamiltonicity checks.

One backtracking search, `_spanning`, finds a spanning path from a start
vertex that ends on a vertex of a mask `ends`, with reachability and degree
pruning on bitmasks: a survivor graph is a list of neighbour masks indexed
by vertex id (bit w of adj[v] set iff vw is an edge of G that did not fail)
plus a mask `alive` of surviving vertices, and the unvisited set is one int.
A failed vertex only clears its bit in `alive`; the rows keep it, and every
read of a row is masked by a subset of `alive`. Every query is one such
path: a cycle is its smallest vertex s, a neighbour a of s and a path from
a to a neighbour of s above a, so each cycle is searched in one direction;
a free path from s ends above s; a u-v path starts at u with `ends` {v}.

A node whose path ends at `cur` runs two tests. The degree test asks that
every unvisited vertex keep two usable neighbours (unvisited, or cur), one
for a single vertex of `ends`, the weak vertex; a child's usable set is its
parent's minus the parent end p, so a child recounts p's unvisited
neighbours and carries its parent's weak vertex. The reachability test asks
whether G[unvisited + cur] is connected. The root floods every unvisited
vertex. A child is made only after p passed the test, so H = G[unvisited +
cur + p] is connected and every component of H - p holds a neighbour of p.
Since cur is one of them, H - p is connected exactly when every unvisited
neighbour of p is reachable from cur through unvisited vertices, so below
the root the flood stops once it has reached those neighbours. Every node
gets the verdicts of a full degree check and a full flood.

The search keeps an explicit stack instead of recursing, so its depth is
bounded by memory, not by the interpreter's recursion limit. Children are
tried lowest bit first, so witnesses are lexicographically least. Verdicts
are exact; a node-expansion cap turns long searches into an explicit
inconclusive outcome instead of a wrong answer. Intended for graphs up to
around 16 vertices when sweeping fault sets.

Each query does each check once, in `_cycle_search` or `_path_search`,
cheapest first: order and path ends, then degree (two neighbours each, for
a cycle), then parity, then the search; only the search spends budget.
Parity is one mask, `_class_ends`, that narrows `ends`; a start it leaves
with no end spends no node.

Both fault sweeps are one loop, `_sweep`, over the (vertices, edges) tuple
pairs of `fault_specs`: one cycle query per set, or one path query per
surviving pair. It keeps every walk it finds as one int of edge bits and
skips a query that a kept walk answers without a failed edge of its set: a
u-v path for the same failed vertices, or a cycle for the same failed
vertices. A new path also yields its Pósa rotations, one per edge of G from
an end to a vertex other than its path neighbour, each kept under its own
end pair. A cycle kept for failed vertices X also answers X plus a vertex w,
by its shortcut past w, when the cycle has at least 4 vertices and w's two
cycle neighbours are adjacent in G; a shortcut that answers a query is kept
as a cycle too, and cycle sweeps keep each cycle's vertex order for this.
Only passing queries are skipped and the fault-free set is searched first,
so every report is that of one search per query. The path queries of one set
read the colour classes of its survivor graph, found once for the set. A
failing report returns its set as the pair `fault_specs` yielded.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional

from .graphs import Graph, Record, edge_key


class SearchBudgetExceeded(RuntimeError):
    """A search hit its node-expansion cap; the outcome is inconclusive, not false."""


class HamiltonicityReport(Record):
    """Outcome of a fault-tolerance query.

    For a true cycle verdict, `witness` is the spanning cycle of the
    fault-free graph. For a true traceable verdict, it is the spanning path
    of the fault-free graph between its first vertex pair (1, 2), or None
    when the graph has fewer than two vertices. On failure, `failing_fault`
    is the first fault set (in canonical enumeration order) whose survivor
    graph has no spanning cycle or path, as the (failed vertices, failed
    edges) pair of sorted tuples that `fault_specs` yields; traceability
    failures also record the vertex pair with no spanning path.
    """

    _fields = ("verdict", "witness", "failing_fault", "failing_pair")

    def __init__(self, verdict: bool, witness: Optional[tuple[int, ...]] = None,
                 failing_fault: Optional[tuple[tuple, tuple]] = None,
                 failing_pair: Optional[tuple[int, int]] = None):
        vars(self).update(verdict=verdict, witness=witness, failing_fault=failing_fault,
                          failing_pair=failing_pair)


class _Budget:
    """Node-expansion counter of one search; None means unlimited. `kind`,
    `pair` and `faults`, a (vertices, edges) pair from `fault_specs`, only
    name the search when the budget runs out."""

    __slots__ = ("remaining", "limit", "kind", "pair", "faults")

    def __init__(self, limit: Optional[int], kind: str,
                 pair: Optional[tuple[int, int]] = None, faults: Optional[tuple] = None):
        if limit is not None and limit <= 0:
            raise ValueError(f"node_limit must be positive, got {limit}")
        self.remaining = self.limit = limit
        self.kind, self.pair, self.faults = kind, pair, faults

    def spend(self) -> None:
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            pair = "" if self.pair is None else f" for pair {self.pair}"
            faults = "" if self.faults is None else (
                f" on fault set vertices {list(self.faults[0])}"
                f" edges {[list(e) for e in self.faults[1]]}")
            raise SearchBudgetExceeded(
                f"{self.kind} search{pair}{faults} exhausted node budget {self.limit}")


def _masks(G: Graph) -> list[int]:
    adj = [0] * (G.order + 1)
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _survivors(G: Graph, base: list[int], without_vertices=(),
               without_edges=()) -> tuple[list[int], int]:
    """G's neighbour masks `base` minus the failed edges, and the surviving
    vertices. A failed vertex only leaves `alive`: the rows keep its bit, and
    every reader masks them with a subset of `alive`. The rows are copied
    only when an edge fails, so `base` itself may come back."""
    adj = base
    if without_edges:
        adj = base[:]
        for u, v in without_edges:
            if edge_key(u, v) not in G.edges:
                raise ValueError(f"failed edge ({u}, {v}) is not an edge of the graph")
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    alive = (1 << (G.order + 1)) - 2
    for v in without_vertices:
        if not 1 <= v <= G.order:
            raise ValueError(f"vertex {v} outside 1..{G.order}")
        alive &= ~(1 << v)
    return adj, alive


def _feasible(adj, check, unvisited, weak, ends, cur, goal) -> int:
    """The weak vertex bit (0 for none) of the path ending at `cur`, or -1
    when it cannot be completed over `unvisited`. Each vertex of `check`, a
    subset of `unvisited`, needs two neighbours among the unvisited vertices
    and cur; one vertex of `ends`, the weak vertex, gets by with one. `weak`,
    the parent's, counts while unvisited. The vertices of `goal`, a subset of
    `unvisited`, must be reachable from cur through unvisited ones; the
    flood fill stops once it has reached them all.
    """
    usable, weak = unvisited | 1 << cur, weak & unvisited
    rest = check
    while rest:
        low = rest & -rest
        a = adj[low.bit_length() - 1] & usable
        if a & (a - 1) == 0:
            if a == 0 or weak or not low & ends:
                return -1
            weak = low
        rest ^= low
    # flood fill from cur; `rest` is what it has not reached
    rest, frontier = unvisited, adj[cur] & unvisited
    while frontier:
        rest ^= frontier
        if not goal & rest:
            return weak
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & rest
    return -1 if goal & rest else weak


def _spanning(adj, start, unvisited, ends, budget, check) -> Optional[list[int]]:
    """Depth-first search for a spanning path from `start` over `unvisited`
    that ends on a vertex of the mask `ends`; the last vertex of `ends` left
    unvisited may only be placed last. The root checks the degree of the
    vertices of `check`, a child that of its parent end's unvisited
    neighbours, with its parent's weak vertex (see the module docstring).
    The search keeps its own stack of untried-children masks, one per path
    vertex, and their weak vertices beside it, so its depth is bounded by
    memory. Each visited node spends one unit of budget.
    """
    path, stack, weaks, goal, weak = [start], [], [], unvisited, 0
    while True:
        budget.spend()
        cur = path[-1]
        children = 0
        left = ends & unvisited
        if not unvisited:
            if ends >> cur & 1:
                return path
        elif left and (weak := _feasible(adj, check, unvisited, weak, ends, cur, goal)) >= 0:
            children = adj[cur] & unvisited
            if left & (left - 1) == 0 and left != unvisited:
                children &= ~left  # the last end left may only be placed last
        while not children:
            if not stack:
                return None
            children, weak = stack.pop(), weaks.pop()
            unvisited |= 1 << path.pop()
        low = children & -children
        stack.append(children ^ low)
        weaks.append(weak)
        unvisited ^= low
        check = goal = adj[path[-1]] & unvisited
        path.append(low.bit_length() - 1)


def _cycle_search(adj, alive, budget) -> Optional[list[int]]:
    """A spanning cycle of the survivor graph from its smallest vertex s, or
    None. `_feasible` first checks every degree, with no weak vertex and no
    flood; after it, the path from each neighbour a of s checks at its root
    only the neighbours of s, the vertices that lost s as a usable neighbour."""
    if alive.bit_count() < 3 or _feasible(adj, alive, alive, 0, 0, 0, 0) < 0:
        return None
    low = alive & -alive
    s, rest = low.bit_length() - 1, alive ^ low
    ends = adj[s] & rest & _class_ends(_colour_classes(adj, alive), s)
    while ends & (ends - 1):  # a needs a neighbour of s above it
        a = ends & -ends
        ends ^= a
        found = _spanning(adj, a.bit_length() - 1, rest ^ a, ends, budget, adj[s] & (rest ^ a))
        if found is not None:
            return [s] + found
    return None


def _path_search(adj, alive, budget, pair=None, classes=None) -> Optional[list[int]]:
    """A spanning path of the survivor graph, joining `pair` when given, or
    None. `classes`, when given, is `_colour_classes(adj, alive)`, coloured
    once for the many pairs of one survivor graph. The degree rule is left
    to the root of each search, which spends budget, so that node counts
    stay those of one search per start."""
    if pair is None:
        starts = [v for v in range(alive.bit_length()) if alive >> v & 1]
        if len(starts) < 2:
            return starts or None
    elif pair[0] == pair[1] or not all(v >= 0 and alive >> v & 1 for v in pair):
        raise ValueError(f"path endpoints must be distinct surviving vertices, got {pair}")
    else:
        starts = [pair[0]]
    classes = _colour_classes(adj, alive) if classes is None else classes
    for s in starts:
        rest = alive ^ 1 << s
        ends = (rest & -(2 << s) if pair is None else 1 << pair[1]) & _class_ends(classes, s)
        if ends:
            found = _spanning(adj, s, rest, ends, budget, rest)
            if found is not None:
                return found
    return None


def _colour_classes(adj, alive) -> tuple:
    """The colour classes (larger first) of a connected bipartite survivor
    graph, as two masks; () when it is not connected or not bipartite.
    Breadth-first layers, inside `alive`, alternate classes; an edge inside
    one layer closes an odd cycle."""
    layer = alive & -alive
    seen, sides = layer, [0, 0]
    while layer:
        sides[0] |= layer
        reached, rest = 0, layer
        while rest:
            low = rest & -rest
            reached |= adj[low.bit_length() - 1]
            rest ^= low
        if reached & layer:
            return ()
        layer = reached & alive & ~seen
        seen |= layer
        sides.reverse()
    if seen != alive:
        return ()
    return tuple(sorted(sides, key=int.bit_count, reverse=True))


def _class_ends(classes, start) -> int:
    """The mask of vertices on which a spanning path from `start` may end, by
    the `_colour_classes` of its survivor graph, or -1 without classes. A
    spanning path alternates classes, so with equal classes it ends in the
    class opposite `start`, with one class larger by one both its ends lie
    in that class, and with a larger gap there is none."""
    if not classes:
        return -1
    big, small = classes
    gap = big.bit_count() - small.bit_count()
    if gap == 0:
        return small if big >> start & 1 else big
    return big if gap == 1 and big >> start & 1 else 0


def _witness_bits(G: Graph) -> dict[tuple[int, int], int]:
    """One bit per edge of `G.edge_list()`, keyed by both orientations, so a
    cycle or path is stored as one int: the sum of its edges' bits."""
    bits = {}
    for i, (u, v) in enumerate(G.edge_list()):
        bits[u, v] = bits[v, u] = 1 << i
    return bits


def find_hamiltonian_cycle(G: Graph, *, without_vertices=(), without_edges=(),
                           node_limit: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Spanning cycle of G minus the excluded faults, or None.

    The witness is the lexicographically least cycle sequence that starts at
    the smallest surviving vertex, which the ascending branching order yields
    as the first cycle found. A failed edge that is not an edge of G, or a
    failed vertex outside 1..order, raises ValueError.
    """
    adj, alive = _survivors(G, _masks(G), without_vertices, without_edges)
    found = _cycle_search(adj, alive, _Budget(node_limit, "cycle"))
    return tuple(found) if found is not None else None


def find_hamiltonian_path(G: Graph, ends: Optional[tuple[int, int]] = None, *,
                          without_vertices=(), without_edges=(),
                          node_limit: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Spanning path of G minus the excluded faults, or None.

    When `ends` is given the path must join exactly that vertex pair. Faults
    are checked as in `find_hamiltonian_cycle`.
    """
    adj, alive = _survivors(G, _masks(G), without_vertices, without_edges)
    found = _path_search(adj, alive, _Budget(node_limit, "path", ends), ends)
    return tuple(found) if found is not None else None


def fault_specs(G: Graph, f: int) -> Iterator[tuple[tuple, tuple]]:
    """All fault sets of total size <= f in canonical order, each a pair
    (failed vertices, failed edges) of sorted tuples.

    Sizes ascend; within one size, all-vertex sets come first (ids ascending),
    then all-edge sets (lexicographic), then mixed sets ordered by decreasing
    vertex count and lexicographic parts. The first failure under this order
    is the canonical certificate. A mixed set that fails an edge at one of its
    failed vertices is not yielded: it leaves the survivor graph of the
    smaller set without that edge, which comes earlier. No set is larger
    than n + |E|, so a larger budget stops there.
    """
    if f < 0:
        raise ValueError(f"fault budget must be non-negative, got {f}")
    yield (), ()
    verts = list(G.vertices())
    edges = G.edge_list()
    for size in range(1, min(f, len(verts) + len(edges)) + 1):
        for vs in combinations(verts, size):
            yield vs, ()
        for es in combinations(edges, size):
            yield (), es
        for nv in range(size - 1, 0, -1):
            for vs in combinations(verts, nv):
                free = [(u, v) for u, v in edges if u not in vs and v not in vs]
                for es in combinations(free, size - nv):
                    yield vs, es


def _known_cycle(found, vs, failed, bits) -> bool:
    """Does a cycle found earlier survive the failed vertices `vs` and the
    failed edge bits `failed`? Either one kept for `vs` itself, or the
    shortcut of one kept for `vs` minus a vertex w: when that cycle has at
    least 4 vertices and w's two neighbours on it are adjacent in G, their
    edge skips w. A shortcut that survives is kept for `vs` in turn."""
    for walk, _ in found.get(vs, ()):
        if not walk & failed:
            return True
    for i, w in enumerate(vs):
        for walk, order in found.get(vs[:i] + vs[i + 1:], ()):
            if len(order) < 4:
                continue
            j = order.index(w)
            a, b = order[j - 1], order[j + 1 - len(order)]
            chord = bits.get((a, b))
            if chord:
                walk += chord - bits[a, w] - bits[w, b]
                if not walk & failed:
                    found.setdefault(vs, []).append((walk, order[:j] + order[j + 1:]))
                    return True
    return False


def _rotations(path, walk, bits, adj, alive):
    """(end, end, edge bits) of every Pósa rotation of `path`, whose edge
    bits are `walk`. An edge (t, p_i) of G at the end t = p_k gives the path
    p_0..p_i, t, p_(k-1)..p_(i+1), which ends at p_0 and p_(i+1); the end
    p_0 rotates alike."""
    for p in (path, path[::-1]):
        s, t = p[0], p[-1]
        rest = adj[t] & alive & ~(1 << p[-2])
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            after = p[p.index(v) + 1]
            yield s, after, walk - bits[v, after] + bits[t, v]


def _sweep(G: Graph, f: int, node_limit: Optional[int], pairs: bool) -> HamiltonicityReport:
    """Query each fault set in canonical order: a spanning cycle (pair None),
    or with `pairs` a spanning u-v path per surviving pair. The first failure
    is the certificate and the first fault-free query gives the witness. A
    query is skipped when a walk found earlier answers it: a cycle (or its
    shortcut past one more failed vertex, see `_known_cycle`), or a path or
    Pósa rotation for the same failed vertices and pair, that avoids the
    query's failed edges. The pairs of one fault set share one colouring of
    its survivor graph."""
    witness = bits = None
    base = _masks(G)
    # cycles: failed vertices -> (edge bits, vertex order) per cycle;
    # paths: (failed vertices, pair) -> edge bits per path
    found: dict = {}
    for vs, es in fault_specs(G, f):
        failed = sum(map(bits.get, es)) if bits else 0
        queries = combinations([v for v in G.vertices() if v not in vs], 2) if pairs else (None,)
        adj = None
        for pair in queries:
            if (_known_cycle(found, vs, failed, bits) if pair is None
                    else any(not walk & failed for walk in found.get((vs, pair), ()))):
                continue
            if adj is None:
                adj, alive = _survivors(G, base, vs, es)
                classes = _colour_classes(adj, alive) if pairs else None
            budget = _Budget(node_limit, "cycle" if pair is None else "path", pair, (vs, es))
            walk = (_cycle_search(adj, alive, budget) if pair is None
                    else _path_search(adj, alive, budget, pair, classes))
            if walk is None:
                return HamiltonicityReport(False, None, (vs, es), pair)
            if witness is None and not (vs or es):
                witness = tuple(walk)
            bits = bits or _witness_bits(G)
            if pair is None:
                cycle = sum(map(bits.get, zip(walk, walk[1:] + walk[:1])))
                found.setdefault(vs, []).append((cycle, walk))
                continue
            edges = sum(map(bits.get, zip(walk, walk[1:])))
            found.setdefault((vs, pair), []).append(edges)
            for u, v, rotated in _rotations(walk, edges, bits, base, alive):
                found.setdefault((vs, (u, v) if u < v else (v, u)), []).append(rotated)
    return HamiltonicityReport(True, witness, None)


def is_f_fault_hamiltonian(G: Graph, f: int, *,
                           node_limit: Optional[int] = None) -> HamiltonicityReport:
    """True iff every fault set of size <= f leaves a spanning cycle.

    Follows the literal definition: the empty fault set is included, so a
    non-hamiltonian graph fails at zero faults regardless of how well its
    vertex-deleted subgraphs behave.
    """
    return _sweep(G, f, node_limit, pairs=False)


def is_f_fault_traceable(G: Graph, f: int, *,
                         node_limit: Optional[int] = None) -> HamiltonicityReport:
    """True iff after any fault set of size <= f, every surviving vertex pair
    is joined by a spanning path of the survivor graph."""
    return _sweep(G, f, node_limit, pairs=True)


def is_hypohamiltonian(G: Graph, *, node_limit: Optional[int] = None) -> bool:
    """No spanning cycle, yet every single-vertex deletion has one."""
    if G.order < 4:
        return False
    if find_hamiltonian_cycle(G, node_limit=node_limit) is not None:
        return False
    return all(
        find_hamiltonian_cycle(G, without_vertices=(v,), node_limit=node_limit) is not None
        for v in G.vertices()
    )

