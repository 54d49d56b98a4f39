"""Shared hypothesis strategies and small brute-force oracles for the tests."""

import math
import random
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain, combinations, permutations, product

from hypothesis import strategies as st

from wheelembed import graphs as graphs_mod
from wheelembed.bounds import wirelength_lower_bound
from wheelembed.families import build_family
from wheelembed.graphs import (Graph, build_graph, edge_key, radius_diameter,
                               single_source_distances, status_and_median)
from wheelembed.hamiltonian import (_Budget, _cycle_search, _masks, _path_search, _survivors,
                                    find_hamiltonian_cycle, find_hamiltonian_path)
from wheelembed.oracle import exact_wirelength


@st.composite
def graphs(draw, min_order=1, max_order=8):
    """Arbitrary simple graphs (possibly disconnected) on 1..max_order vertices."""
    n = draw(st.integers(min_order, max_order))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return build_graph(n, edges, f"random-{n}")


@st.composite
def connected_graphs(draw, min_order=2, max_order=8):
    """Connected graphs: a random spanning path plus arbitrary extra edges."""
    n = draw(st.integers(min_order, max_order))
    spine = draw(st.permutations(range(1, n + 1)))
    edges = {tuple(sorted(p)) for p in zip(spine, spine[1:])}
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    edges.update(p for i, p in enumerate(pairs) if mask >> i & 1)
    return build_graph(n, sorted(edges), f"random-connected-{n}")


@st.composite
def sparse_graphs(draw, min_order=1, max_order=14, max_degree=3):
    """Graphs of maximum degree `max_degree`, possibly disconnected: an
    optional spanning path or cycle in random vertex order, then drawn
    pairs, each kept while both its ends have room."""
    n = draw(st.integers(min_order, max_order))
    spine = draw(st.permutations(range(1, n + 1)))
    closing = spine[:1] if draw(st.booleans()) else []
    wanted = list(zip(spine, spine[1:] + closing)) if draw(st.booleans()) else []
    pairs = list(combinations(range(1, n + 1), 2))
    if pairs:
        wanted += draw(st.lists(st.sampled_from(pairs), max_size=n * max_degree // 2))
    degree, edges = [0] * (n + 1), set()
    for u, v in wanted:
        key = edge_key(u, v)
        if u != v and key not in edges and degree[u] < max_degree and degree[v] < max_degree:
            edges.add(key)
            degree[u] += 1
            degree[v] += 1
    return build_graph(n, sorted(edges), f"random-sparse-{n}")


@contextmanager
def shallow_recursion_limit(headroom: int = 30):
    """Lower the interpreter's recursion limit to `headroom` frames above the
    current stack depth inside the block, so that code recursing once per
    vertex, edge or hop of a larger input fails there; restored on exit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def brute_distances(G: Graph) -> dict[tuple[int, int], float]:
    """Floyd-Warshall distances, an independent check on the BFS tables."""
    inf = float("inf")
    dist = {(u, v): (0 if u == v else inf) for u in G.vertices() for v in G.vertices()}
    for u, v in G.edges:
        dist[(u, v)] = dist[(v, u)] = 1
    for k in G.vertices():
        for i in G.vertices():
            for j in G.vertices():
                through = dist[(i, k)] + dist[(k, j)]
                if through < dist[(i, j)]:
                    dist[(i, j)] = through
    return dist


def brute_lex_route(G: Graph, s: int, t: int):
    """Lexicographically least shortest s-t path of G, or None: the first of
    all vertex sequences, by length and then in lexicographic order, whose
    hops are edges of G."""
    if s == t:
        return (s,)
    others = [v for v in G.vertices() if v not in (s, t)]
    for inner in range(len(others) + 1):
        for middle in permutations(others, inner):
            seq = (s, *middle, t)
            if all(G.has_edge(a, b) for a, b in zip(seq, seq[1:])):
                return seq
    return None


def reference_routes(guest: Graph, host: Graph, vmap) -> dict:
    """Lex-least shortest routes for the guest edges in `edge_list()` order,
    by descent over the Floyd-Warshall distances: every shortest s-t path
    has d(s, t) hops, so the lex-least one steps each time to the least
    neighbour one hop closer to t. The first edge with an image outside the
    host or no host path raises, source image checked before target image."""
    dist, routes = brute_distances(host), {}
    for u, v in guest.edge_list():
        s, t = vmap[u], vmap[v]
        for x in (s, t):
            if not 1 <= x <= host.order:
                raise ValueError(f"vertex {x} outside 1..{host.order}")
        if dist[s, t] == math.inf:
            raise ValueError(f"host has no path between {s} and {t}")
        route = [s]
        while route[-1] != t:
            x = route[-1]
            route.append(next(w for w in host.vertices()
                              if host.has_edge(x, w) and dist[w, t] == dist[x, t] - 1))
        routes[u, v] = tuple(route)
    return routes


def windmill_four_range_routes(n: int) -> dict:
    """The literal four-range routes of the order-2**n windmill in
    G(2**n; +-{1, 2**(n-2)}), one tuple per guest edge: spokes clockwise,
    anticlockwise, or through a hub chord and then along the outer cycle,
    and every outer edge on its own host edge."""
    size, quarter = 2 ** n, 2 ** (n - 2)
    routes = {}
    for i in range(2, size + 1):
        if i <= quarter + 1:
            routes[(1, i)] = tuple(range(1, i + 1))
        elif i >= 3 * quarter + 1:
            routes[(1, i)] = (1,) + tuple(range(size, i - 1, -1))
        elif i <= 2 * quarter + 1:
            routes[(1, i)] = (1,) + tuple(range(quarter + 1, i + 1))
        else:
            routes[(1, i)] = (1,) + tuple(range(3 * quarter + 1, i - 1, -1))
    for i in range(2, size - 1, 2):
        routes[(i, i + 1)] = (i, i + 1)
    return routes


def reference_is_connected(G: Graph) -> bool:
    """Connectivity by one BFS from vertex 1 over neighbour sets read off
    the edges, the reference for the union-find `is_connected`."""
    nbrs = {v: set() for v in G.vertices()}
    for u, v in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen, queue = {1}, [1]
    for x in queue:
        for w in nbrs[x] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == G.order


def record_bfs(monkeypatch) -> list[tuple[Graph, int]]:
    """Wrap the BFS kernel in `graphs`, whose all-pairs rows the oracle
    reads; the returned list collects (graph, source) per run.

    The graphs stay referenced, so `id` tells distinct instances apart."""
    runs: list[tuple[Graph, int]] = []
    kernel = graphs_mod.single_source_distances

    def recording(G, source):
        runs.append((G, source))
        return kernel(G, source)

    monkeypatch.setattr(graphs_mod, "single_source_distances", recording)
    return runs


def hop_congestion(emb) -> dict[tuple[int, int], int]:
    """Per-host-edge congestion counted hop by hop, the reference for `evaluate`."""
    cong = {e: 0 for e in emb.host.edges}
    for route in emb.routes.values():
        for a, b in zip(route, route[1:]):
            cong[edge_key(a, b)] += 1
    return cong


def reference_hop_loads(host: Graph, routes) -> dict | None:
    """Per-host-edge loads of the `routes` mapping from one Counter of all
    their hops, the reference for the route forest's loads; None when some
    hop is not a host edge."""
    hops = Counter(chain.from_iterable(zip(route, route[1:]) for route in routes.values()))
    loads = {e: 0 for e in host.edges}
    for hop, count in hops.items():
        key = hop if hop in loads else hop[::-1]
        if key not in loads:
            return None
        loads[key] += count
    return loads


def reference_walk_forest(host: Graph, forest):
    """`embedding._walk_forest` with one list of children per node, the
    reference for its flat first-child and next-sibling links: per node the
    first vertex, depth, first non-edge hop and repeat flag, then the loads."""
    parent, vertex, count = forest.parent, forest.vertex, len(forest.vertex)
    weight, children = [0] * (count + 1), [[] for _ in range(count + 1)]
    for node in forest.ends.values():
        weight[node] += 1
    for i in range(count - 1, -1, -1):
        weight[parent[i]] += weight[i]
        children[parent[i]].append(i)
    loads, todo = {e: 0 for e in host.edges}, children[-1]
    first, depth, non_edge, repeats = vertex[:], [0] * count, [None] * count, [False] * count
    path, held = [], {}
    while todo:
        i = todo.pop()
        p, x = parent[i], vertex[i]
        while path and path[-1] != p:
            j = path.pop()
            if held[vertex[j]] == j:
                del held[vertex[j]]
        if p >= 0:
            a = vertex[p]
            first[i], depth[i], non_edge[i] = first[p], depth[p] + 1, non_edge[p]
            key = edge_key(a, x)
            if key in loads:
                loads[key] += weight[i]
            elif non_edge[i] is None:
                non_edge[i] = (a, x)
            repeats[i] = repeats[p] or x in held
        held.setdefault(x, i)
        path.append(i)
        todo += children[i]
    return first, depth, non_edge, repeats, loads


def reference_route_checks(host: Graph, vmap, routes):
    """Loads of canonical `routes` by the reference fold, or the ValueError
    text of the first defect in route order: within a route the empty,
    join, repeated-vertex and non-edge checks, in that order."""
    loads = reference_hop_loads(host, routes)
    for (u, v), route in routes.items():
        if not route:
            return f"route for guest edge ({u}, {v}) is empty"
        if route[0] != vmap[u] or route[-1] != vmap[v]:
            return f"route for guest edge ({u}, {v}) does not join its images"
        if len(set(route)) != len(route):
            return f"route for guest edge ({u}, {v}) repeats a vertex"
        for a, b in zip(route, route[1:]):
            if not host.has_edge(a, b):
                return f"route for guest edge ({u}, {v}) uses the non-edge ({a}, {b})"
    return loads


def brute_spanning_paths(G: Graph, without_vertices=(), without_edges=()):
    """Every spanning path of G minus the faults as a vertex sequence, in
    lexicographic order: all permutations of the surviving vertices, filtered."""
    dead_v = set(without_vertices)
    dead_e = {edge_key(u, v) for u, v in without_edges}
    alive = [v for v in G.vertices() if v not in dead_v]
    for seq in permutations(alive):
        if seq and all(G.has_edge(a, b) and edge_key(a, b) not in dead_e
                       for a, b in zip(seq, seq[1:])):
            yield seq


def brute_running_minima(guest: Graph, host: Graph, minimax: bool):
    """Walk all bijections in lexicographic order; return the number of strict
    running minima of the dilation (minimax) or wirelength, the optimum and
    the first bijection attaining it."""
    dist = brute_distances(host)
    count, best, witness = 0, float("inf"), None
    for images in permutations(host.vertices()):
        lengths = [dist[(images[u - 1], images[v - 1])] for u, v in guest.edges]
        value = max(lengths, default=0) if minimax else sum(lengths)
        if value < best:
            count, best, witness = count + 1, value, images
    return count, best, witness


def brute_shortest_routes(G: Graph, a: int, b: int) -> list[tuple[int, ...]]:
    """Every shortest a-b path of G as a vertex sequence, in lexicographic
    order: all permutations of the other vertices at the Floyd-Warshall
    distance, filtered."""
    length = brute_distances(G)[(a, b)]
    others = [v for v in G.vertices() if v not in (a, b)]
    seqs = [(a, *middle, b) for middle in permutations(others, length - 1)]
    return sorted(seq for seq in seqs if all(G.has_edge(x, y) for x, y in zip(seq, seq[1:])))


def brute_min_congestion(choices) -> int:
    """The least max edge load over every combination of one route (a
    collection of host edges) per entry of `choices`, by itertools.product."""
    return min(max(Counter(chain.from_iterable(combo)).values(), default=0)
               for combo in product(*choices))


def brute_congestion(guest: Graph, host: Graph, route_cap: int):
    """Walk all bijections in lexicographic order; route each guest edge on a
    shortest host path from its smaller image to its larger one, trying every
    combination, or only each edge's lex-least path when the combinations
    exceed `route_cap`. Return the least max edge load and the first
    bijection attaining it."""
    routes = {(a, b): [{edge_key(x, y) for x, y in zip(seq, seq[1:])}
                       for seq in brute_shortest_routes(host, a, b)]
              for a, b in combinations(host.vertices(), 2)}
    best, witness = float("inf"), None
    for images in permutations(host.vertices()):
        choices = [routes[edge_key(images[u - 1], images[v - 1])] for u, v in guest.edges]
        if math.prod(len(c) for c in choices) > route_cap:
            choices = [c[:1] for c in choices]
        value = brute_min_congestion(choices)
        if value < best:
            best, witness = value, images
    return best, witness


def reference_fault_sets(G: Graph, f: int):
    """Every fault set of size <= f as (vertices, edges) tuples in canonical
    order: sizes ascending; within a size, vertex sets, then edge sets, then
    mixed sets by decreasing vertex count. A set that fails an edge at one of
    its failed vertices is skipped, because the smaller set without that edge
    leaves the same survivor graph and comes earlier."""
    verts, edges = list(G.vertices()), G.edge_list()
    for size in range(f + 1):
        splits = [(size, 0), (0, size)] if size else [(0, 0)]
        splits += [(nv, size - nv) for nv in range(size - 1, 0, -1)]
        for nv, ne in splits:
            for vs in combinations(verts, nv):
                for es in combinations(edges, ne):
                    if not any(u in vs or v in vs for u, v in es):
                        yield vs, es


def reference_fault_sweep(G: Graph, f: int, traceable: bool):
    """(verdict, witness, failing fault, failing pair) of the f-fault
    hamiltonian or traceable check, one plain search per fault set and pair."""
    witness = None
    for vs, es in reference_fault_sets(G, f):
        faults = {"without_vertices": vs, "without_edges": es}
        if not traceable:
            found = find_hamiltonian_cycle(G, **faults)
            if found is None:
                return False, None, (vs, es), None
            if not (vs or es):
                witness = found
            continue
        for pair in combinations([v for v in G.vertices() if v not in vs], 2):
            found = find_hamiltonian_path(G, pair, **faults)
            if found is None:
                return False, None, (vs, es), pair
            if witness is None and not (vs or es):
                witness = found
    return True, witness, None, None


def _reference_feasible(adj, unvisited, ends, cur) -> bool:
    """The pruning test in full: the degree of every unvisited vertex (two
    neighbors among the unvisited vertices and cur, one for a single vertex
    of `ends`), then a flood fill from cur over every unvisited vertex."""
    weak = False
    for v in range(unvisited.bit_length()):
        if unvisited >> v & 1:
            count = (adj[v] & (unvisited | 1 << cur)).bit_count()
            if count < 2:
                if count == 0 or weak or not ends >> v & 1:
                    return False
                weak = True
    rest, frontier = unvisited, adj[cur] & unvisited
    while frontier:
        rest ^= frontier
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & rest
    return not rest


def _reference_parity_allows(adj, alive, ends=None, cycle=False) -> bool:
    """The colour-class rule, stated on its own. Only a connected bipartite
    survivor graph is ruled on: a spanning cycle needs classes of equal size,
    a spanning path classes whose sizes differ by at most one, and fixed ends
    in opposite classes (equal sizes) or both in the larger class."""
    vertices = [v for v in range(alive.bit_length()) if alive >> v & 1]
    if not vertices:
        return True
    colour, queue = {vertices[0]: 0}, [vertices[0]]
    for x in queue:
        for w in vertices:
            if adj[x] >> w & 1:
                if w not in colour:
                    colour[w] = 1 - colour[x]
                    queue.append(w)
                elif colour[w] == colour[x]:
                    return True  # an odd cycle: not bipartite
    if len(colour) < len(vertices):
        return True  # disconnected
    sizes = [list(colour.values()).count(c) for c in (0, 1)]
    gap = abs(sizes[0] - sizes[1])
    if cycle:
        return gap == 0
    if gap > 1 or ends is None:
        return gap <= 1
    s, t = ends
    if gap == 0:
        return colour[s] != colour[t]
    larger = 0 if sizes[0] > sizes[1] else 1
    return colour[s] == colour[t] == larger


def _reference_extend(adj, path, unvisited, ends, budget) -> bool:
    """Extend `path` to a spanning path over `unvisited` that ends on a
    vertex of `ends`; every node checks the degree of every unvisited
    vertex. When one vertex of `ends` is left unvisited it is placed last."""
    budget.spend()
    cur = path[-1]
    if not unvisited:
        return ends >> cur & 1 == 1
    left = ends & unvisited
    if not left or not _reference_feasible(adj, unvisited, ends, cur):
        return False
    children = adj[cur] & unvisited
    if left.bit_count() == 1 and left != unvisited:
        children &= ~left
    for w in range(children.bit_length()):
        if children >> w & 1:
            path.append(w)
            if _reference_extend(adj, path, unvisited ^ 1 << w, ends, budget):
                return True
            path.pop()
    return False


def reference_cycle_search(adj, alive, budget):
    """The recursive form of the stack-based cycle search: same witness and
    the same nodes spent, one interpreter frame per path vertex. Order,
    degree and parity are ruled on before the search, at no cost. A cycle
    is its smallest vertex s, a neighbour a, and a path from a that ends on
    a neighbour of s above a; every node checks every degree."""
    if alive.bit_count() < 3:
        return None
    for v in range(alive.bit_length()):
        if alive >> v & 1 and (adj[v] & alive).bit_count() < 2:
            return None  # rows keep the bits of failed vertices
    if not _reference_parity_allows(adj, alive, cycle=True):
        return None
    s = (alive & -alive).bit_length() - 1
    neighbours = [a for a in range(alive.bit_length()) if alive >> a & 1 and adj[s] >> a & 1]
    for a in neighbours:
        ends = sum(1 << b for b in neighbours if b > a)
        rest = alive & ~(1 << s | 1 << a)
        path = [s, a]
        if ends and _reference_extend(adj, path, rest, ends, budget):
            return path
    return None


def reference_path_search(adj, alive, budget, ends=None):
    """The recursive form of the stack-based path search; order and ends
    are ruled on before the search, at no cost. A free path from s may end
    on any vertex above s that parity allows, and every node checks every
    degree; a start with no such end spends nothing."""
    if not alive:
        return None
    survivors = [v for v in range(alive.bit_length()) if alive >> v & 1]
    if ends is None:
        if len(survivors) == 1:
            return survivors
        pairs = [(s, [t for t in survivors if t > s]) for s in survivors]
    else:
        s, t = ends
        if s == t or not all(v >= 0 and alive >> v & 1 for v in ends):
            raise ValueError(f"path endpoints must be distinct surviving vertices, got {ends}")
        pairs = [(s, [t])]
    for s, targets in pairs:
        mask = sum(1 << t for t in targets if _reference_parity_allows(adj, alive, (s, t)))
        rest = alive ^ 1 << s
        path = [s]
        if mask and _reference_extend(adj, path, rest, mask, budget):
            return path
    return None


def nodes_spent(search, adj, alive, *extra):
    """(walk, nodes spent) of one search of a survivor graph, stack-based or
    reference, under a budget far above what it needs."""
    budget = _Budget(10 ** 6, "reference")
    return search(adj, alive, budget, *extra), budget.limit - budget.remaining


def reference_circulant(n: int, jumps) -> Graph:
    """The set-based circulant builder: every vertex meets every jump, the
    canonical pairs are deduped in a set and sorted before `build_graph`."""
    jump_set = sorted(set(jumps))
    edges = {edge_key(v + 1, (v + s) % n + 1) for v in range(n) for s in jump_set}
    tag = "-".join(str(s) for s in jump_set)
    return build_graph(n, sorted(edges), f"circulant-{n}-{tag}")


def reference_generalized_petersen(n: int, m: int) -> Graph:
    """The set-based generalized Petersen builder: outer cycle, spokes and
    skip-m inner chords, canonicalised in a set and sorted."""
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(i, n + i) for i in range(1, n + 1)]
    edges += [(n + i, n + (i - 1 + m) % n + 1) for i in range(1, n + 1)]
    return build_graph(2 * n, sorted({edge_key(u, v) for u, v in edges}), f"petersen-{n}-{m}")


def reference_torus(dims) -> Graph:
    """The set-based torus builder: row-major ids, one step forward on each
    axis from every vertex, canonicalised in a set and sorted."""
    ids = {c: v for v, c in enumerate(product(*map(range, dims)), 1)}
    edges = {edge_key(v, ids[c[:axis] + ((c[axis] + 1) % d,) + c[axis + 1:]])
             for c, v in ids.items() for axis, d in enumerate(dims)}
    return build_graph(len(ids), sorted(edges), f"torus-{'x'.join(map(str, dims))}")


def reference_prior_neighbors(guest: Graph) -> list[list[int]]:
    """prior[k] lists the guest neighbors of k below k, ascending, read off
    the edges one at a time."""
    prior = [[] for _ in range(guest.order + 1)]
    for u, v in guest.edges:
        prior[max(u, v)].append(min(u, v))
    return [sorted(lst) for lst in prior]


def reference_pending(guest: Graph) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """pending[k] lists (g, m) for each g <= k with m > 0 neighbors after k,
    and both_free[k] counts the edges with both ends after k, each counted
    afresh for every k."""
    n = guest.order
    pending = [[(g, m) for g in range(1, k + 1)
                if (m := sum(u > k for u in guest.adjacency[g]))] for k in range(n + 1)]
    both_free = [sum(min(e) > k for e in guest.edges) for k in range(n + 1)]
    return pending, both_free


def labelled_graphs(max_order: int):
    """Every labelled graph on 1..max_order vertices, one per edge subset."""
    for n in range(1, max_order + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def reference_bfs_parents(G: Graph, source: int) -> dict[int, int]:
    """Each vertex reached from `source` mapped to its parent (the source to
    0), by a search grown one whole layer at a time over neighbour lists
    sorted from the edges; the reference for `graphs.bfs_parents`."""
    nbrs = {v: sorted(w for e in G.edges if v in e for w in e if w != v) for v in G.vertices()}
    parents, layer = {source: 0}, [source]
    while layer:
        reached = []
        for x in layer:
            for w in nbrs[x]:
                if w not in parents:
                    parents[w] = x
                    reached.append(w)
        layer = reached
    return parents


def canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The least sorted edge list of the graph on 1..n over every vertex
    order that lists the colour classes of colour refinement in colour order
    and permutes vertices only within a class. Refinement starts from one
    colour and ranks each vertex's (colour, sorted neighbour colours) until
    no class splits; isomorphic graphs get the same classes in the same
    order, so they get the same least edge list."""
    nbrs = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colour, classes = [0] * (n + 1), 1
    while True:
        keys = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(n + 1)]
        rank = {key: r for r, key in enumerate(sorted(set(keys[1:])))}
        colour = [0] + [rank[key] for key in keys[1:]]
        if len(rank) == classes:
            break
        classes = len(rank)
    cells = [[v for v in range(1, n + 1) if colour[v] == c] for c in range(classes)]
    best = None
    for orders in product(*map(permutations, cells)):
        place = [0] * (n + 1)
        for rank, v in enumerate(chain.from_iterable(orders), 1):
            place[v] = rank
        candidate = tuple(sorted(edge_key(place[u], place[v]) for u, v in edges))
        if best is None or candidate < best:
            best = candidate
    return best


def connected_census(max_order: int):
    """Every connected graph of order n up to isomorphism, one list per n =
    1..max_order, each graph in its canonical labelling. Order n extends each
    graph of order n - 1 by a vertex n joined to each nonempty subset of its
    vertices: removing a leaf of a spanning tree leaves a connected graph, so
    every connected graph of order n arises."""
    level = [build_graph(1, [], "census-1")]
    yield level
    for n in range(2, max_order + 1):
        forms = set()
        for G in level:
            base = G.edge_list()
            for mask in range(1, 1 << n - 1):
                joins = [(v, n) for v in range(1, n) if mask >> v - 1 & 1]
                forms.add(canonical_edges(n, base + joins))
        level = [build_graph(n, form, f"census-{n}") for form in sorted(forms)]
        yield level


def relabelled(G: Graph, rng: random.Random) -> Graph:
    """G with its vertices renamed by one random permutation drawn from `rng`."""
    images = rng.sample(range(1, G.order + 1), G.order)
    return build_graph(G.order, [(images[u - 1], images[v - 1]) for u, v in G.edges], G.name)


def distance_column(G: Graph):
    """The census's distance column: None when the ball pass agrees with the
    BFS rows on G, else a line naming G and both answers. The radius and
    diameter must be the least and largest row maximum, and the medians and
    their status the vertices of least row sum and that sum. Failures are
    returned, not asserted, so the column also holds under python -O."""
    rows = [single_source_distances(G, v) for v in G.vertices()]
    eccs, statuses = [max(row) for row in rows], [sum(row) for row in rows]
    best = min(statuses)
    want = ((min(eccs), max(eccs)),
            (tuple(v for v, status in zip(G.vertices(), statuses) if status == best), best))
    got = (radius_diameter(G), status_and_median(G))
    return None if got == want else f"{G.edge_list()}: ball pass {got}, BFS rows {want}"


def hamiltonian_column(G: Graph):
    """The census's hamiltonian column: None when `find_hamiltonian_cycle`,
    `find_hamiltonian_path` and `find_hamiltonian_path(G, (1, n))` give the
    first walks of one enumeration of vertex orders and each of their
    searches spends the nodes of its reference, which checks every degree at
    every node; else a line naming G and both answers. `brute_spanning_paths`
    yields the spanning paths in lexicographic order, so the first is the
    least spanning path, the first from 1 to n the least such path, and the
    first from 1 that closes, on at least three vertices, the least cycle
    from 1. Failures are returned, not asserted, so the column also holds
    under python -O."""
    n = G.order
    cycle = path = ends = None
    for seq in brute_spanning_paths(G):
        path = path or seq
        if seq[0] > 1:
            break  # the cycle and the 1-n path both start at 1
        if n >= 3 and G.has_edge(seq[-1], 1):
            cycle = cycle or seq
        if n >= 2 and seq[-1] == n:
            ends = ends or seq
    want = (cycle, path, ends)
    got = (find_hamiltonian_cycle(G), find_hamiltonian_path(G),
           find_hamiltonian_path(G, (1, n)) if n >= 2 else None)
    if got != want:
        return f"{G.edge_list()}: search {got}, enumeration {want}"
    adj, alive = _survivors(G, _masks(G))
    queries = [("cycle", _cycle_search, reference_cycle_search, ()),
               ("path", _path_search, reference_path_search, ())]
    queries += [("(1, n) path", _path_search, reference_path_search, ((1, n),))] * (n >= 2)
    for query, search, reference, extra in queries:
        spent = [nodes_spent(s, adj, alive, *extra)[1] for s in (search, reference)]
        if spent[0] != spent[1]:
            return f"{G.edge_list()}: {query} search spent {spent[0]} nodes, reference {spent[1]}"
    return None


def hub_tour_wirelength(kind: str, H: Graph) -> int:
    """The least wirelength of the wheel or fan (`kind`) of H's order on H,
    as a tour problem: the hub on u costs status(u) for its spokes, and the
    rim is a tour of V - u under the host distances, closed for a wheel and
    open for a fan. A Held-Karp bitmask DP gives the least tour: cost[mask][j]
    is the least walk through the rim vertices of `mask` that ends at the
    j-th, started at the first one (closed) or at any one (open)."""
    dist = brute_distances(H)
    best = math.inf
    for u in H.vertices():
        rim = [v for v in H.vertices() if v != u]
        m = len(rim)
        cost = [[math.inf] * m for _ in range(1 << m)]
        for j in range(1 if kind == "wheel" else m):
            cost[1 << j][j] = 0
        for mask in range(1, 1 << m):
            for j, here in enumerate(cost[mask]):
                for k in range(m):
                    if here < math.inf and not mask >> k & 1:
                        step = here + dist[rim[j], rim[k]]
                        cost[mask | 1 << k][k] = min(cost[mask | 1 << k][k], step)
        closing = [dist[v, rim[0]] if kind == "wheel" else 0 for v in rim]
        tour = min(c + back for c, back in zip(cost[-1], closing))
        best = min(best, sum(dist[u, v] for v in rim) + tour)
    return best


def wirelength_column(H: Graph):
    """The census's wirelength column: None when, for the wheel and the fan
    of H's order, `exact_wirelength` equals `hub_tour_wirelength`, the
    wirelength bound does not exceed that optimum and is sharp exactly when
    it equals it; else a line naming H, the kind and the values."""
    for kind in ("wheel", "fan"):
        want = hub_tour_wirelength(kind, H)
        optimum = exact_wirelength(build_family(kind, [H.order]), H).optimum
        report = wirelength_lower_bound(kind, H)
        if optimum != want or report.bound > want or report.sharp != (want == report.bound):
            return (f"{H.edge_list()} {kind}: oracle {optimum}, tour DP {want}, "
                    f"bound {report.bound}, sharp {report.sharp}")
    return None
