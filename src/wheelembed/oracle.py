"""Exhaustive search for the exact dilation, congestion, and wirelength minima.

Ground truth for small instances: the minimum runs over all vertex bijections,
with edges routed on shortest host paths. For dilation and wirelength the
shortest-path restriction is lossless; for congestion it shrinks the routing
space, which the result's `exact` flag and notes record instead of hiding.
Branch-and-bound pruning never changes the optimum, and the reported witness
is always the lexicographically least optimal bijection.

No symmetry is assumed by default. A caller who knows the host's automorphism
orbits may pass them as `host_orbits` to pin the first guest vertex to one
representative per orbit; correctness is then the caller's responsibility,
and the witness is the lexicographically least within the reduced space.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations

from .graphs import Graph, edge_key, is_connected

DEFAULT_LIMIT = 9
DEFAULT_ROUTE_CAP = 10 ** 6


@dataclass(frozen=True)
class OracleResult:
    """Optimum value, lexicographically least optimal bijection, search size."""

    metric: str
    optimum: int
    witness_vmap: tuple[int, ...]
    search_space: int
    exact: bool
    notes: str = ""


def _check_instance(guest: Graph, host: Graph, limit: int) -> list[tuple[int, ...]]:
    """Validate the instance; dist[a][b] is the host distance (row 0 unused)."""
    if guest.order != host.order:
        raise ValueError(f"guest and host orders differ: {guest.order} vs {host.order}")
    if guest.order > limit:
        raise ValueError(f"order {guest.order} exceeds the oracle limit {limit}")
    if not is_connected(host):
        raise ValueError("oracle requires a connected host")
    return [()] + [host.distance_row(v) for v in host.vertices()]


def _prior_neighbors(guest: Graph) -> list[list[int]]:
    """prior[k] lists the guest neighbors of k that are assigned before k."""
    prior: list[list[int]] = [[] for _ in range(guest.order + 1)]
    for u, v in guest.edges:
        prior[max(u, v)].append(min(u, v))
    for lst in prior:
        lst.sort()
    return prior


def _search_minimax(args):
    """Min over bijections of the max edge distance; DFS in lexicographic order."""
    n, prior, dist, first_images, prune = args
    best = math.inf
    witness = None
    leaves = 0
    images = [0] * (n + 1)
    used = [False] * (n + 1)

    def rec(k: int, cur: int) -> None:
        nonlocal best, witness, leaves
        if k > n:
            leaves += 1
            if cur < best:
                best = cur
                witness = tuple(images[1:])
            return
        candidates = first_images if k == 1 else range(1, n + 1)
        for h in candidates:
            if used[h]:
                continue
            val = cur
            for j in prior[k]:
                d = dist[h][images[j]]
                if d > val:
                    val = d
            if prune and val >= best:
                continue
            images[k] = h
            used[h] = True
            rec(k + 1, val)
            used[h] = False
        images[k] = 0

    rec(1, 0)
    return best, witness, leaves


def _search_minsum(args):
    """Min over bijections of the summed edge distances, with an admissible
    remaining-edges lower bound (each unrouted edge costs at least 1)."""
    n, prior, dist, rest_after, first_images, prune = args
    best = math.inf
    witness = None
    leaves = 0
    images = [0] * (n + 1)
    used = [False] * (n + 1)

    def rec(k: int, cur: int) -> None:
        nonlocal best, witness, leaves
        if k > n:
            leaves += 1
            if cur < best:
                best = cur
                witness = tuple(images[1:])
            return
        candidates = first_images if k == 1 else range(1, n + 1)
        for h in candidates:
            if used[h]:
                continue
            val = cur
            for j in prior[k]:
                val += dist[h][images[j]]
            if prune and val + rest_after[k] >= best:
                continue
            images[k] = h
            used[h] = True
            rec(k + 1, val)
            used[h] = False
        images[k] = 0

    rec(1, 0)
    return best, witness, leaves


def _reduce(parts):
    best = math.inf
    witness = None
    leaves = 0
    for value, vmap, count in parts:
        leaves += count
        if vmap is not None and (value < best or (value == best and (witness is None or vmap < witness))):
            best = value
            witness = vmap
    return best, witness, leaves


def _first_candidates(n: int, host_orbits) -> list[int]:
    """Images allowed for guest vertex 1: all, or one representative per
    externally supplied host-automorphism orbit (caller vouches for them)."""
    if host_orbits is None:
        return list(range(1, n + 1))
    seen: set[int] = set()
    reps = []
    for orbit in host_orbits:
        members = set(orbit)
        if not members:
            raise ValueError("orbits must be non-empty")
        if members & seen:
            raise ValueError("orbits must be disjoint")
        seen |= members
        reps.append(min(members))
    if seen != set(range(1, n + 1)):
        raise ValueError(f"orbits must partition 1..{n}")
    return sorted(reps)


def _run_partitioned(worker, make_args, firsts: list[int], jobs: int):
    if jobs <= 1:
        return worker(make_args(firsts))
    partitions = [make_args([h]) for h in firsts]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return _reduce(pool.map(worker, partitions))


def exact_dilation(guest: Graph, host: Graph, limit: int = DEFAULT_LIMIT, *,
                   prune: bool = True, jobs: int = 1,
                   host_orbits=None) -> OracleResult:
    """Exact dil(guest, host): shortest routing makes per-edge dilation equal
    to the host distance of the images, so bijections alone decide the value."""
    dist = _check_instance(guest, host, limit)
    prior = _prior_neighbors(guest)
    n = guest.order
    firsts = _first_candidates(n, host_orbits)
    best, witness, leaves = _run_partitioned(
        _search_minimax, lambda hs: (n, prior, dist, hs, prune), firsts, jobs)
    return OracleResult("dilation", int(best), witness, leaves, exact=True)


def exact_wirelength(guest: Graph, host: Graph, limit: int = DEFAULT_LIMIT, *,
                     prune: bool = True, jobs: int = 1,
                     host_orbits=None) -> OracleResult:
    """Exact WL(guest, host): minimum over bijections of the summed host
    distances between adjacent images."""
    dist = _check_instance(guest, host, limit)
    prior = _prior_neighbors(guest)
    n = guest.order
    firsts = _first_candidates(n, host_orbits)
    # rest_after[k] = guest edges still missing an endpoint once 1..k are placed
    rest_after = [len(guest.edges)] * (n + 1)
    placed = 0
    for k in range(1, n + 1):
        placed += len(prior[k])
        rest_after[k] = len(guest.edges) - placed
    best, witness, leaves = _run_partitioned(
        _search_minsum, lambda hs: (n, prior, dist, rest_after, hs, prune), firsts, jobs)
    return OracleResult("wirelength", int(best), witness, leaves, exact=True)


def _all_shortest_routes(host: Graph, a: int, b: int) -> list[tuple[tuple[int, int], ...]]:
    """Every shortest a-b path as a tuple of canonical host edges, in
    lexicographic vertex-sequence order."""
    dist_b = host.distance_row(b)
    routes = []

    def walk(cur, edges_so_far):
        if cur == b:
            routes.append(tuple(edges_so_far))
            return
        for w in host.adjacency[cur]:
            if dist_b[w] == dist_b[cur] - 1:
                edges_so_far.append(edge_key(cur, w))
                walk(w, edges_so_far)
                edges_so_far.pop()

    walk(a, [])
    return routes


def _min_congestion_for_choices(choices, upper: float):
    """Min over route combinations of the max edge load, considering only
    combinations strictly below `upper`; None when there are none."""
    order = sorted(range(len(choices)), key=lambda i: len(choices[i]))
    loads: dict[tuple[int, int], int] = {}
    best = upper

    def place(route, delta):
        top = 0
        for e in route:
            loads[e] = loads.get(e, 0) + delta
            if loads[e] > top:
                top = loads[e]
        return top

    def rec(idx: int, cur_max: int) -> None:
        nonlocal best
        if cur_max >= best:
            return
        if idx == len(order):
            best = cur_max
            return
        for route in choices[order[idx]]:
            top = place(route, 1)
            rec(idx + 1, max(cur_max, top))
            place(route, -1)

    rec(0, 0)
    return int(best) if best < upper else None


def _congestion_partition(args):
    (n, guest_edges, guest_degrees, host_degrees, host_edge_count, dist,
     route_table, first_images, route_cap, prune) = args
    best = math.inf
    witness = None
    evaluated = 0
    capped = False

    def perm_iter():
        for first in first_images:
            rest = [v for v in range(1, n + 1) if v != first]
            for tail in permutations(rest):
                yield (first,) + tail

    for images in perm_iter():
        f = (0,) + images  # f[g] = image of guest vertex g
        if prune and best < math.inf:
            # both bounds hold for any routing of this bijection
            hub_bound = max(-(guest_degrees[g] // -host_degrees[f[g]])
                            for g in range(1, n + 1))
            total = sum(dist[f[u]][f[v]] for u, v in guest_edges)
            if max(hub_bound, -(total // -host_edge_count)) >= best:
                continue
        choices = [route_table[edge_key(f[u], f[v])] for u, v in guest_edges]
        product = 1
        for c in choices:
            product *= len(c)
        evaluated += 1
        if product > route_cap:
            capped = True
            loads: dict[tuple[int, int], int] = {}
            for c in choices:  # canonical routing only: first (lex-least) route
                for e in c[0]:
                    loads[e] = loads.get(e, 0) + 1
            value = max(loads.values(), default=0)
            if value < best:
                best = value
                witness = images
            continue
        upper = best if prune else math.inf
        value = _min_congestion_for_choices(choices, upper)
        if value is not None and value < best:
            best = value
            witness = images
    return best, witness, evaluated, capped


def _is_tree(G: Graph) -> bool:
    return len(G.edges) == G.order - 1 and is_connected(G)


def exact_congestion(guest: Graph, host: Graph, limit: int = DEFAULT_LIMIT, *,
                     route_cap: int = DEFAULT_ROUTE_CAP, prune: bool = True,
                     jobs: int = 1, host_orbits=None) -> OracleResult:
    """Minimum over bijections and per-edge shortest-path choices of the max
    edge congestion.

    On tree hosts every path is the unique shortest path, so the value is the
    unrestricted optimum and `exact` is True. On other hosts the routing space
    is restricted to shortest paths (and per-bijection route products above
    `route_cap` fall back to the canonical routing), so the result is an upper
    bound on the unrestricted optimum and `exact` is False.
    """
    dist = _check_instance(guest, host, limit)
    n = guest.order
    guest_edges = guest.edge_list()
    route_table = {}
    for a in host.vertices():
        for b in range(a + 1, host.order + 1):
            route_table[(a, b)] = _all_shortest_routes(host, a, b)
    guest_degrees = [0] + [guest.degree(v) for v in guest.vertices()]
    host_degrees = [0] + [host.degree(v) for v in host.vertices()]
    firsts = _first_candidates(n, host_orbits)

    def make_args(hs):
        return (n, guest_edges, guest_degrees, host_degrees, len(host.edges),
                dist, route_table, hs, route_cap, prune)

    if jobs <= 1:
        best, witness, evaluated, capped = _congestion_partition(make_args(firsts))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_congestion_partition, [make_args([h]) for h in firsts]))
        best, witness, evaluated = _reduce([p[:3] for p in parts])
        capped = any(p[3] for p in parts)

    tree_host = _is_tree(host)
    exact = tree_host and not capped
    notes = []
    if not tree_host:
        notes.append("routing space restricted to shortest paths (host is not a tree); "
                     "value is an upper bound on the unrestricted optimum")
    if capped:
        notes.append(f"route-combination cap {route_cap} exceeded for some bijections; "
                     "those used the canonical routing only")
    return OracleResult("congestion", int(best), witness, evaluated,
                        exact=exact, notes="; ".join(notes))
