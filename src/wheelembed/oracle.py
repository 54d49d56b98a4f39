"""Exhaustive search for the exact dilation, congestion, and wirelength minima.

Ground truth for small instances: the minimum runs over all vertex bijections,
with edges routed on shortest host paths. For dilation and wirelength the
shortest-path restriction is lossless; for congestion it shrinks the routing
space, which the result's `exact` flag and notes record instead of hiding.
Branch-and-bound pruning never changes the optimum, and the reported witness
is always the lexicographically least optimal bijection.

The pruning bound is an assignment bound: the unplaced neighbors of a placed
guest vertex must take distinct free host vertices, so they are charged the
nearest free distances from its image, read from per-host-vertex lists in
(distance, id) order that are built once per instance. For a wheel or fan
the hub's spokes are charged exactly the status of the hub's image, the
paper's own bound. Since the bound at a leaf is its exact value (dilation,
wirelength), the leaves reached are the strict running minima in
lexicographic order, whichever admissible bound prunes above them.
"""

from __future__ import annotations

import math

from .graphs import Graph, Record, all_pairs_distances, edge_key, require_equal_orders

DEFAULT_LIMIT = 9
DEFAULT_ROUTE_CAP = 10 ** 6


class OracleResult(Record):
    """Optimum value, lexicographically least optimal bijection, search size.

    `search_space` counts the leaves the search reached: complete bijections
    that survived pruning (each routed, for congestion). For dilation and
    wirelength these are the strict running minima in lexicographic order.
    `exact` is False when the routing space was restricted, and `notes` then
    says how. The CLI's `oracle` prints these six fields as they are.
    """

    _fields = ("metric", "optimum", "witness_vmap", "search_space", "exact", "notes")

    def __init__(self, metric: str, optimum: int, witness_vmap: tuple[int, ...],
                 search_space: int, exact: bool, notes: str = ""):
        vars(self).update(metric=metric, optimum=optimum, witness_vmap=witness_vmap,
                          search_space=search_space, exact=exact, notes=notes)


def _check_instance(guest: Graph, host: Graph, limit: int) -> list[tuple[int, ...]]:
    """Validate the instance; dist[a][b] is the host distance (row 0 unused)."""
    require_equal_orders(guest, host)
    if guest.order > limit:
        raise ValueError(f"order {guest.order} exceeds the oracle limit {limit}")
    dist = all_pairs_distances(host)
    if min(dist[1]) < 0:
        raise ValueError("oracle requires a connected host")
    return dist


def _placement_tables(guest: Graph):
    """One sweep over the placement order 1..n: prior[k] lists the guest
    neighbors of k placed before k, ascending; pending[k] lists (g, m) for
    each g <= k with m > 0 neighbors after k; both_free[k] counts the edges
    with both ends after k. after[g] counts g's neighbors still to place."""
    adjacency = guest.adjacency
    prior, pending, both_free = [[]], [[]], [len(guest.edges)]
    after = [0] * (guest.order + 1)
    for k in guest.vertices():
        prior.append([u for u in adjacency[k] if u < k])
        for u in prior[k]:
            after[u] -= 1
        after[k] = len(adjacency[k]) - len(prior[k])
        pending.append([(g, after[g]) for g in range(1, k + 1) if after[g]])
        both_free.append(both_free[-1] - after[k])
    return prior, pending, both_free


def _nearest(dist) -> list[list[tuple[int, int]]]:
    """near[h] lists (distance, vertex) for every host vertex other than h,
    in (distance, id) order."""
    n = len(dist) - 1
    return [[]] + [sorted((dist[h][v], v) for v in range(1, n + 1) if v != h)
                   for h in range(1, n + 1)]


def _search(args):
    """One branch-and-bound DFS over bijections in lexicographic order.

    Guest vertices 1..n are placed in order, each on the least free host
    image first. A placement extends the cost of the edges it closes: their
    max host distance (dilation) or their sum (wirelength, congestion). The
    subtree is skipped when an admissible lower bound reaches the best value
    so far. The bound charges the edges still open by assignment: a placed g
    with m unplaced neighbors sends them to m distinct free host vertices, so
    those edges cost at least the sum of the m smallest free distances from
    f(g) (wirelength), and at least the m-th smallest of them (dilation).
    Wirelength adds one per edge with both ends unplaced. For a wheel or fan
    this charges the hub's spokes exactly the status of its image. Congestion
    takes the larger of the running hub bound ceil(deg_G(g)/deg_H(f(g))) and
    the wirelength bound spread over |E(H)|. A leaf's value is its cost, or
    for congestion its best shortest-path routing (over the lex-least routes
    alone when the route combinations exceed the cap). The search keeps its own
    stack of frames, one per placed depth, so its depth is bounded by memory,
    not by the interpreter's recursion limit. Returns (best, witness, leaves,
    capped, nodes); leaves counts every complete bijection reached (routed,
    for congestion) and nodes every push onto the stack, the root included.
    """
    n, prior, dist, near, pending, both_free, minimax, cong, first_images = args
    if cong is not None:
        hub, host_edge_count, guest_edges, route_table, route_cap = cong
    best = math.inf
    witness = None
    leaves = 0
    capped = False
    images = [0] * (n + 1)
    used = [False] * (n + 1)
    everyone = range(1, n + 1)

    def below(k: int, total: int, limit) -> bool:
        """Whether `total`, the cost so far, stays below `limit` once the
        bound on the edges still open after placing k is added to it (taken
        as a max, for dilation)."""
        if minimax:
            for g, m in pending[k]:
                for d, v in near[images[g]]:
                    if not used[v]:
                        m -= 1
                        if not m:
                            break
                if d > total:
                    total = d
                    if total >= limit:
                        return False
            return True
        total += both_free[k]
        for g, m in pending[k]:
            if total >= limit:
                return False
            for d, v in near[images[g]]:
                if not used[v]:
                    total += d
                    m -= 1
                    if not m:
                        break
        return total < limit

    # frame k - 1 holds the candidates still to try for guest vertex k, the
    # cost so far and the hub bound; images[k] is k's latest image
    frames = [(iter(first_images), 0, 0)]
    nodes = 1
    while frames:
        k = len(frames)
        candidates, cur, hub_max = frames[-1]
        if k > n:
            frames.pop()
            leaves += 1
            value = cur
            if cong is not None:
                choices = [route_table[edge_key(images[u], images[v])] for u, v in guest_edges]
                if math.prod(len(c) for c in choices) > route_cap:
                    capped = True
                    choices = [c[:1] for c in choices]  # the lex-least route only
                value = _min_congestion_for_choices(choices, best)
            if value is not None and value < best:
                best = value
                witness = tuple(images[1:])
            continue
        used[images[k]] = False  # slot 0 is spare, so a fresh frame clears nothing
        for h in candidates:
            if used[h]:
                continue
            row = dist[h]
            val = cur
            if minimax:
                for j in prior[k]:
                    d = row[images[j]]
                    if d > val:
                        val = d
            else:
                for j in prior[k]:
                    val += row[images[j]]
            top = hub_max
            limit = best
            if cong is not None:
                top = max(hub_max, hub[k][h])
                if top >= best:
                    continue
                # ceil(total / |E(H)|) < best  <=>  total <= (best - 1) * |E(H)|
                limit = (best - 1) * host_edge_count + 1
            if val >= limit:
                continue
            images[k] = h
            used[h] = True
            if below(k, val, limit):
                frames.append((iter(everyone), val, top))
                nodes += 1
                break
            used[h] = False
        else:
            images[k] = 0
            frames.pop()
    return best, witness, leaves, capped, nodes


def _run_partitioned(guest: Graph, dist, jobs: int, *, minimax: bool = False, cong=None):
    """Run `_search` serially, or with one pool task per first image; the
    partitions' least (value, witness) pair is the serial run's."""
    prior, pending, both_free = _placement_tables(guest)
    args = (guest.order, prior, dist, _nearest(dist), pending, both_free, minimax, cong)
    if jobs <= 1:
        return _search(args + (guest.vertices(),))
    # imported here, not at module level, so that a CLI start that never
    # uses the pool does not load it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        values, vmaps, leaves, capped, nodes = zip(*pool.map(
            _search, [args + ([h],) for h in guest.vertices()]))
    best, witness = min(((value, vmap) for value, vmap in zip(values, vmaps) if vmap is not None),
                        default=(math.inf, None))
    return best, witness, sum(leaves), any(capped), sum(nodes)


def exact_dilation(guest: Graph, host: Graph, limit: int = DEFAULT_LIMIT, *,
                   jobs: int = 1) -> OracleResult:
    """Exact dil(guest, host): shortest routing makes per-edge dilation equal
    to the host distance of the images, so bijections alone decide the value."""
    dist = _check_instance(guest, host, limit)
    best, witness, leaves, _, _ = _run_partitioned(guest, dist, jobs, minimax=True)
    return OracleResult("dilation", int(best), witness, leaves, exact=True)


def exact_wirelength(guest: Graph, host: Graph, limit: int = DEFAULT_LIMIT, *,
                     jobs: int = 1) -> OracleResult:
    """Exact WL(guest, host): minimum over bijections of the summed host
    distances between adjacent images."""
    dist = _check_instance(guest, host, limit)
    best, witness, leaves, _, _ = _run_partitioned(guest, dist, jobs)
    return OracleResult("wirelength", int(best), witness, leaves, exact=True)


def _all_shortest_routes(host: Graph, a: int, dist_b) -> list[tuple[tuple[int, int], ...]]:
    """Every shortest path from a to the source b of the row `dist_b` as a
    tuple of canonical host edges, in lexicographic vertex-sequence order: the
    prefixes grow one BFS layer at a time towards b, each in order, and every
    route has the same length."""
    prefixes = [(a, ())]
    for step in range(dist_b[a] - 1, -1, -1):
        prefixes = [(w, edges + (edge_key(cur, w),)) for cur, edges in prefixes
                    for w in host.adjacency[cur] if dist_b[w] == step]
    return [edges for _, edges in prefixes]


def _min_congestion_for_choices(choices, upper: float):
    """Min over route combinations of the max edge load, considering only
    combinations strictly below `upper`; None when there are none."""
    choices = sorted(choices, key=len)  # stable: fewest routes first
    loads: dict[tuple[int, int], int] = {}
    best = upper

    def place(route, delta):
        top = 0
        for e in route:
            loads[e] = loads.get(e, 0) + delta
            if loads[e] > top:
                top = loads[e]
        return top

    # (edge index, next route to try, running max); route `nxt - 1` of the
    # edge is placed while its frame waits under the frame it spawned
    stack = [(0, 0, 0)]
    while stack:
        idx, nxt, cur_max = stack.pop()
        if nxt:
            place(choices[idx][nxt - 1], -1)
        if cur_max >= best:
            continue
        if idx == len(choices):
            best = cur_max
        elif nxt < len(choices[idx]):
            top = place(choices[idx][nxt], 1)
            stack.append((idx, nxt + 1, cur_max))
            stack.append((idx + 1, 0, max(cur_max, top)))
    return int(best) if best < upper else None


def exact_congestion(guest: Graph, host: Graph, limit: int = DEFAULT_LIMIT, *,
                     route_cap: int = DEFAULT_ROUTE_CAP, jobs: int = 1) -> OracleResult:
    """Minimum over bijections and per-edge shortest-path choices of the max
    edge congestion.

    On tree hosts every path is the unique shortest path, so the value is the
    unrestricted optimum and `exact` is True. On other hosts the routing space
    is restricted to shortest paths (and per-bijection route products above
    `route_cap` fall back to the canonical routing), so the result is an upper
    bound on the unrestricted optimum and `exact` is False.
    """
    dist = _check_instance(guest, host, limit)
    route_table = {(a, b): _all_shortest_routes(host, a, dist[b])
                   for a in host.vertices() for b in range(a + 1, host.order + 1)}
    # hub[g][h] = ceil(deg_G(g) / deg_H(h)) bounds the load of any routing;
    # the max(.., 1) guards only the edgeless order-1 host, where all terms are 0
    hub = [()] + [[0] + [-(guest.degree(g) // -max(host.degree(h), 1)) for h in host.vertices()]
                  for g in guest.vertices()]
    cong = (hub, max(len(host.edges), 1), guest.edge_list(), route_table, route_cap)
    best, witness, leaves, capped, _ = _run_partitioned(guest, dist, jobs, cong=cong)

    tree_host = len(host.edges) == host.order - 1  # the host is connected
    exact = tree_host and not capped
    notes = []
    if not tree_host:
        notes.append("routing space restricted to shortest paths (host is not a tree); "
                     "value is an upper bound on the unrestricted optimum")
    if capped:
        notes.append(f"route-combination cap {route_cap} exceeded for some bijections; "
                     "those used the canonical routing only")
    return OracleResult("congestion", int(best), witness, leaves,
                        exact=exact, notes="; ".join(notes))
