"""Deterministic generators for the guest and host graph families.

Guests are hub-centered: wheels, fans, friendship and windmill graphs, stars.
Hosts are heap-labeled trees with extra horizontal structure (hypertree,
sibling tree, X-tree), circulants, generalized Petersen graphs, and tori.
Labelings follow the conventions the constructive embeddings rely on: hubs
and roots are vertex 1, tree vertices keep their heap labels, circulant
vertices run 1..n around the ring.

Every builder emits each edge once, as a raw (u, v) pair, straight to
`graphs.build_graph`, which alone canonicalises edges and rejects a repeat;
the parameter checks rule out every repeat a family could make, so no
builder keeps an edge set or a sorted copy of its own.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .graphs import Graph, build_graph


def wheel(n: int) -> Graph:
    """Hub 1 joined to the rim cycle 2-3-...-n-2."""
    if n < 4:
        raise ValueError(f"wheel needs order >= 4, got {n}")
    edges = [(1, i) for i in range(2, n + 1)]
    edges += [(i, i + 1) for i in range(2, n)]
    edges.append((2, n))
    return build_graph(n, edges, f"wheel-{n}")


def fan(n: int) -> Graph:
    """Hub 1 joined to the rim path 2-3-...-n (a wheel minus one rim edge)."""
    if n < 3:
        raise ValueError(f"fan needs order >= 3, got {n}")
    edges = [(1, i) for i in range(2, n + 1)]
    edges += [(i, i + 1) for i in range(2, n)]
    return build_graph(n, edges, f"fan-{n}")


def friendship(k: int) -> Graph:
    """k triangles {1, 2i, 2i+1} sharing the hub vertex 1; order 2k+1."""
    if k < 1:
        raise ValueError(f"friendship needs at least 1 triangle, got {k}")
    edges = []
    for i in range(1, k + 1):
        edges += [(1, 2 * i), (1, 2 * i + 1), (2 * i, 2 * i + 1)]
    return build_graph(2 * k + 1, edges, f"friendship-{k}")


def windmill(k: int) -> Graph:
    """Friendship graph with one degree-2 vertex removed; order 2k.

    Hub is 1; the pendent vertex 2k is adjacent only to the hub; the remaining
    outer vertices pair up as (i, i+1) for even i <= 2k-2.
    """
    if k < 2:
        raise ValueError(f"windmill needs k >= 2, got {k}")
    n = 2 * k
    edges = [(1, i) for i in range(2, n + 1)]
    edges += [(i, i + 1) for i in range(2, n - 1, 2)]
    return build_graph(n, edges, f"windmill-{k}")


def star(n: int) -> Graph:
    """Complete bipartite K_{1,n-1}: hub 1 adjacent to 2..n."""
    if n < 2:
        raise ValueError(f"star needs order >= 2, got {n}")
    return build_graph(n, [(1, i) for i in range(2, n + 1)], f"star-{n}")


def _heap_tree_edges(level: int) -> list[tuple[int, int]]:
    n = 2 ** level - 1
    return [(x, c) for x in range(1, n + 1) for c in (2 * x, 2 * x + 1) if c <= n]


def _check_level(level: int, what: str) -> None:
    if level < 2:
        raise ValueError(f"{what} needs level >= 2, got {level}")


def complete_binary_tree(level: int) -> Graph:
    """Complete binary tree with heap labels: root 1, children of x are 2x and 2x+1."""
    _check_level(level, "complete_binary_tree")
    return build_graph(2 ** level - 1, _heap_tree_edges(level), f"cbt-{level}")


def hypertree(level: int) -> Graph:
    """Heap tree plus horizontal edges between same-level labels differing by 2^(i-2)."""
    _check_level(level, "hypertree")
    edges = _heap_tree_edges(level)
    for i in range(2, level + 1):
        gap = 2 ** (i - 2)
        for x in range(2 ** (i - 1), 2 ** i - gap):
            edges.append((x, x + gap))
    return build_graph(2 ** level - 1, edges, f"hypertree-{level}")


def sibling_tree(level: int) -> Graph:
    """Heap tree plus an edge between the two children of every internal vertex."""
    _check_level(level, "sibling_tree")
    edges = _heap_tree_edges(level)
    edges += [(2 * x, 2 * x + 1) for x in range(1, 2 ** (level - 1))]
    return build_graph(2 ** level - 1, edges, f"sibling-tree-{level}")


def x_tree(level: int) -> Graph:
    """Heap tree plus edges between consecutive labels within each level."""
    _check_level(level, "x_tree")
    edges = _heap_tree_edges(level)
    for i in range(1, level + 1):
        edges += [(x, x + 1) for x in range(2 ** (i - 1), 2 ** i - 1)]
    return build_graph(2 ** level - 1, edges, f"x-tree-{level}")


def circulant(n: int, jumps: Iterable[int]) -> Graph:
    """Circulant on vertices 1..n: i adjacent to i +- s (mod n) for each jump s."""
    if n < 3:
        raise ValueError(f"circulant needs order >= 3, got {n}")
    jump_set = sorted(set(jumps))
    if not jump_set:
        raise ValueError("circulant needs at least one jump")
    for s in jump_set:
        if not 1 <= s <= n // 2:
            raise ValueError(f"jump {s} outside 1..{n // 2} for order {n}")
    # a jump of n/2 joins each vertex of the first half to its opposite, so
    # it starts only there; any other jump starts at every vertex
    edges = ((v, (v + s - 1) % n + 1) for s in jump_set
             for v in range(1, (n // 2 if 2 * s == n else n) + 1))
    tag = "-".join(str(s) for s in jump_set)
    return build_graph(n, edges, f"circulant-{n}-{tag}")


def generalized_petersen(n: int, m: int) -> Graph:
    """Outer cycle 1..n, inner vertices n+1..2n with skip-m chords, plus spokes."""
    if n < 3:
        raise ValueError(f"generalized_petersen needs n >= 3, got {n}")
    if not 1 <= m < n / 2:
        raise ValueError(f"skip m={m} outside 1 <= m < n/2 for n={n}")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(i, n + i) for i in range(1, n + 1)]
    edges += [(n + i, n + (i - 1 + m) % n + 1) for i in range(1, n + 1)]
    return build_graph(2 * n, edges, f"petersen-{n}-{m}")


def torus(dims: Sequence[int]) -> Graph:
    """Cartesian product of cycles, one per dimension; row-major vertex numbering."""
    dims = list(dims)
    if not dims:
        raise ValueError("torus needs at least one dimension")
    for d in dims:
        if d < 3:
            raise ValueError(f"torus dimensions must be >= 3, got {d}")
    # product runs the last axis fastest, so its order is the row-major numbering
    ids = {c: v for v, c in enumerate(product(*map(range, dims)), 1)}
    edges = ((v, ids[c[:axis] + ((c[axis] + 1) % d,) + c[axis + 1:]])
             for c, v in ids.items() for axis, d in enumerate(dims))
    tag = "x".join(str(d) for d in dims)
    return build_graph(len(ids), edges, f"torus-{tag}")


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs order >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(1, n)], f"path-{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs order >= 3, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build_graph(n, edges, f"cycle-{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete needs order >= 1, got {n}")
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return build_graph(n, edges, f"complete-{n}")


# kind -> (builder taking unpacked params, human-readable parameter description)
_SINGLE_PARAM = {
    "wheel": wheel,
    "fan": fan,
    "friendship": friendship,
    "windmill": windmill,
    "star": star,
    "complete_binary_tree": complete_binary_tree,
    "hypertree": hypertree,
    "sibling_tree": sibling_tree,
    "x_tree": x_tree,
    "path": path,
    "cycle": cycle,
    "complete": complete,
}

FAMILY_KINDS = tuple(sorted(_SINGLE_PARAM)) + ("circulant", "generalized_petersen", "torus")


def build_family(kind: str, params: Sequence[int]) -> Graph:
    """Dispatch a family name plus integer parameters to its generator."""
    params = list(params)
    if kind in _SINGLE_PARAM:
        if len(params) != 1:
            raise ValueError(f"{kind} takes exactly one parameter, got {params}")
        return _SINGLE_PARAM[kind](params[0])
    if kind == "circulant":
        if len(params) < 2:
            raise ValueError("circulant takes an order followed by at least one jump")
        return circulant(params[0], params[1:])
    if kind == "generalized_petersen":
        if len(params) != 2:
            raise ValueError("generalized_petersen takes exactly two parameters")
        return generalized_petersen(params[0], params[1])
    if kind == "torus":
        return torus(params)
    raise ValueError(f"unknown family {kind!r}; known kinds: {', '.join(FAMILY_KINDS)}")
