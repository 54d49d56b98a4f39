"""Lower bounds for embedding metrics and sharpness verdicts.

Each bound pairs a closed-form value with the constructive embedding that is
supposed to attain it; the verdict compares the two instead of trusting the
closed form.
"""

from __future__ import annotations

from typing import Optional

from . import families
from .embedding import (
    EmbeddingMap,
    HostNotHamiltonianError,
    embed_fan_via_median,
    embed_wheel_like_into_tree_host,
    embed_wheel_via_median,
    embed_windmill_into_circulant,
    evaluate,
    route_shortest,
)
from .graphs import (Graph, Record, has_universal_vertex, max_degree, radius_diameter,
                     require_connected, require_equal_orders, status_and_median)

# the claimed-sharp theorems: id -> (the parameter of one instance, its least
# value, the tree host kind of a dilation theorem, the options it reads besides
# that parameter). verify_theorem builds the guest and host of one instance: a
# level builds the tree of that level and the hub guests of its order, n the
# windmill of order 2**n and C_{2**n}{1, 2**(n-2)}, a host order the two-jump
# circulant C_n{1,2} and the wheel or fan of that order.
THEOREMS = {
    "dil-hypertree": ("level", 3, "hypertree", ("kind",)),
    "dil-sibling": ("level", 3, "sibling_tree", ("kind",)),
    "dil-xtree": ("level", 3, "x_tree", ("kind",)),
    "ec-windmill": ("n", 3, None, ()),
    "wl-wheel": ("host", 4, None, ("node_limit",)),
    "wl-fan": ("host", 4, None, ("node_limit",)),
}
THEOREM_IDS = tuple(THEOREMS)
# the hub-guest families, hub on vertex 1: kind -> the median construction whose
# rim meets its wirelength bound, or None while the kind has none
HUB_GUESTS = {"wheel": embed_wheel_via_median, "fan": embed_fan_via_median,
              "friendship": None, "star": None}
GUEST_KINDS = tuple(HUB_GUESTS)
WIRELENGTH_KINDS = tuple(kind for kind, construct in HUB_GUESTS.items() if construct)


def _hub_guest(kind: str, n: int) -> Graph:
    """The `kind` guest of order n, hub on vertex 1."""
    if kind not in HUB_GUESTS:
        raise ValueError(f"guest kind must be one of {GUEST_KINDS}, got {kind!r}")
    return families.build_family(kind, [(n - 1) // 2 if kind == "friendship" else n])


class BoundReport(Record):
    """A lower bound, the value a construction achieved, and the verdict.

    The `witness` embedding takes no part in `==`, `hash` or the repr, and
    `host` is the host's name."""

    _fields = ("metric", "bound", "achieved", "sharp", "notes", "host")

    def __init__(self, metric: str, bound: int, achieved: Optional[int] = None,
                 sharp: Optional[bool] = None, witness: Optional[EmbeddingMap] = None,
                 notes: str = "", host: str = ""):
        vars(self).update(metric=metric, bound=bound, achieved=achieved, sharp=sharp,
                          witness=witness, notes=notes, host=host)


_VALUE_FIELD = dict(dilation="max_dilation", congestion="max_congestion", wirelength="wirelength")


def _attained(metric: str, bound: int, witness: EmbeddingMap, notes: str) -> BoundReport:
    """The verdict on a construction: sharp exactly when its metric value equals the bound."""
    achieved = getattr(evaluate(witness), _VALUE_FIELD[metric])
    return BoundReport(metric=metric, bound=bound, achieved=achieved, sharp=achieved == bound,
                       witness=witness, notes=notes, host=witness.host.name)


def _require_universal(G: Graph) -> None:
    if has_universal_vertex(G) is None:
        raise ValueError("guest has no universal vertex (domination number exceeds 1), "
                         "so the hub-based bound does not apply")


def dilation_lower_bound(G: Graph, H: Graph) -> BoundReport:
    """Radius of the host bounds the dilation of any guest with a universal vertex.

    When the host radius equals its diameter the bound is also attained:
    shortest routing keeps every edge within the diameter, so any embedding
    witnesses equality.
    """
    require_equal_orders(G, H)
    _require_universal(G)
    require_connected(H, "dilation bound")
    r, d = radius_diameter(H)
    if r == d:
        return _attained("dilation", r, route_shortest(G, H, {v: v for v in G.vertices()}),
                         f"host radius equals diameter {d}; shortest routing attains the bound")
    return BoundReport(metric="dilation", bound=r, host=H.name,
                       notes=f"host radius {r}, diameter {d}")


def congestion_lower_bound(G: Graph, H: Graph) -> BoundReport:
    """ceil((n-1) / max host degree): the hub's n-1 routes share its image's edges."""
    require_equal_orders(G, H)
    _require_universal(G)
    delta = max_degree(H)
    if delta == 0:
        raise ValueError("host has no edges")
    require_connected(H, "congestion bound")
    n = G.order
    bound = -((n - 1) // -delta)
    return BoundReport(metric="congestion", bound=bound, host=H.name,
                       notes=f"ceil(({n} - 1) / {delta})")


def wirelength_lower_bound(kind: str, H: Graph, *,
                           node_limit: Optional[int] = None) -> BoundReport:
    """delta(u) + |E(guest)| - (n-1), u a median of the host: the spokes cost
    the status delta of the hub's image, each guest edge off the hub at least 1.

    Sharp exactly when the host minus some median u keeps the rim, a spanning
    cycle (wheel) or spanning path (fan): equality needs the hub on a vertex
    of status delta and every rim edge on a single host edge. The verdict tries
    the medians in id order through the kind's HUB_GUESTS construction and, on
    success, confirms the constructed embedding meets the bound.
    """
    if kind not in WIRELENGTH_KINDS:
        raise ValueError(f"kind must be {' or '.join(map(repr, WIRELENGTH_KINDS))}, got {kind!r}")
    require_connected(H, "wirelength bound")
    _, delta = status_and_median(H)
    try:  # the family owns the kind's least order
        guest = _hub_guest(kind, H.order)
    except ValueError as exc:
        raise ValueError(f"wirelength bound of a {kind} guest on host {H.name!r}: {exc}") from None
    bound = delta + len(guest.edges) - (H.order - 1)
    try:
        witness = HUB_GUESTS[kind](guest, H, node_limit=node_limit)
    except HostNotHamiltonianError as exc:
        return BoundReport(metric="wirelength", bound=bound, sharp=False, host=H.name,
                           notes=f"status {delta}; {exc}")
    return _attained("wirelength", bound, witness, f"median {witness.vmap[1]}, status {delta}")


def verify_theorem(theorem_id: str, value, *, kind: Optional[str] = None,
                   node_limit: Optional[int] = None) -> dict[str, BoundReport]:
    """Build one claimed-sharp instance and compare achieved against the bound,
    one report per guest kind.

    `value` is the instance's parameter that the id's THEOREMS entry names: a
    level for dil-*, whose tree host is built once and shared by every guest
    kind (or the one `kind`); an order n for ec-windmill; a host graph, or a
    host order that builds C_n{1,2}, for wl-*, whose searches take
    `node_limit`. A theorem rejects an option it does not read and a value,
    or a given host's order, below its least value.
    """
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {', '.join(THEOREM_IDS)}")
    axis, least, tree, reads = THEOREMS[theorem_id]
    for name, given in (("kind", kind), ("node_limit", node_limit)):
        if given is not None and name not in reads:
            raise ValueError(f"{theorem_id} does not read {name}")
    size = value.order if isinstance(value, Graph) else value  # a loaded host too
    if size < least:
        option = "--host order" if axis == "host" else f"--{axis}"
        raise ValueError(f"{theorem_id} needs {option} >= {least}, got {size}")

    if tree is not None:  # dilation
        host = families.build_family(tree, [value])
        r, _ = radius_diameter(host)
        notes = f"claimed dilation {value - 1}; host radius {r}" + (
            "" if r == value - 1 else " (radius differs from the claimed level-1 value)")
        return {guest_kind: _attained("dilation", r, embed_wheel_like_into_tree_host(
                    _hub_guest(guest_kind, host.order), host), notes)
                for guest_kind in ([kind] if kind else GUEST_KINDS)}

    if axis == "n":  # congestion
        emb = embed_windmill_into_circulant(families.windmill(2 ** (value - 1)),
                                            families.circulant(2 ** value, {1, 2 ** (value - 2)}))
        report = congestion_lower_bound(emb.guest, emb.host)
        notes = f"claimed congestion {2 ** (value - 2)}; {report.notes}" + (
            "; smallest order, outside the stated large-n regime" if value == 3 else "")
        return {"windmill": _attained("congestion", report.bound, emb, notes)}

    # wirelength, on a given host or on C_n{1,2}
    host = families.circulant(value, {1, 2}) if isinstance(value, int) else value
    guest = theorem_id.removeprefix("wl-")
    return {guest: wirelength_lower_bound(guest, host, node_limit=node_limit)}
