"""Command-line interface: graph generation, embeddings, metrics, bounds,
hamiltonicity queries, oracle runs, and DOT export.

Exit codes: 0 for success (a "bound not sharp" finding is a finding, not a
failure), 1 for input or validation errors, 2 when a search gives up on its
node budget and the outcome is inconclusive. Every search keeps its own
stack, so no search depth reaches the interpreter's recursion limit. All
reports are valid JSON under --format json, and identical inputs (including
seeds) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional

from . import bounds as bounds_mod
from . import families, oracle
from .embedding import (
    EmbeddingMap,
    build_embedding,
    embed_fan_via_median,
    embed_wheel_like_into_tree_host,
    embed_wheel_via_median,
    embed_windmill_into_circulant,
    evaluate,
    route_shortest,
)
from .graphs import Graph, dump_json, graph_from_json, graph_to_json, parse_json
from .hamiltonian import (
    SearchBudgetExceeded,
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    is_f_fault_hamiltonian,
    is_f_fault_traceable,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2

VERSION = "wheelembed 0.1.0"

# method -> the construction that places a loaded guest on a loaded host; only
# the median-* constructions take --node-limit
EMBED_METHODS = {
    "preorder": embed_wheel_like_into_tree_host,
    "windmill": embed_windmill_into_circulant,
    "median-wheel": embed_wheel_via_median,
    "median-fan": embed_fan_via_median,
    "identity": lambda guest, host: route_shortest(guest, host,
                                                   {v: v for v in guest.vertices()}),
}

# metric -> its exhaustive oracle; only ec takes --route-cap
ORACLES = {
    "dil": oracle.exact_dilation,
    "ec": oracle.exact_congestion,
    "wl": oracle.exact_wirelength,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # inconclusive searches, so usage problems map to the input-error code
    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _reject_unread(args, command: str, *options: str) -> None:
    """Fail on the first of `options` (argument names) given to a `command`
    that does not read it."""
    for option in options:
        if getattr(args, option) is not None:
            raise ValueError(f"{command} does not read --{option.replace('_', '-')}")


def _read(path: str, parse):
    """Apply `parse` to the text of the file at `path`; a decode, parse or
    validation error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return _read(path, graph_from_json)


def embedding_to_json(emb: EmbeddingMap, method: str = "") -> str:
    payload = {
        "guest": emb.guest.name,
        "host": emb.host.name,
        "method": method,
        "vmap": [emb.vmap[g] for g in emb.guest.vertices()],
        "routes": {f"{u}-{v}": list(route) for (u, v), route in emb.routes.items()},
    }
    return dump_json(payload)


def _is_vertex_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def embedding_from_json(guest: Graph, host: Graph, text: str) -> EmbeddingMap:
    """Parse and re-validate an embedding JSON against its guest and host."""
    data = parse_json(text, "embedding")
    if not isinstance(data, dict) or "vmap" not in data or "routes" not in data:
        raise ValueError("embedding JSON must contain 'vmap' and 'routes'")
    vmap_list = data["vmap"]
    if not _is_vertex_list(vmap_list):
        raise ValueError("embedding vmap must be a list of integer vertex ids")
    if len(vmap_list) != guest.order:
        raise ValueError(f"vmap lists {len(vmap_list)} images for {guest.order} guest vertices")
    if not isinstance(data["routes"], dict):
        raise ValueError("embedding routes must be an object keyed by guest edges 'u-v'")
    vmap = {g: vmap_list[g - 1] for g in guest.vertices()}
    routes = {}
    for key, seq in data["routes"].items():
        u_text, _, v_text = key.partition("-")
        # one spelling per pair of ids ('01-2' is not '1-2'), so that no two
        # keys name one edge; build_embedding rejects '2-1'
        if not (u_text.isdecimal() and v_text.isdecimal()
                and key == f"{int(u_text)}-{int(v_text)}"):
            raise ValueError(f"route key {key!r} is not a guest edge 'u-v'")
        if not _is_vertex_list(seq):
            raise ValueError(f"route {key!r} must be a list of integer vertex ids")
        routes[(int(u_text), int(v_text))] = tuple(seq)
    return build_embedding(guest, host, vmap, routes)


def export_dot(G: Graph, congestion: Optional[dict[tuple[int, int], int]] = None) -> str:
    """Deterministic DOT rendering; optional congestion counts, one per edge, as edge labels."""
    title = (G.name or "graph").replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{title}" {{']
    for v in G.vertices():
        lines.append(f"  {v};")
    for u, v in G.edge_list():
        if congestion is not None:
            lines.append(f'  {u} -- {v} [label="{congestion[u, v]}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _metrics_payload(emb: EmbeddingMap) -> dict:
    metrics = evaluate(emb)
    return {
        "max_dilation": metrics.max_dilation,
        "max_congestion": metrics.max_congestion,
        "wirelength": metrics.wirelength,
        "dilation_per_edge": {f"{u}-{v}": d
                              for (u, v), d in sorted(metrics.dil_per_edge.items())},
        "congestion_per_edge": {f"{u}-{v}": c
                                for (u, v), c in sorted(metrics.cong_per_edge.items())},
    }


def _metrics_text(payload: dict) -> str:
    lines = [
        f"max dilation   {payload['max_dilation']}",
        f"max congestion {payload['max_congestion']}",
        f"wirelength     {payload['wirelength']}",
        "",
        "host edge  congestion",
    ]
    for key, value in payload["congestion_per_edge"].items():
        lines.append(f"{key:>9}  {value}")
    return "\n".join(lines) + "\n"


def _bound_payload(report) -> dict:
    return {
        "metric": report.metric,
        "bound": report.bound,
        "achieved": report.achieved,
        "sharp": report.sharp,
        "notes": report.notes,
    }


# ---------------------------------------------------------------- handlers
# each returns the text of its command's output, which `main` writes

def _cmd_gen(args) -> str:
    return graph_to_json(families.build_family(args.family, args.params))


def _cmd_embed(args) -> str:
    if not args.method.startswith("median-"):
        _reject_unread(args, f"embed --method {args.method}", "node_limit")
    guest = _load_graph(args.guest)
    host = _load_graph(args.host)
    limit = {} if args.node_limit is None else {"node_limit": args.node_limit}
    emb = EMBED_METHODS[args.method](guest, host, **limit)
    return embedding_to_json(emb, args.method)


def _cmd_metrics(args) -> str:
    guest = _load_graph(args.guest)
    host = _load_graph(args.host)
    if args.random is not None:
        _reject_unread(args, "metrics --random", "embedding")
        seed = args.seed or 0
        rng = random.Random(seed)
        samples = []
        for index in range(args.random):
            images = list(host.vertices())
            rng.shuffle(images)
            emb = route_shortest(guest, host, dict(zip(guest.vertices(), images)))
            metrics = evaluate(emb)
            samples.append({
                "index": index,
                "vmap": images,
                "wirelength": metrics.wirelength,
                "max_dilation": metrics.max_dilation,
                "max_congestion": metrics.max_congestion,
            })
        if args.format == "json":
            return dump_json({"seed": seed, "samples": samples})
        lines = [f"seed {seed}"]
        for s in samples:
            lines.append(f"sample {s['index']:>3}: wirelength {s['wirelength']:>5}  "
                         f"max dil {s['max_dilation']:>3}  max cong {s['max_congestion']:>3}")
        return "\n".join(lines) + "\n"
    if args.embedding is None:
        raise ValueError("metrics needs --embedding or --random")
    _reject_unread(args, "metrics --embedding", "seed")
    emb = _read(args.embedding, lambda text: embedding_from_json(guest, host, text))
    payload = _metrics_payload(emb)
    return dump_json(payload) if args.format == "json" else _metrics_text(payload)


def _cmd_bound(args) -> str:
    _reject_unread(args, f"bound --metric {args.metric}",
                   *(("guest",) if args.metric == "wl" else ("kind", "node_limit")))
    if args.metric == "wl":
        if args.kind is None:
            raise ValueError(f"--metric wl needs --kind {'|'.join(bounds_mod.WIRELENGTH_KINDS)}")
        host = _load_graph(args.host)
        report = bounds_mod.wirelength_lower_bound(args.kind, host, node_limit=args.node_limit)
    else:
        if args.guest is None:
            raise ValueError(f"--metric {args.metric} needs --guest")
        guest = _load_graph(args.guest)
        host = _load_graph(args.host)
        if args.metric == "dil":
            report = bounds_mod.dilation_lower_bound(guest, host)
        else:
            report = bounds_mod.congestion_lower_bound(guest, host)
    payload = _bound_payload(report)
    if args.format == "json":
        return dump_json(payload)
    return "".join(f"{key:>9}: {value}\n" for key, value in payload.items())


def _parse_sweep(text: str) -> range:
    lo, _, hi = text.partition("..")
    message = f"--sweep must have the form A..B with integers A <= B, got {text!r}"
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise ValueError(message) from None
    if stop < start:
        raise ValueError(message)
    return range(start, stop + 1)


def _verify_rows(args) -> list[dict]:
    # --level, --n and --host are one-value sweeps. Instances are built one
    # value at a time, not all up front, and a row keeps only its report's
    # payload (no name outside the comprehension holds a report), so no
    # witness embedding stays alive while the next instance is built
    axis, _, tree, reads = bounds_mod.THEOREMS[args.theorem]
    _reject_unread(args, f"verify {args.theorem}",
                   *(o for o in ("level", "n", "host", "kind", "node_limit")
                     if o != axis and o not in reads))
    if args.sweep:
        _reject_unread(args, "verify --sweep", axis)
    values = _parse_sweep(args.sweep) if args.sweep else [getattr(args, axis)]
    if values == [None]:
        raise ValueError(f"{args.theorem} needs --{axis} or --sweep")
    rows = []
    for value in values:
        # a --host value names a graph file; bounds builds every other host
        instance = _load_graph(value) if isinstance(value, str) else value
        rows += [{**({"kind": kind} if tree else {}),
                  axis: report.host if axis == "host" else value, **_bound_payload(report)}
                 for kind, report in bounds_mod.verify_theorem(
                     args.theorem, instance, kind=args.kind,
                     node_limit=args.node_limit).items()]
    return rows


def _cmd_verify(args) -> str:
    rows = _verify_rows(args)
    if args.format == "json":
        return dump_json(rows)
    params = [key for key in rows[0] if key not in ("metric", "bound", "achieved", "sharp", "notes")]
    # a parameter column is 10 wide, or as wide as its longest cell or header
    widths = [max(10, len(p), *(len(str(row[p])) for row in rows)) for p in params]
    header = "  ".join(f"{p:>{w}}" for p, w in zip(params, widths))
    lines = [header + f"  {'bound':>6}  {'achieved':>8}  sharp"]
    for row in rows:
        cells = "  ".join(f"{str(row[p]):>{w}}" for p, w in zip(params, widths))
        lines.append(f"{cells}  {row['bound']:>6}  {str(row['achieved']):>8}  {row['sharp']}")
    return "\n".join(lines) + "\n"


def _cmd_ham(args) -> str:
    unread = {"cycle": ("ends", "f"), "path": ("f",)}.get(args.query, ("ends",))
    _reject_unread(args, f"ham --query {args.query}", *unread)
    G = _load_graph(args.graph)
    # witnesses, fault sets and pairs are tuples, which JSON writes as lists
    if args.query == "cycle":
        witness = find_hamiltonian_cycle(G, node_limit=args.node_limit)
        return dump_json({"query": args.query, "verdict": witness is not None, "witness": witness})
    if args.query == "path":
        ends = None
        if args.ends:
            try:
                u, v = (int(text) for text in args.ends.split(","))
            except ValueError:
                raise ValueError(f"--ends must have the form u,v with two vertex ids, "
                                 f"got {args.ends!r}") from None
            ends = (u, v)
        witness = find_hamiltonian_path(G, ends, node_limit=args.node_limit)
        return dump_json({"query": args.query, "verdict": witness is not None, "witness": witness})
    checker = is_f_fault_hamiltonian if args.query == "ffault-ham" else is_f_fault_traceable
    f = 1 if args.f is None else args.f
    report = checker(G, f, node_limit=args.node_limit)
    fault = report.failing_fault
    payload = {"query": args.query, "f": f, "verdict": report.verdict, "witness": report.witness,
               "failing_fault": None if fault is None else {"vertices": fault[0],
                                                            "edges": fault[1]}}
    if args.query == "ffault-trace":
        payload["failing_pair"] = report.failing_pair
    return dump_json(payload)


def _cmd_oracle(args) -> str:
    if args.metric != "ec":
        _reject_unread(args, f"oracle --metric {args.metric}", "route_cap")
    guest = _load_graph(args.guest)
    host = _load_graph(args.host)
    cap = {} if args.route_cap is None else {"route_cap": args.route_cap}
    result = ORACLES[args.metric](guest, host, args.limit, jobs=args.jobs, **cap)
    return dump_json(vars(result))


def _cmd_export(args) -> str:
    if not args.embedding:
        _reject_unread(args, "export without --embedding", "guest")
    G = _load_graph(args.graph)
    congestion = None
    if args.embedding:
        if args.guest is None:
            raise ValueError("--embedding annotation needs --guest (with --graph as the host)")
        guest = _load_graph(args.guest)
        emb = _read(args.embedding, lambda text: embedding_from_json(guest, G, text))
        congestion = evaluate(emb).cong_per_edge
    return export_dot(G, congestion)


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wheelembed",
                     description="Wheel-like guests, tree/circulant hosts, and exact "
                                 "dilation/congestion/wirelength analysis.")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance as graph JSON")
    p.add_argument("family", choices=families.FAMILY_KINDS)
    p.add_argument("params", nargs="+", type=int)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("embed", help="construct an embedding between two graphs")
    p.add_argument("--guest", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--method", required=True, choices=EMBED_METHODS)
    p.add_argument("--node-limit", type=_positive)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("metrics", help="evaluate dilation/congestion/wirelength")
    p.add_argument("--guest", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--embedding")
    p.add_argument("--random", type=_positive,
                   help="evaluate this many seeded random bijections instead")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("bound", help="lower bounds with sharpness verdicts")
    p.add_argument("--metric", required=True, choices=("dil", "ec", "wl"))
    p.add_argument("--guest")
    p.add_argument("--host", required=True)
    p.add_argument("--kind", choices=bounds_mod.WIRELENGTH_KINDS)
    p.add_argument("--node-limit", type=_positive)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("verify", help="check a claimed-sharp bound over instances")
    p.add_argument("theorem", choices=bounds_mod.THEOREM_IDS)
    p.add_argument("--kind", choices=bounds_mod.GUEST_KINDS)
    p.add_argument("--level", type=_positive)
    p.add_argument("--n", type=_positive)
    p.add_argument("--host")
    p.add_argument("--sweep", help="inclusive range A..B of levels / n / host orders")
    p.add_argument("--node-limit", type=_positive)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("ham", help="hamiltonicity and fault-tolerance queries")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True,
                   choices=("cycle", "path", "ffault-ham", "ffault-trace"))
    p.add_argument("--f", type=int, help="failures per fault set (default 1)")
    p.add_argument("--ends", help="u,v endpoints for path queries")
    p.add_argument("--node-limit", type=_positive)
    p.set_defaults(handler=_cmd_ham)

    p = sub.add_parser("oracle", help="exhaustive exact optimum over all bijections")
    p.add_argument("--guest", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--metric", required=True, choices=ORACLES)
    p.add_argument("--limit", type=_positive, default=oracle.DEFAULT_LIMIT)
    p.add_argument("--jobs", type=_positive, default=1, help="worker processes")
    p.add_argument("--route-cap", type=_positive,
                   help=f"--metric ec only (default {oracle.DEFAULT_ROUTE_CAP})")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("export", help="DOT rendering, optionally congestion-annotated")
    p.add_argument("--graph", required=True)
    p.add_argument("--embedding")
    p.add_argument("--guest")
    p.set_defaults(handler=_cmd_export)

    for p in sub.choices.values():  # each subcommand's last option
        p.add_argument("--out")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        text = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except SearchBudgetExceeded as exc:
        # an exhausted node budget decides nothing
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
