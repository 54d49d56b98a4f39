import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wheelembed
from helpers import graphs, record_bfs, shallow_recursion_limit
from wheelembed import bounds as bounds_mod
from wheelembed import families as families_mod
from wheelembed import graphs as graphs_mod
from wheelembed.cli import EMBED_METHODS, embedding_to_json, main
from wheelembed.families import (circulant, complete, cycle, fan, hypertree, star, wheel,
                                  windmill)
from wheelembed.graphs import build_graph, graph_from_json, graph_to_json


INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"

# embed method -> the guest and host of its smallest instance
SMALLEST_INSTANCES = {
    "preorder": (star(7), hypertree(3)),
    "windmill": (windmill(4), circulant(8, {1, 2})),
    "median-wheel": (wheel(6), circulant(6, {1, 2})),
    "median-fan": (fan(6), circulant(6, {1, 2})),
    "identity": (cycle(6), circulant(6, {1})),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, G, filename):
    target = tmp_path / filename
    target.write_text(graph_to_json(G))
    return str(target)


def run_process(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    src = str(Path(wheelembed.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "wheelembed.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def assert_one_line_input_error(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


class TestGen:
    def test_hypertree_json(self, capsys):
        code, out, _ = run(capsys, "gen", "hypertree", "4")
        assert code == 0
        G = graph_from_json(out)
        assert (G.order, len(G.edges)) == (15, 21)

    def test_round_trip_through_file(self, capsys, tmp_path):
        target = tmp_path / "c8.json"
        code, _, _ = run(capsys, "gen", "circulant", "8", "1", "2", "--out", str(target))
        assert code == 0
        G = graph_from_json(target.read_text())
        expected = circulant(8, {1, 2})
        assert (G.order, G.edges, G.name) == (expected.order, expected.edges, expected.name)

    def test_byte_identical_output(self, capsys):
        _, first, _ = run(capsys, "gen", "torus", "3", "3")
        _, second, _ = run(capsys, "gen", "torus", "3", "3")
        assert first == second

    def test_bad_parameter_exits_one(self, capsys):
        code, _, err = run(capsys, "gen", "wheel", "2")
        assert code == 1
        assert "order >= 4" in err

    def test_unknown_family_exits_one(self, capsys):
        code, _, _ = run(capsys, "gen", "moebius", "3")
        assert code == 1


class TestEmbedAndMetrics:
    def test_preorder_embedding_and_metrics(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "star", "15", "--out", str(tmp_path / "g.json"))
        assert code == 0
        code, _, _ = run(capsys, "gen", "hypertree", "4", "--out", str(tmp_path / "h.json"))
        assert code == 0
        code, out, _ = run(capsys, "embed", "--guest", str(tmp_path / "g.json"),
                           "--host", str(tmp_path / "h.json"), "--method", "preorder",
                           "--out", str(tmp_path / "emb.json"))
        assert code == 0
        emb_data = json.loads((tmp_path / "emb.json").read_text())
        assert emb_data["vmap"][0] == 1
        code, out, _ = run(capsys, "metrics", "--guest", str(tmp_path / "g.json"),
                           "--host", str(tmp_path / "h.json"),
                           "--embedding", str(tmp_path / "emb.json"), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_dilation"] == 3
        assert payload["wirelength"] == sum(payload["dilation_per_edge"].values())
        assert payload["wirelength"] == sum(payload["congestion_per_edge"].values())

    def test_identity_method(self, capsys, tmp_path):
        g = write_graph(tmp_path, circulant(6, {1}), "g.json")
        code, out, _ = run(capsys, "embed", "--guest", g, "--host", g, "--method", "identity")
        assert code == 0
        assert json.loads(out)["vmap"] == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("method", EMBED_METHODS)
    def test_embed_keeps_the_loaded_graphs(self, capsys, tmp_path, method):
        # every method places the guest and host it loads, names and all
        guest, host = SMALLEST_INSTANCES[method]
        g = write_graph(tmp_path, build_graph(guest.order, guest.edge_list(), "my-guest"), "g")
        h = write_graph(tmp_path, build_graph(host.order, host.edge_list(), "my-host"), "h")
        code, out, err = run(capsys, "embed", "--guest", g, "--host", h, "--method", method)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["guest"], payload["host"], payload["method"]) == (
            "my-guest", "my-host", method)

    def test_windmill_method_checks_shapes(self, capsys, tmp_path):
        g = write_graph(tmp_path, circulant(6, {1}), "g.json")
        code, _, err = run(capsys, "embed", "--guest", g, "--host", g, "--method", "windmill")
        assert code == 1

    def test_metrics_text_table(self, capsys, tmp_path):
        g = write_graph(tmp_path, circulant(6, {1}), "g.json")
        code, _, _ = run(capsys, "embed", "--guest", g, "--host", g,
                         "--method", "identity", "--out", str(tmp_path / "e.json"))
        assert code == 0
        code, out, _ = run(capsys, "metrics", "--guest", g, "--host", g,
                           "--embedding", str(tmp_path / "e.json"))
        assert code == 0
        assert "wirelength" in out
        assert "host edge" in out

    def test_random_metrics_deterministic(self, capsys, tmp_path):
        g = write_graph(tmp_path, circulant(8, {1, 2}), "g.json")
        args = ("metrics", "--guest", g, "--host", g, "--random", "5",
                "--seed", "3", "--format", "json")
        code, first, _ = run(capsys, *args)
        assert code == 0
        _, second, _ = run(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert len(payload["samples"]) == 5
        assert all(set(s) == {"index", "vmap", "wirelength", "max_dilation", "max_congestion"}
                   for s in payload["samples"])


class TestBoundAndVerify:
    def test_bound_wirelength(self, capsys, tmp_path):
        h = write_graph(tmp_path, circulant(8, {1, 2}), "h.json")
        code, out, _ = run(capsys, "bound", "--metric", "wl", "--kind", "wheel",
                           "--host", h, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["bound"], payload["achieved"], payload["sharp"]) == (17, 17, True)

    def test_bound_dilation(self, capsys, tmp_path):
        from wheelembed.families import star, cycle as cycle_family
        g = write_graph(tmp_path, star(7), "g.json")
        h = write_graph(tmp_path, cycle_family(7), "h.json")
        code, out, _ = run(capsys, "bound", "--metric", "dil", "--guest", g,
                           "--host", h, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["bound"], payload["sharp"]) == (3, True)

    def test_bound_congestion(self, capsys, tmp_path):
        from wheelembed.families import windmill
        g = write_graph(tmp_path, windmill(8), "g.json")
        h = write_graph(tmp_path, circulant(16, {1, 4}), "h.json")
        code, out, _ = run(capsys, "bound", "--metric", "ec", "--guest", g,
                           "--host", h, "--format", "json")
        assert code == 0
        assert json.loads(out)["bound"] == 4

    def test_not_sharp_is_still_exit_zero(self, capsys, tmp_path):
        from wheelembed.families import star
        h = write_graph(tmp_path, star(8), "h.json")
        code, out, _ = run(capsys, "bound", "--metric", "wl", "--kind", "wheel",
                           "--host", h, "--format", "json")
        assert code == 0
        assert json.loads(out)["sharp"] is False

    @pytest.mark.parametrize("argv, message", [
        (("bound", "--metric", "dil", "--guest", "G", "--host", "H"),
         "dilation bound requires a connected host"),
        (("bound", "--metric", "wl", "--kind", "wheel", "--host", "H"),
         "wirelength bound requires a connected host"),
        (("verify", "wl-fan", "--host", "H"), "wirelength bound requires a connected host"),
    ])
    def test_disconnected_host_names_the_bound(self, tmp_path, argv, message):
        files = {"G": write_graph(tmp_path, star(4), "g.json"),
                 "H": write_graph(tmp_path, build_graph(4, [(1, 2), (3, 4)]), "h.json")}
        proc = run_process(*(files.get(arg, arg) for arg in argv))
        assert_one_line_input_error(proc)
        assert proc.stderr.strip() == f"error: {message}"

    def test_verify_windmill_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "ec-windmill", "--sweep", "3..6",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [3, 4, 5, 6]
        assert all(row["sharp"] for row in rows)

    def test_bound_fan_wirelength_on_three_vertices(self, capsys, tmp_path):
        # F_3 onto K3 meets n - 2 + status = 1 + 2; a wheel needs four vertices
        h = write_graph(tmp_path, complete(3), "h.json")
        code, out, _ = run(capsys, "bound", "--metric", "wl", "--kind", "fan",
                           "--host", h, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["bound"], payload["achieved"], payload["sharp"]) == (3, 3, True)
        code, out, err = run(capsys, "bound", "--metric", "wl", "--kind", "wheel", "--host", h)
        assert (code, out) == (1, "")
        assert err == ("error: wirelength bound of a wheel guest on host 'complete-3': "
                       "wheel needs order >= 4, got 3\n")

    def test_bound_wirelength_below_the_kinds_least_order_names_bound_and_host(
            self, capsys, tmp_path):
        h = write_graph(tmp_path, complete(1), "h.json")
        code, out, err = run(capsys, "bound", "--metric", "wl", "--kind", "fan", "--host", h)
        assert (code, out) == (1, "")
        assert err == ("error: wirelength bound of a fan guest on host 'complete-1': "
                       "fan needs order >= 3, got 1\n")

    def test_dilation_sweep_builds_each_tree_once(self, capsys, monkeypatch):
        levels, build = [], families_mod.hypertree

        def spy(level):
            levels.append(level)
            return build(level)

        monkeypatch.setattr(families_mod, "hypertree", spy)
        monkeypatch.setitem(families_mod._SINGLE_PARAM, "hypertree", spy)
        code, out, _ = run(capsys, "verify", "dil-hypertree", "--sweep", "3..5",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 12
        assert levels == [3, 4, 5]

    @pytest.mark.parametrize("theorem", bounds_mod.THEOREM_IDS)
    def test_verify_rejects_an_option_its_theorem_does_not_read(self, capsys, tmp_path,
                                                                 theorem):
        axis, _, _, reads = bounds_mod.THEOREMS[theorem]
        sweep = "6..6" if axis == "host" else "3..3"
        given = {"level": "3", "n": "3", "host": write_graph(tmp_path, circulant(6, {1, 2}), "h"),
                 "kind": "wheel", "node_limit": "100"}
        unread = [option for option in given if option != axis and option not in reads]
        assert len(unread) >= 3
        for option in unread:
            flag = "--" + option.replace("_", "-")
            code, out, err = run(capsys, "verify", theorem, "--sweep", sweep, flag, given[option])
            assert (code, out, err) == (1, "", f"error: verify {theorem} does not read {flag}\n")
        # --sweep gives the values of the theorem's own option
        code, out, err = run(capsys, "verify", theorem, "--sweep", sweep, f"--{axis}", given[axis])
        assert (code, out, err) == (1, "", f"error: verify --sweep does not read --{axis}\n")
        assert run(capsys, "verify", theorem, "--sweep", sweep)[0] == 0

    def test_dilation_sweep_shares_one_host_per_level(self, capsys, monkeypatch):
        runs = record_bfs(monkeypatch)
        passes = []
        kernel = graphs_mod._ball_growth
        monkeypatch.setattr(graphs_mod, "_ball_growth", lambda G: passes.append(G) or kernel(G))
        code, out, _ = run(capsys, "verify", "dil-hypertree", "--sweep", "3..5",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 12
        # one ball pass per level host gives its radius and connectivity;
        # routes come from their own trees, so no BFS runs
        assert runs == []
        assert [G.order for G in passes] == [7, 15, 31]
        # --level is a one-value sweep: its four kinds share one host too
        passes.clear()
        code, out, _ = run(capsys, "verify", "dil-hypertree", "--level", "4", "--format", "json")
        assert code == 0
        assert [G.order for G in passes] == [15]
        code, swept, _ = run(capsys, "verify", "dil-hypertree", "--sweep", "4..4",
                             "--format", "json")
        assert code == 0
        assert json.loads(out) == json.loads(swept)
        assert len(json.loads(out)) == 4

    @pytest.mark.parametrize("theorem, sweep", [
        ("dil-xtree", "3..4"), ("ec-windmill", "3..5"), ("wl-fan", "6..8"),
    ])
    def test_no_report_outlives_its_row(self, capsys, monkeypatch, theorem, sweep):
        # each sweep row keeps only its report's payload, so the witnesses of
        # one instance are released before the next one is built
        reports, verify = [], bounds_mod.verify_theorem

        def recording(*args, **kwargs):
            assert all(ref() is None for ref in reports)
            made = verify(*args, **kwargs)
            reports.extend(weakref.ref(report) for report in made.values())
            return made

        monkeypatch.setattr(bounds_mod, "verify_theorem", recording)
        code, out, _ = run(capsys, "verify", theorem, "--sweep", sweep, "--format", "json")
        assert code == 0
        assert len(reports) == len(json.loads(out)) >= 3
        assert all(ref() is None for ref in reports)

    @pytest.mark.parametrize("theorem, sweep", [
        ("dil-hypertree", "3"),
        ("dil-hypertree", "a..b"),
        ("ec-windmill", "5..3"),
        ("wl-fan", "6.."),
    ])
    def test_malformed_sweep_names_the_form(self, capsys, theorem, sweep):
        code, _, err = run(capsys, "verify", theorem, "--sweep", sweep)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "A..B" in err and repr(sweep) in err

    @pytest.mark.parametrize("theorem", bounds_mod.THEOREM_IDS)
    def test_verify_without_an_instance_names_its_parameter(self, capsys, theorem):
        flag = {"dil": "--level", "ec": "--n", "wl": "--host"}[theorem.partition("-")[0]]
        code, out, err = run(capsys, "verify", theorem)
        assert (code, out) == (1, "")
        assert err == f"error: {theorem} needs {flag} or --sweep\n"

    @pytest.mark.parametrize("theorem", ["wl-wheel", "wl-fan"])
    def test_wirelength_sweep_below_order_four(self, capsys, theorem):
        code, _, err = run(capsys, "verify", theorem, "--sweep", "3..4")
        assert code == 1
        assert err == f"error: {theorem} needs --host order >= 4, got 3\n"

    @pytest.mark.parametrize("theorem", ["wl-wheel", "wl-fan"])
    def test_loaded_host_below_order_four(self, capsys, tmp_path, theorem):
        # a loaded host meets the same least value as a swept host order
        h = write_graph(tmp_path, complete(3), "k3.json")
        code, out, err = run(capsys, "verify", theorem, "--host", h)
        assert (code, out) == (1, "")
        assert err == f"error: {theorem} needs --host order >= 4, got 3\n"

    @pytest.mark.parametrize("theorem", bounds_mod.THEOREM_IDS)
    def test_verify_below_the_least_value_names_the_option(self, capsys, monkeypatch,
                                                           theorem):
        axis, least, _, _ = bounds_mod.THEOREMS[theorem]
        value = least - 1
        option = "--host order" if axis == "host" else f"--{axis}"
        argvs = [["--sweep", f"{value}..{value}"]]
        if axis != "host":  # a --host value names a graph file
            argvs.append([f"--{axis}", str(value)])
        # the value is checked before any graph is built
        monkeypatch.setattr(bounds_mod, "families", None)
        for argv in argvs:
            code, out, err = run(capsys, "verify", theorem, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {theorem} needs {option} >= {least}, got {value}\n"

    def test_verify_text_columns_fit_their_longest_cell(self, capsys):
        # host names grow from 15 to 16 characters; every column stays aligned
        # up to the last one, whose cells (True, False, None) differ in length
        code, out, _ = run(capsys, "verify", "wl-wheel", "--sweep", "9..11")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert len({len(line.rsplit("  ", 1)[0]) for line in lines}) == 1
        assert lines[0].startswith(" " * 12 + "host")

    def test_verify_dilation_text_table(self, capsys):
        code, out, _ = run(capsys, "verify", "dil-hypertree", "--kind", "star",
                           "--level", "4")
        assert code == 0
        assert "True" in out

    @pytest.mark.parametrize("theorem", ["wl-wheel", "wl-fan"])
    def test_median_construction_deeper_than_the_recursion_limit(self, capsys, theorem):
        # the rim is a spanning cycle or path of 1199 host vertices
        code, out, _ = run(capsys, "verify", theorem, "--sweep", "1200..1200",
                           "--format", "json")
        assert code == 0
        assert [row["sharp"] for row in json.loads(out)] == [True]

    def test_verify_wirelength_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "wl-fan", "--sweep", "6..8",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert all(row["sharp"] for row in rows)


class TestHam:
    def test_petersen_cycle_query(self, capsys, tmp_path):
        from wheelembed.families import generalized_petersen
        g = write_graph(tmp_path, generalized_petersen(5, 2), "g.json")
        code, out, _ = run(capsys, "ham", "--graph", g, "--query", "cycle")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is False
        assert payload["witness"] is None

    def test_ffault_query(self, capsys, tmp_path):
        g = write_graph(tmp_path, circulant(8, {1, 2}), "g.json")
        code, out, _ = run(capsys, "ham", "--graph", g, "--query", "ffault-ham", "--f", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["failing_fault"] is None

    def test_path_with_ends(self, capsys, tmp_path):
        from wheelembed.families import path as path_family
        g = write_graph(tmp_path, path_family(4), "g.json")
        code, out, _ = run(capsys, "ham", "--graph", g, "--query", "path",
                           "--ends", "1,4")
        assert json.loads(out)["witness"] == [1, 2, 3, 4]

    def test_budget_exhaustion_exits_two(self, capsys, tmp_path):
        g = write_graph(tmp_path, circulant(12, {1, 2, 3}), "g.json")
        code, _, err = run(capsys, "ham", "--graph", g, "--query", "cycle",
                           "--node-limit", "2")
        assert code == 2
        assert "inconclusive" in err

    def test_inconclusive_message_names_the_query(self, capsys):
        code, out, err = run(capsys, "ham", "--graph", str(INPUTS / "petersen-5-2.json"),
                             "--query", "ffault-trace", "--f", "1", "--node-limit", "2")
        assert (code, out) == (2, "")
        assert err == ("inconclusive: path search for pair (1, 2) on fault set "
                       "vertices [] edges [] exhausted node budget 2\n")

    def test_search_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # the search keeps its own stack, so 1500 path vertices are no deeper
        # for the interpreter than 15
        g = write_graph(tmp_path, cycle(1500), "g.json")
        code, out, _ = run(capsys, "ham", "--graph", g, "--query", "cycle")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["witness"] == list(range(1, 1501))

    def test_fixed_end_path_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        from wheelembed.families import path as path_family
        g = write_graph(tmp_path, path_family(1500), "g.json")
        code, out, _ = run(capsys, "ham", "--graph", g, "--query", "path", "--ends", "1,1500")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["witness"] == list(range(1, 1501))

    @pytest.mark.parametrize("ends", ["1", "1,2,3"])
    def test_malformed_ends(self, capsys, ends):
        code, out, err = run(capsys, "ham", "--graph", str(INPUTS / "petersen-5-2.json"),
                             "--query", "path", "--ends", ends)
        assert (code, out) == (1, "")
        assert err == f"error: --ends must have the form u,v with two vertex ids, got {ends!r}\n"


# (query, family argv of `gen`) -> the whole stdout of `ham --f 2` on that graph
FAILING_CERTIFICATES = {
    ("ffault-ham", ("wheel", "5")): """{
  "f": 2,
  "failing_fault": {
    "edges": [],
    "vertices": [
      1,
      2
    ]
  },
  "query": "ffault-ham",
  "verdict": false,
  "witness": null
}
""",
    ("ffault-trace", ("complete", "5")): """{
  "f": 2,
  "failing_fault": {
    "edges": [
      [
        1,
        2
      ],
      [
        1,
        3
      ]
    ],
    "vertices": []
  },
  "failing_pair": [
    4,
    5
  ],
  "query": "ffault-trace",
  "verdict": false,
  "witness": null
}
""",
    ("ffault-trace", ("circulant", "8", "1", "2")): """{
  "f": 2,
  "failing_fault": {
    "edges": [],
    "vertices": [
      1,
      2
    ]
  },
  "failing_pair": [
    4,
    5
  ],
  "query": "ffault-trace",
  "verdict": false,
  "witness": null
}
""",
}


@pytest.mark.parametrize("query, family", FAILING_CERTIFICATES,
                         ids=lambda key: "-".join(key) if isinstance(key, tuple) else key)
def test_failing_certificate_bytes(capsys, tmp_path, query, family):
    graph = str(tmp_path / "g.json")
    assert run(capsys, "gen", *family, "--out", graph) == (0, "", "")
    assert run(capsys, "ham", "--graph", graph, "--query", query, "--f", "2") == \
        (0, FAILING_CERTIFICATES[query, family], "")


# one or more runs per subcommand of build_parser(); W, C and E name a wheel(6)
# guest, a C6{1,2} host and a median-wheel embedding of the one into the other
OUT_CASES = [
    ("gen", "wheel", "5"),
    ("embed", "--guest", "W", "--host", "C", "--method", "median-wheel"),
    ("metrics", "--guest", "W", "--host", "C", "--embedding", "E"),
    ("metrics", "--guest", "W", "--host", "C", "--embedding", "E", "--format", "json"),
    ("metrics", "--guest", "W", "--host", "C", "--random", "2"),
    ("metrics", "--guest", "W", "--host", "C", "--random", "2", "--format", "json"),
    ("bound", "--metric", "dil", "--guest", "W", "--host", "C"),
    ("bound", "--metric", "wl", "--kind", "wheel", "--host", "C", "--format", "json"),
    ("verify", "dil-hypertree", "--level", "3"),
    ("verify", "ec-windmill", "--sweep", "3..4", "--format", "json"),
    ("ham", "--graph", "C", "--query", "cycle"),
    ("ham", "--graph", "W", "--query", "ffault-trace", "--f", "1"),
    ("oracle", "--guest", "W", "--host", "C", "--metric", "wl"),
    ("export", "--graph", "C"),
    ("export", "--graph", "C", "--guest", "W", "--embedding", "E"),
]


def test_every_subcommand_has_an_out_case():
    from wheelembed.cli import build_parser
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert {argv[0] for argv in OUT_CASES} == set(commands)


@pytest.mark.parametrize("argv", OUT_CASES, ids=" ".join)
def test_out_writes_what_stdout_would_get(capsys, tmp_path, argv):
    guest, host = wheel(6), circulant(6, {1, 2})
    files = {"W": write_graph(tmp_path, guest, "w.json"),
             "C": write_graph(tmp_path, host, "c.json"),
             "E": str(tmp_path / "e.json")}
    (tmp_path / "e.json").write_text(
        embedding_to_json(EMBED_METHODS["median-wheel"](guest, host), "median-wheel"))
    argv = [files.get(arg, arg) for arg in argv]
    code, printed, err = run(capsys, *argv)
    assert (code, err) == (0, "") and printed
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == printed.encode("utf-8")


class TestOracleCommand:
    def test_wirelength(self, capsys, tmp_path):
        from wheelembed.families import cycle, path as path_family
        g = write_graph(tmp_path, cycle(4), "g.json")
        h = write_graph(tmp_path, path_family(4), "h.json")
        code, out, _ = run(capsys, "oracle", "--guest", g, "--host", h, "--metric", "wl")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimum"] == 6
        assert payload["exact"] is True

    def test_route_cap_fallback_is_noted(self, capsys, tmp_path):
        from wheelembed.families import cycle, star
        g = write_graph(tmp_path, star(6), "g.json")
        h = write_graph(tmp_path, cycle(6), "h.json")
        code, out, _ = run(capsys, "oracle", "--guest", g, "--host", h,
                           "--metric", "ec", "--route-cap", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is False
        assert "route-combination cap 1" in payload["notes"]

    def test_search_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # the oracle keeps its own stack: 200 placed guest vertices take no
        # interpreter frames, and the bound prunes every leaf after the first
        from wheelembed.families import wheel
        g = write_graph(tmp_path, wheel(200), "g.json")
        h = write_graph(tmp_path, circulant(200, {1, 2}), "h.json")
        with shallow_recursion_limit():
            code, out, err = run(capsys, "oracle", "--metric", "wl", "--guest", g,
                                 "--host", h, "--limit", "200")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["optimum"], payload["search_space"]) == (5249, 1)
        assert payload["witness_vmap"] == list(range(1, 201))

    def test_limit_violation_exits_one(self, capsys, tmp_path):
        from wheelembed.families import cycle
        g = write_graph(tmp_path, cycle(10), "g.json")
        code, _, _ = run(capsys, "oracle", "--guest", g, "--host", g,
                         "--metric", "dil", "--limit", "9")
        assert code == 1


class TestExport:
    def test_plain_dot(self, capsys, tmp_path):
        from wheelembed.families import cycle
        g = write_graph(tmp_path, cycle(3), "g.json")
        code, out, _ = run(capsys, "export", "--graph", g)
        assert code == 0
        assert out.splitlines()[0] == 'graph "cycle-3" {'
        assert "1 -- 2;" in out

    def test_hypertree_dot_counts(self, capsys, tmp_path):
        g = write_graph(tmp_path, hypertree(4), "g.json")
        code, out, _ = run(capsys, "export", "--graph", g)
        lines = out.splitlines()
        assert sum(1 for line in lines if line.endswith(";") and "--" not in line) == 15
        assert sum(1 for line in lines if "--" in line) == 21

    def test_annotated_labels_sum_to_wirelength(self, capsys, tmp_path):
        from wheelembed.families import windmill
        g = write_graph(tmp_path, windmill(4), "g.json")
        h = write_graph(tmp_path, circulant(8, {1, 2}), "h.json")
        code, _, _ = run(capsys, "embed", "--guest", g, "--host", h, "--method",
                         "windmill", "--out", str(tmp_path / "emb.json"))
        assert code == 0
        code, out, _ = run(capsys, "metrics", "--guest", g, "--host", h,
                           "--embedding", str(tmp_path / "emb.json"), "--format", "json")
        wirelength = json.loads(out)["wirelength"]
        code, out, _ = run(capsys, "export", "--graph", h, "--guest", g,
                           "--embedding", str(tmp_path / "emb.json"))
        assert code == 0
        labels = [int(part.split('"')[1]) for part in out.splitlines() if "label" in part]
        assert sum(labels) == wirelength
        assert len(labels) == len(circulant(8, {1, 2}).edges)  # an unused edge reads 0

    def test_title_escapes_quote_and_backslash(self, capsys, tmp_path):
        from wheelembed.graphs import build_graph
        g = write_graph(tmp_path, build_graph(2, [(1, 2)], 'a"b\\'), "g.json")
        code, out, _ = run(capsys, "export", "--graph", g)
        assert code == 0
        assert out.splitlines()[0] == r'graph "a\"b\\" {'

    def test_missing_file_exits_one(self, capsys):
        code, _, _ = run(capsys, "export", "--graph", "/nonexistent/graph.json")
        assert code == 1


class TestHostileInput:
    @pytest.mark.parametrize("text", [
        '{"edges": 5, "order": 3}',
        '{"order": true, "edges": []}',
        '{"order": 3, "edges": [[1, 2]], "edges": []}',
        pytest.param('{"order": 3, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}",
                     id="nested-too-deeply"),
    ])
    def test_malformed_graph_json(self, tmp_path, text):
        target = tmp_path / "bad.json"
        target.write_text(text)
        assert_one_line_input_error(run_process("ham", "--graph", str(target), "--query", "cycle"))

    def test_empty_route_in_embedding(self, tmp_path):
        g = write_graph(tmp_path, circulant(4, {1}), "g.json")
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"vmap": [1, 2, 3, 4],
                                   "routes": {"1-2": [], "2-3": [2, 3], "3-4": [3, 4],
                                              "1-4": [1, 4]}}))
        assert_one_line_input_error(run_process("metrics", "--guest", g, "--host", g,
                                                "--embedding", str(emb)))

    @pytest.mark.parametrize("routes, message", [
        ('"1-2": [1, 2], "2-1": [2, 1]', "route key (2, 1) is not a guest edge"),
        ('"1-2": [1, 2], "01-2": [1, 4, 3, 2]', "route key '01-2' is not a guest edge"),
        ('"1-2": [1, 4, 3, 2], "1-2": [1, 2]', "repeats the key '1-2'"),
        ('"2-1": [2, 1]', "route key (2, 1) is not a guest edge"),
    ], ids=["reversed-twice", "leading-zero-twice", "repeated", "reversed-alone"])
    def test_route_keys_name_each_guest_edge_once(self, tmp_path, routes, message):
        g = write_graph(tmp_path, circulant(4, {1}), "g.json")
        emb = tmp_path / "emb.json"
        emb.write_text('{"vmap": [1, 2, 3, 4], "routes": {%s, '
                       '"2-3": [2, 3], "3-4": [3, 4], "1-4": [1, 4]}}' % routes)
        proc = run_process("metrics", "--guest", g, "--host", g, "--embedding", str(emb))
        assert_one_line_input_error(proc)
        assert message in proc.stderr

    def test_median_guest_larger_than_host(self, tmp_path):
        g = write_graph(tmp_path, wheel(9), "g.json")
        h = write_graph(tmp_path, circulant(8, {1, 2}), "h.json")
        proc = run_process("embed", "--guest", g, "--host", h, "--method", "median-wheel")
        assert_one_line_input_error(proc)
        assert "equal orders, got 9 vs 8" in proc.stderr

    def test_preorder_guest_larger_than_host(self, tmp_path):
        g = write_graph(tmp_path, star(16), "g.json")
        h = write_graph(tmp_path, hypertree(4), "h.json")
        proc = run_process("embed", "--guest", g, "--host", h, "--method", "preorder")
        assert_one_line_input_error(proc)
        assert "equal orders, got 16 vs 15" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["oracle", "--metric", "dil"], ["oracle", "--metric", "wl"],
        ["oracle", "--metric", "ec"], ["bound", "--metric", "dil"],
        ["bound", "--metric", "ec"], ["metrics", "--random", "2"],
        ["embed", "--method", "identity"],
    ], ids=" ".join)
    def test_unequal_orders_name_one_rule(self, tmp_path, capsys, argv):
        g = write_graph(tmp_path, wheel(9), "g.json")
        h = write_graph(tmp_path, circulant(8, {1, 2}), "h.json")
        assert run(capsys, *argv, "--guest", g, "--host", h) == (
            1, "", "error: expansion-one embedding needs equal orders, got 9 vs 8\n")

    @pytest.mark.parametrize("metric", ["dil", "ec", "wl"])
    def test_bound_on_a_disconnected_host(self, tmp_path, metric):
        g = write_graph(tmp_path, wheel(5), "g.json")
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"order": 5, "edges": [[1, 2], [3, 4]]}))
        # each metric gets only the options it reads
        options = ("--kind", "wheel") if metric == "wl" else ("--guest", g)
        proc = run_process("bound", "--metric", metric, *options, "--host", str(h))
        assert_one_line_input_error(proc)
        assert "connected" in proc.stderr

    @pytest.mark.parametrize("payload", [
        {"vmap": 5, "routes": {}},
        {"vmap": [1, 2, 3, True], "routes": {}},
        {"vmap": [1, 2, 3, 4], "routes": [[1, 2]]},
        {"vmap": [1, 2, 3, 4], "routes": {"1-2": 7}},
        {"vmap": [1, 2, 3, 4], "routes": {"a-b": [1, 2]}},
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deeply"),
    ])
    def test_malformed_embedding_shapes(self, capsys, tmp_path, payload):
        g = write_graph(tmp_path, circulant(4, {1}), "g.json")
        emb = tmp_path / "emb.json"
        emb.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, _, err = run(capsys, "metrics", "--guest", g, "--host", g, "--embedding", str(emb))
        assert code == 1
        assert err.startswith("error: ")


@pytest.mark.parametrize("text", ["not json", '{"order": 2, "edges": [[1, 1]]}'],
                         ids=["parse", "validation"])
@pytest.mark.parametrize("argv", [
    ("oracle", "--guest", "G", "--host", "BAD", "--metric", "dil"),
    ("oracle", "--guest", "BAD", "--host", "G", "--metric", "wl"),
    ("metrics", "--guest", "G", "--host", "G", "--embedding", "BAD"),
    ("export", "--graph", "G", "--guest", "G", "--embedding", "BAD"),
], ids=["oracle-host", "oracle-guest", "metrics-embedding", "export-embedding"])
def test_the_file_that_failed_to_load_is_named(capsys, tmp_path, argv, text):
    files = {"G": write_graph(tmp_path, wheel(6), "good.json"), "BAD": str(tmp_path / "bad.json")}
    (tmp_path / "bad.json").write_text(text)
    code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith(f"error: {files['BAD']}: ")
    assert files["G"] not in err


@pytest.mark.parametrize("argv, family", [
    (("gen", "wheel", "1000000000000"), "wheel"),
    (("verify", "dil-hypertree", "--level", "40"), "hypertree"),
])
def test_out_of_memory_is_one_line(capsys, monkeypatch, argv, family):
    def exhausted(*_):
        raise MemoryError
    monkeypatch.setitem(families_mod._SINGLE_PARAM, family, exhausted)
    assert run(capsys, *argv) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("argv, message", [
    (("metrics", "--guest", "G", "--host", "G", "--random", "1", "--embedding", "M"),
     "metrics --random does not read --embedding"),
    (("metrics", "--guest", "G", "--host", "G", "--embedding", "M", "--seed", "3"),
     "metrics --embedding does not read --seed"),
    (("ham", "--graph", "G", "--query", "cycle", "--ends", "1,2"),
     "ham --query cycle does not read --ends"),
    (("ham", "--graph", "G", "--query", "cycle", "--f", "2"), "ham --query cycle does not read --f"),
    (("ham", "--graph", "G", "--query", "path", "--f", "1"), "ham --query path does not read --f"),
    (("ham", "--graph", "G", "--query", "ffault-trace", "--ends", "1,2"),
     "ham --query ffault-trace does not read --ends"),
    (("bound", "--metric", "dil", "--guest", "G", "--host", "G", "--kind", "fan"),
     "bound --metric dil does not read --kind"),
    (("bound", "--metric", "ec", "--guest", "G", "--host", "G", "--node-limit", "9"),
     "bound --metric ec does not read --node-limit"),
    (("bound", "--metric", "wl", "--kind", "wheel", "--guest", "G", "--host", "G"),
     "bound --metric wl does not read --guest"),
    *((("embed", "--guest", "M", "--host", "M", "--method", method, "--node-limit", "5"),
       f"embed --method {method} does not read --node-limit")
      for method in EMBED_METHODS if not method.startswith("median-")),
    (("export", "--graph", "G", "--guest", "M"),
     "export without --embedding does not read --guest"),
    *((("oracle", "--guest", "G", "--host", "G", "--metric", metric, "--route-cap", "5"),
       f"oracle --metric {metric} does not read --route-cap") for metric in ("dil", "wl")),
])
def test_an_option_the_command_does_not_read_is_an_error(capsys, tmp_path, argv, message):
    # M names no file: an option that is rejected is never read
    files = {"G": write_graph(tmp_path, wheel(6), "g.json"), "M": str(tmp_path / "missing")}
    code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("ham", "--graph", "G", "--query", "cycle", "--node-limit", "0"),
     "wheelembed ham: error: argument --node-limit: expected a positive integer, got 0"),
    (("metrics", "--guest", "G", "--host", "G", "--embedding", "E"),
     "error: {E}: vmap lists 3 images for 6 guest vertices"),
    (("metrics", "--guest", "G", "--host", "G"), "error: metrics needs --embedding or --random"),
    (("bound", "--metric", "wl", "--host", "G"), "error: --metric wl needs --kind wheel|fan"),
    (("bound", "--metric", "dil", "--host", "G"), "error: --metric dil needs --guest"),
    (("export", "--graph", "G", "--embedding", "E"),
     "error: --embedding annotation needs --guest (with --graph as the host)"),
    (("ham", "--graph", "R", "--query", "cycle"), "error: {R}: graph JSON repeats the key 'order'"),
    (("gen", "circulant", "2", "1"), "error: circulant needs order >= 3, got 2"),
    (("gen", "generalized_petersen", "2", "1"), "error: generalized_petersen needs n >= 3, got 2"),
    (("gen", "generalized_petersen", "5"),
     "error: generalized_petersen takes exactly two parameters"),
    (("gen", "path", "0"), "error: path needs order >= 1, got 0"),
    (("gen", "cycle", "2"), "error: cycle needs order >= 3, got 2"),
    (("gen", "complete", "0"), "error: complete needs order >= 1, got 0"),
    (("bound", "--metric", "ec", "--guest", "K", "--host", "K"), "error: host has no edges"),
], ids=" ".join)
def test_each_input_error_is_one_line(capsys, tmp_path, argv, message):
    # in process, each message whole: exit code 1, one stderr line, no stdout
    files = {"G": write_graph(tmp_path, wheel(6), "g.json"),
             "K": write_graph(tmp_path, complete(1), "k1.json"),
             "E": str(tmp_path / "e.json"), "R": str(tmp_path / "r.json")}
    Path(files["E"]).write_text(json.dumps({"vmap": [1, 2, 3], "routes": {}}))
    Path(files["R"]).write_text('{"order": 3, "order": 3, "edges": [[1, 2]]}')
    code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert (code, out, err) == (1, "", message.format(**files) + "\n")


def test_version_exits_zero(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "wheelembed" in out


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "gen" in out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=4),
    max_leaves=10)
VERTEX_LISTS = st.lists(st.integers(-1, 8), max_size=8)
NEAR_GRAPHS = st.fixed_dictionaries(
    {"order": st.integers(-1, 8) | JSON_VALUES,
     "edges": st.lists(st.lists(st.integers(0, 8) | JSON_VALUES, max_size=3), max_size=10)
     | JSON_VALUES},
    optional={"name": JSON_VALUES})


@st.composite
def cli_files(draw):
    """Guest, host and embedding file texts. A graph is well formed (one shared
    order, at most 7) half the time; otherwise, like the embedding, it is a
    near miss, a JSON value of any shape, or not JSON at all."""
    n = draw(st.integers(1, 7))
    guest, host = draw(graphs(n, n)), draw(graphs(n, n))
    vmap = draw(st.permutations(range(1, n + 1)))
    hops = {f"{u}-{v}": [vmap[u - 1], vmap[v - 1]] for u, v in guest.edge_list()}
    keys = st.sampled_from(["1-2", "2-3", "1-3", "2-1", "1-", "x-2"]) | st.text("0123456789-",
                                                                                max_size=4)
    routes = st.just(hops) | st.dictionaries(keys, VERTEX_LISTS | JSON_VALUES, max_size=6)
    near_embedding = st.fixed_dictionaries({"vmap": st.just(vmap) | VERTEX_LISTS | JSON_VALUES,
                                            "routes": routes | JSON_VALUES})

    def text(G, near):
        if G is not None and draw(st.booleans()):
            return graph_to_json(G)
        return draw(near.map(json.dumps) | JSON_VALUES.map(json.dumps) | st.text(max_size=8))

    return {"G": text(guest, NEAR_GRAPHS), "H": text(host, NEAR_GRAPHS),
            "E": text(None, near_embedding)}


COMMANDS = [
    ["metrics", "--guest", "G", "--host", "H", "--embedding", "E", "--format", "json"],
    ["metrics", "--guest", "G", "--host", "H", "--random", "2"],
    ["export", "--graph", "H"],
    ["export", "--graph", "H", "--guest", "G", "--embedding", "E"],
    *(["ham", "--graph", "G", "--query", query, "--node-limit", "50"]
      for query in ("cycle", "path", "ffault-ham", "ffault-trace")),
    *(["bound", "--metric", metric, "--guest", "G", "--host", "H"] for metric in ("dil", "ec")),
    ["bound", "--metric", "wl", "--host", "H", "--kind", "wheel", "--node-limit", "50"],
    *(["oracle", "--metric", metric, "--guest", "G", "--host", "H"]
      for metric in ("dil", "ec", "wl")),
    *(["embed", "--guest", "G", "--host", "H", "--method", method,
       *(["--node-limit", "50"] if method.startswith("median-") else [])]
      for method in EMBED_METHODS),
]


@given(files=cli_files(), argv=st.sampled_from(COMMANDS))
@settings(max_examples=150, deadline=None)
def test_malformed_json_shapes_end_in_an_exit_code(tmp_path_factory, files, argv):
    folder = tmp_path_factory.mktemp("shapes")
    for key, text in files.items():
        (folder / key).write_text(text, encoding="utf-8")
    argv = [str(folder / arg) if arg in files else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
