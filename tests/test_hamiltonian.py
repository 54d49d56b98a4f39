import json
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    _reference_feasible,
    brute_spanning_paths,
    connected_graphs,
    graphs,
    labelled_graphs,
    nodes_spent,
    reference_cycle_search,
    reference_fault_sets,
    reference_fault_sweep,
    reference_path_search,
    sparse_graphs,
)
from wheelembed import hamiltonian
from wheelembed.families import circulant, complete, cycle, generalized_petersen, path, torus
from wheelembed.graphs import build_graph, edge_key, graph_from_json, is_connected
from wheelembed.hamiltonian import (
    SearchBudgetExceeded,
    _class_ends,
    _colour_classes,
    _cycle_search,
    _known_cycle,
    _masks,
    _path_search,
    _rotations,
    _survivors,
    _witness_bits,
    fault_specs,
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    is_f_fault_hamiltonian,
    is_f_fault_traceable,
    is_hypohamiltonian,
)

PETERSEN = generalized_petersen(5, 2)
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def assert_valid_cycle(G, witness, excluded=frozenset()):
    expected = set(G.vertices()) - set(excluded)
    assert set(witness) == expected and len(witness) == len(expected)
    ring = list(witness) + [witness[0]]
    for a, b in zip(ring, ring[1:]):
        assert G.has_edge(a, b)


def assert_valid_path(G, witness):
    assert set(witness) == set(G.vertices()) and len(witness) == G.order
    for a, b in zip(witness, witness[1:]):
        assert G.has_edge(a, b)


class TestSearch:
    def test_petersen_has_no_cycle(self):
        assert find_hamiltonian_cycle(PETERSEN) is None

    def test_petersen_has_a_path(self):
        witness = find_hamiltonian_path(PETERSEN)
        assert witness is not None
        assert_valid_path(PETERSEN, witness)

    def test_circulant_cycle(self):
        witness = find_hamiltonian_cycle(circulant(8, {1, 2}))
        assert witness is not None
        assert_valid_cycle(circulant(8, {1, 2}), witness)

    def test_witness_is_deterministic_and_lex_least_start(self):
        witness = find_hamiltonian_cycle(cycle(6))
        assert witness == (1, 2, 3, 4, 5, 6)
        assert find_hamiltonian_cycle(cycle(6)) == witness

    def test_path_with_fixed_ends(self):
        witness = find_hamiltonian_path(path(4), ends=(1, 4))
        assert witness == (1, 2, 3, 4)
        assert find_hamiltonian_path(path(4), ends=(2, 3)) is None

    def test_excluded_vertices(self):
        witness = find_hamiltonian_cycle(complete(5), without_vertices=(1, 2))
        assert witness == (3, 4, 5)

    def test_excluded_edges(self):
        G = cycle(5)
        assert find_hamiltonian_cycle(G, without_edges=((1, 2),)) is None

    def test_small_graphs_have_no_cycle(self):
        assert find_hamiltonian_cycle(build_graph(2, [(1, 2)])) is None
        assert find_hamiltonian_cycle(build_graph(1, [])) is None

    def test_disconnected_graph(self):
        G = build_graph(4, [(1, 2), (3, 4)])
        assert find_hamiltonian_cycle(G) is None
        assert find_hamiltonian_path(G) is None

    def test_budget_exhaustion_is_not_a_verdict(self):
        with pytest.raises(SearchBudgetExceeded):
            find_hamiltonian_cycle(circulant(12, {1, 2, 3}), node_limit=3)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            find_hamiltonian_cycle(cycle(4), node_limit=0)

    def test_failed_vertex_must_be_a_vertex(self):
        for bad in (0, 5):
            with pytest.raises(ValueError, match=rf"^vertex {bad} outside 1\.\.4$"):
                find_hamiltonian_cycle(cycle(4), without_vertices=(bad,))

    def test_failed_edge_must_be_an_edge(self):
        G = cycle(10)
        for bad in ((1, 99), (1, 3)):
            with pytest.raises(ValueError, match=rf"failed edge \({bad[0]}, {bad[1]}\)"):
                find_hamiltonian_cycle(G, without_edges=[bad])
            with pytest.raises(ValueError, match="not an edge"):
                find_hamiltonian_path(G, without_edges=[bad])
        assert find_hamiltonian_path(G, without_edges=[(2, 1)]) == (1,) + tuple(range(10, 1, -1))

    def test_parity_answers_without_a_search(self):
        # the 35 survivors of torus 6x6 minus a vertex are bipartite, 17 against 18
        G = torus((6, 6))
        assert find_hamiltonian_cycle(G, without_vertices=(1,), node_limit=1) is None
        assert find_hamiltonian_path(G, (1, 2), without_vertices=(3,), node_limit=1) is None

    def test_bipartition(self):
        def classes(G):
            return _colour_classes(*_survivors(G, _masks(G)))

        def allowed_ends(G):
            return [(s, t) for s, t in permutations(G.vertices(), 2)
                    if _class_ends(classes(G), s) >> t & 1]

        # path(4) has classes {1, 3} and {2, 4}: ends in opposite classes, and
        # the mask from 1 meets its neighbour 2, so a cycle is not ruled out
        assert classes(path(4)) == (0b1010, 0b10100)
        assert _class_ends(classes(path(4)), 1) == 0b10100
        assert allowed_ends(path(4)) == [(1, 2), (1, 4), (2, 1), (2, 3),
                                         (3, 2), (3, 4), (4, 1), (4, 3)]
        # path(5) has classes {1, 3, 5} and {2, 4}: a path from the larger
        # class ends in it, none starts in the smaller, and the mask from 1
        # misses its neighbour 2, so there is no cycle
        assert classes(path(5)) == (0b101010, 0b10100)
        assert _class_ends(classes(path(5)), 1) == 0b101010
        assert _class_ends(classes(path(5)), 2) == 0
        assert allowed_ends(path(5)) == [(1, 3), (1, 5), (3, 1), (3, 5), (5, 1), (5, 3)]
        # a star on four vertices has classes of one and three: no path at all
        star = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        assert [_class_ends(classes(star), v) for v in star.vertices()] == [0, 0, 0, 0]
        # an odd cycle or a disconnected graph has no classes and is not ruled on
        for G in (cycle(5), build_graph(4, [(1, 2), (3, 4)])):
            assert classes(G) == ()
            assert [_class_ends(classes(G), v) for v in G.vertices()] == [-1] * G.order

    def test_bad_ends_are_reported_before_parity(self):
        for ends in ((1, 1), (1, 5), (0, 2)):
            with pytest.raises(ValueError, match="distinct surviving vertices"):
                find_hamiltonian_path(path(4), ends)

    def test_budget_message_names_the_search(self):
        with pytest.raises(SearchBudgetExceeded,
                           match=r"^cycle search exhausted node budget 3$"):
            find_hamiltonian_cycle(circulant(12, {1, 2, 3}), node_limit=3)
        with pytest.raises(SearchBudgetExceeded,
                           match=r"^path search for pair \(1, 2\) exhausted node budget 5$"):
            find_hamiltonian_path(PETERSEN, (1, 2), node_limit=5)
        with pytest.raises(SearchBudgetExceeded,
                           match=r"^cycle search on fault set vertices \[\] edges \[\[5, 6\]\] "
                                 r"exhausted node budget 5$"):
            is_f_fault_hamiltonian(complete(6), 1, node_limit=5)


def _input(name):
    return graph_from_json((INPUTS / f"{name}.json").read_text())


# smallest node_limit under which each query completes; a change here means
# the search expands different nodes, not just that it got faster or slower
NODE_BUDGETS = [
    ("cycle-petersen5", lambda L: find_hamiltonian_cycle(PETERSEN, node_limit=L), 58, None),
    ("path-petersen5", lambda L: find_hamiltonian_path(PETERSEN, node_limit=L), 10,
     (1, 2, 3, 4, 5, 10, 7, 9, 6, 8)),
    ("path-petersen5-ends", lambda L: find_hamiltonian_path(PETERSEN, (1, 2), node_limit=L),
     47, None),
    ("fham3-complete9",
     lambda L: is_f_fault_hamiltonian(complete(9), 3, node_limit=L).verdict, 19, True),
    # a sweep's limit is that of its largest search; sets answered by an
    # earlier witness are not searched
    ("fham2-circulant16",
     lambda L: is_f_fault_hamiltonian(_input("circulant-16-1-2-4"), 2, node_limit=L).verdict,
     21, True),
    # the search that set the row above before witnesses were reused
    ("cycle-circulant16-minus-2-edges",
     lambda L: find_hamiltonian_cycle(_input("circulant-16-1-2-4"),
                                      without_edges=[(13, 15), (15, 16)], node_limit=L),
     20, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12, 16, 14, 15)),
    ("ftrace1-circulant16",
     lambda L: is_f_fault_traceable(circulant(16, {1, 2}), 1, node_limit=L).verdict, 536, True),
    ("fham1-torus3x3",
     lambda L: is_f_fault_hamiltonian(torus((3, 3)), 1, node_limit=L).verdict, 12, True),
    # needs the test that a cycle's path still has an end left to stay at 19
    ("cycle-torus3x3-minus-edge",
     lambda L: find_hamiltonian_cycle(torus((3, 3)), without_edges=[(5, 8)], node_limit=L),
     19, (1, 2, 5, 4, 6, 3, 9, 8, 7)),
    ("cycle-petersen23",
     lambda L: find_hamiltonian_cycle(_input("petersen-23-2"), node_limit=L), 42353, None),
    # vertex 29 keeps only the neighbours 28 and 1 on the set that fails the
    # edges (27, 29) and (29, 30), the largest search of the sweep; 29 is the
    # weak vertex from the root of each path on, and a search that forgot it
    # below the root spent 172931 nodes
    ("fham2-circulant30",
     lambda L: is_f_fault_hamiltonian(circulant(30, {1, 2}), 2, node_limit=L).verdict,
     322, True),
]


@pytest.mark.parametrize("query, limit, expected", [row[1:] for row in NODE_BUDGETS],
                         ids=[row[0] for row in NODE_BUDGETS])
def test_node_budget_is_unchanged(query, limit, expected):
    assert query(limit) == expected
    with pytest.raises(SearchBudgetExceeded):
        query(limit - 1)


# a relabelling of a census graph of order 5: on the path 1, 2, 4 of its
# cycle search, 3 has had the one usable neighbour 4 since the root of the
# path from 2, and 5 has just lost 2, so a full check prunes the node; a
# check of the neighbours of 2 alone sees only 5 and expands it
WEAK_CARRIED = build_graph(5, [(1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)])


@pytest.mark.parametrize("G", [PETERSEN, torus((3, 3)), circulant(8, {1, 2}), WEAK_CARRIED],
                         ids=["petersen5", "torus3x3", "circulant8", "census5-weak-carried"])
def test_a_cycle_search_checks_each_degree_once(G, monkeypatch):
    # `_cycle_search` checks every degree against the survivor graph, so the
    # root of its path from a, the least neighbour of s = 1, checks only the
    # other neighbours of s, which lost s, and a path search's root checks
    # every unvisited vertex; below a root, every query checks the unvisited
    # neighbours of the parent end, the only vertices that lost a usable
    # neighbour, and carries the parent's weak vertex, so every node gets the
    # verdict of a full check
    calls = []
    feasible = hamiltonian._feasible

    def recording(adj, check, unvisited, weak, ends, cur, goal):
        verdict = feasible(adj, check, unvisited, weak, ends, cur, goal)
        calls.append((check, unvisited, goal, ends, cur, verdict))
        return verdict

    def recorded(query):
        calls.clear()
        query(G)
        return list(calls)

    monkeypatch.setattr(hamiltonian, "_feasible", recording)
    adj, n = _masks(G), G.order
    precheck, *cycle = recorded(find_hamiltonian_cycle)
    assert precheck[0] == (1 << n + 1) - 2 and cycle
    # a root has n - 2 unvisited vertices in a cycle search, n - 1 in a path search
    assert all(check == (adj[1] & unvisited if unvisited.bit_count() == n - 2 else goal)
               for check, unvisited, goal, *_ in cycle)
    nodes = list(cycle)
    for query in (find_hamiltonian_path, lambda G: find_hamiltonian_path(G, (1, 2))):
        paths = recorded(query)
        assert all(check == (unvisited if unvisited.bit_count() == n - 1 else goal)
                   for check, unvisited, goal, *_ in paths)
        nodes += paths
    assert all((verdict >= 0) == _reference_feasible(adj, unvisited, ends, cur)
               for _, unvisited, _, ends, cur, verdict in nodes)


class TestFaultEnumeration:
    def test_canonical_order(self):
        G = path(3)
        specs = list(fault_specs(G, 2))
        assert specs[0] == ((), ())
        assert specs[1:4] == [((v,), ()) for v in (1, 2, 3)]
        assert specs[4:6] == [((), (e,)) for e in [(1, 2), (2, 3)]]
        # size two: vertex pairs, then edge pairs, then mixed
        assert specs[6] == ((1, 2), ())
        assert specs[9] == ((), ((1, 2), (2, 3)))
        # mixed: an edge at the failed vertex would repeat an earlier survivor graph
        assert specs[10] == ((1,), ((2, 3),))
        assert len(specs) == 12

    @pytest.mark.parametrize("G, f", [(path(3), 2), (complete(5), 3), (PETERSEN, 2),
                                      (complete(3), 8), (cycle(4), 10)])
    def test_no_set_fails_an_edge_at_a_failed_vertex(self, G, f):
        # the last two budgets exceed n + |E|, past the largest fault set
        assert list(fault_specs(G, f)) == list(reference_fault_sets(G, f))

    def test_a_budget_past_every_fault_set_stops_there(self, monkeypatch):
        # K1 has two fault sets; sizes past n + |E| = 1 would each run their
        # size - 1 mixed splits, about f**2 / 2 calls in all
        calls = []
        combinations = hamiltonian.combinations
        monkeypatch.setattr(hamiltonian, "combinations",
                            lambda *args: calls.append(args) or combinations(*args))
        assert list(fault_specs(complete(1), 2000)) == [((), ()), ((1,), ())]
        assert len(calls) == 2

    def test_budget_must_be_non_negative(self):
        with pytest.raises(ValueError):
            list(fault_specs(path(3), -1))


class TestFaultHamiltonian:
    def test_complete_graph_f2(self):
        assert is_f_fault_hamiltonian(complete(5), 2).verdict

    def test_cycle_fails_at_first_vertex(self):
        report = is_f_fault_hamiltonian(cycle(5), 1)
        assert not report.verdict
        assert report.failing_fault == ((1,), ())

    def test_circulant_is_one_fault_hamiltonian(self):
        report = is_f_fault_hamiltonian(circulant(8, {1, 2}), 1)
        assert report.verdict
        assert_valid_cycle(circulant(8, {1, 2}), report.witness)

    def test_zero_fault_matches_plain_search(self):
        for G in (PETERSEN, cycle(5), complete(4)):
            report = is_f_fault_hamiltonian(G, 0)
            assert report.verdict == (find_hamiltonian_cycle(G) is not None)

    def test_two_fault_sweep_of_circulant30_fits_its_budget(self):
        # every spanning cycle of the set that fails (27, 29) and (29, 30)
        # passes 28, 29, 1; searched in both directions, it ran out here
        assert is_f_fault_hamiltonian(circulant(30, {1, 2}), 2, node_limit=200_000).verdict

    def test_monotonic_in_f(self):
        for G in (complete(5), complete(6), circulant(8, {1, 2})):
            verdicts = [is_f_fault_hamiltonian(G, f).verdict for f in (0, 1, 2)]
            for weaker, stronger in zip(verdicts, verdicts[1:]):
                assert weaker or not stronger


class TestFaultTraceable:
    def test_path_interior_pair_fails_with_no_faults(self):
        report = is_f_fault_traceable(path(4), 0)
        assert not report.verdict
        assert report.failing_fault == ((), ())
        assert report.failing_pair is not None

    def test_k4_fails_under_one_edge_fault(self):
        # K4 minus one edge has no spanning path between the two vertices of
        # degree 3, so by the literal definition K4 is not 1-fault traceable
        report = is_f_fault_traceable(complete(4), 1)
        assert not report.verdict
        assert report.failing_fault == ((), ((1, 2),))
        assert report.failing_pair == (3, 4)

    def test_k4_is_zero_fault_traceable(self):
        assert is_f_fault_traceable(complete(4), 0).verdict

    def test_k5_is_one_fault_traceable(self):
        assert is_f_fault_traceable(complete(5), 1).verdict

    def test_circulant_verdict(self):
        report = is_f_fault_traceable(circulant(8, {1, 2}), 1)
        assert report.verdict


class TestHypohamiltonian:
    def test_petersen(self):
        assert is_hypohamiltonian(PETERSEN)
        for v in PETERSEN.vertices():
            witness = find_hamiltonian_cycle(PETERSEN, without_vertices=(v,))
            assert witness is not None
            assert_valid_cycle(PETERSEN, witness, excluded={v})

    def test_hamiltonian_graph_is_not(self):
        assert not is_hypohamiltonian(cycle(5))

    def test_fewer_than_four_vertices_is_not(self):
        # deleting a vertex leaves at most two, which hold no cycle
        assert not any(is_hypohamiltonian(G) for G in labelled_graphs(3))

    def test_cycle_minus_vertex_is_a_path(self):
        # a plain cycle is not hypohamiltonian either: it is hamiltonian itself
        assert not is_hypohamiltonian(cycle(7))


@given(graphs(max_order=6))
@settings(max_examples=60, deadline=None)
def test_zero_fault_equivalence(G):
    assert is_f_fault_hamiltonian(G, 0).verdict == (find_hamiltonian_cycle(G) is not None)


@given(graphs(max_order=6))
@settings(max_examples=40, deadline=None)
def test_cycle_witnesses_are_valid(G):
    witness = find_hamiltonian_cycle(G)
    if witness is not None:
        assert_valid_cycle(G, witness)
    path_witness = find_hamiltonian_path(G)
    if path_witness is not None:
        assert_valid_path(G, path_witness)


@st.composite
def bipartite_graphs(draw, max_order=8):
    """(G, side): G on at most `max_order` vertices has only edges between
    the two classes of `side` (one bool per vertex); possibly disconnected."""
    n = draw(st.integers(1, max_order))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u, v in combinations(range(1, n + 1), 2) if side[u - 1] != side[v - 1]]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    return build_graph(n, edges), side


@st.composite
def faulted_graphs(draw, base=connected_graphs(min_order=1, max_order=7)):
    G = draw(base)
    vertices = draw(st.sets(st.sampled_from(list(G.vertices())), max_size=2))
    edges = draw(st.sets(st.sampled_from(G.edge_list()), max_size=2)) if G.edges else set()
    return G, sorted(vertices), sorted(edges)


@given(faulted_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_witnesses_match_brute_force(case, data):
    G, vertices, edges = case
    faults = {"without_vertices": vertices, "without_edges": edges}
    paths = list(brute_spanning_paths(G, vertices, edges))
    cycles = [p for p in paths if len(p) >= 3 and p[0] == min(p)
              and G.has_edge(p[-1], p[0]) and edge_key(p[-1], p[0]) not in edges]
    assert find_hamiltonian_cycle(G, **faults) == (cycles[0] if cycles else None)
    assert find_hamiltonian_path(G, **faults) == (paths[0] if paths else None)
    alive = [v for v in G.vertices() if v not in vertices]
    if len(alive) >= 2:
        ends = tuple(data.draw(st.permutations(alive))[:2])
        joining = [p for p in paths if (p[0], p[-1]) == ends]
        assert find_hamiltonian_path(G, ends, **faults) == (joining[0] if joining else None)


def assert_search_matches_the_recursive_reference(case, query, data):
    # same witness and same nodes spent as the recursive search it replaced,
    # which checks every degree and floods every unvisited vertex at every node
    G, vertices, edges = case
    adj, alive = _survivors(G, _masks(G), vertices, edges)
    if query == "cycle":
        searches, extra = (_cycle_search, reference_cycle_search), ()
    else:
        ends = None
        if query == "ends":
            survivors = [v for v in G.vertices() if v not in vertices]
            assume(len(survivors) >= 2)
            ends = tuple(data.draw(st.permutations(survivors))[:2])
        searches, extra = (_path_search, reference_path_search), (ends,)
    search, reference = searches
    assert nodes_spent(search, adj, alive, *extra) == nodes_spent(reference, adj, alive, *extra)


QUERIES = st.sampled_from(["cycle", "path", "ends"])


@given(faulted_graphs(graphs(max_order=8) | bipartite_graphs().map(lambda case: case[0])),
       QUERIES, st.data())
@settings(max_examples=300, deadline=None)
def test_search_matches_the_recursive_reference(case, query, data):
    assert_search_matches_the_recursive_reference(case, query, data)


@st.composite
def petersen_graphs(draw):
    n = draw(st.integers(5, 7))
    return generalized_petersen(n, draw(st.integers(1, (n - 1) // 2)))


TWO_CYCLES = build_graph(9, [(1, 2), (2, 3), (3, 4), (1, 4),
                             (5, 6), (6, 7), (7, 8), (8, 9), (5, 9)])


# graphs where a parent end is often a cut vertex deep in the search, so the
# flood that stops at the parent's neighbours is tested against a full one;
# the root alone must find that two cycles are not connected
@given(faulted_graphs(sparse_graphs(min_order=9, max_order=14, max_degree=3)
                      | petersen_graphs()), QUERIES, st.data())
@example((TWO_CYCLES, [], []), "cycle", None)
@example((TWO_CYCLES, [], []), "path", None)
@settings(max_examples=150, deadline=None)
def test_sparse_search_matches_the_recursive_reference(case, query, data):
    assert_search_matches_the_recursive_reference(case, query, data)


@given(bipartite_graphs())
@settings(max_examples=150, deadline=None)
def test_parity_agrees_with_brute_force(case):
    G, side = case
    coloured = _colour_classes(*_survivors(G, _masks(G)))
    adj = _masks(G)

    def ends(s):
        return _class_ends(coloured, s)

    paths = list(brute_spanning_paths(G))
    cycles = [p for p in paths if len(p) >= 3 and G.has_edge(p[-1], p[0])]
    if not is_connected(G):  # not ruled on, and there is nothing to find
        assert all(ends(v) == -1 for v in G.vertices())
        assert not paths
    else:
        # a connected graph's classes are those of `side`, up to a swap
        classes = [sum(1 << v for v in G.vertices() if side[v - 1] == flag)
                   for flag in (True, False)]
        big, small = sorted(classes, key=int.bit_count, reverse=True)
        gap = big.bit_count() - small.bit_count()
        for s, t in permutations(G.vertices(), 2):
            expected = (gap == 0 and (big >> s & 1) != (big >> t & 1)
                        or gap == 1 and big >> s & big >> t & 1 == 1)
            assert ends(s) >> t & 1 == expected
        # a cycle from 1 is a path to a neighbour of 1
        if G.order >= 2:
            assert bool(ends(1) & adj[1]) == (gap == 0)
    # the rule is sound: every spanning path ends where the mask of its
    # start allows, and every spanning cycle closes on a neighbour in it
    assert all(ends(p[0]) >> p[-1] & 1 for p in paths if len(p) >= 2)
    assert all(ends(p[0]) & adj[p[0]] for p in cycles)
    # with the parity masks in front, the answers are still the brute-force ones
    assert find_hamiltonian_cycle(G) == next((p for p in cycles if p[0] == 1), None)
    assert find_hamiltonian_path(G) == (paths[0] if paths else None)


@st.composite
def dense_graphs(draw):
    """Complete graphs on at most seven vertices minus a few edges: many of
    them pass every fault set of size two, so the mixed sets get searched."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    removed = draw(st.sets(st.sampled_from(pairs), max_size=n // 2)) if pairs else set()
    return build_graph(n, [p for p in pairs if p not in removed])


@given(st.one_of(graphs(max_order=6), dense_graphs()), st.integers(0, 2), st.booleans())
@settings(max_examples=80, deadline=None)
def test_fault_sweeps_match_the_reference(G, f, traceable):
    sweep = is_f_fault_traceable if traceable else is_f_fault_hamiltonian
    report = sweep(G, f)
    assert (report.verdict, report.witness, report.failing_fault, report.failing_pair) == \
        reference_fault_sweep(G, f, traceable)


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("traceable", [False, True], ids=["hamiltonian", "traceable"])
def test_sweep_differential_on_every_graph_up_to_5_vertices(traceable, f):
    # exhaustive where the property test above samples: skipping what found
    # walks, their Pósa rotations and cycle shortcuts answer must leave every
    # report that of one search per query
    sweep = is_f_fault_traceable if traceable else is_f_fault_hamiltonian
    for G in labelled_graphs(5):
        report = sweep(G, f)
        assert (report.verdict, report.witness, report.failing_fault, report.failing_pair) == \
            reference_fault_sweep(G, f, traceable), sorted(G.edges)


def edges_of(walk, bits):
    """The edges whose bits make up `walk`."""
    return {e for e, bit in bits.items() if e[0] < e[1] and walk & bit}


def test_a_shortcut_answers_only_sets_whose_failed_edges_it_avoids():
    # the cycle 1-2-3-4-5 of K5, kept for no failed vertex, skips 2 by the
    # edge (1, 3); the shortcut 1-3-4-5 answers vertex 2 with an edge off it
    G = complete(5)
    bits = _witness_bits(G)
    order = [1, 2, 3, 4, 5]
    walk = sum(bits[e] for e in zip(order, order[1:] + order[:1]))
    shortcut = walk - bits[1, 2] - bits[2, 3] + bits[1, 3]
    for failed_edge, answered in (((1, 3), False), ((4, 5), False), ((1, 4), True)):
        found = {(): [(walk, order)]}
        assert _known_cycle(found, (2,), bits[failed_edge], bits) == answered
        assert found.get((2,)) == ([(shortcut, [1, 3, 4, 5])] if answered else None)
    # kept for vertex 2, the shortcut answers it again only without its edges
    assert _known_cycle(found, (2,), bits[3, 5], bits)
    assert not _known_cycle(found, (2,), bits[3, 4], bits)
    # a shortcut of a triangle is no cycle
    triangle = [1, 2, 3]
    found = {(): [(sum(bits[e] for e in [(1, 2), (2, 3), (3, 1)]), triangle)]}
    assert not _known_cycle(found, (2,), 0, bits)


@given(connected_graphs(min_order=2, max_order=7), st.data())
@settings(max_examples=100, deadline=None)
def test_every_rotation_is_a_spanning_path_between_its_ends(G, data):
    paths = list(brute_spanning_paths(G))
    assume(paths)
    path = list(data.draw(st.sampled_from(paths)))
    bits = _witness_bits(G)
    walk = sum(bits[e] for e in zip(path, path[1:]))
    rotations = list(_rotations(path, walk, bits, _masks(G), (1 << G.order + 1) - 2))
    # one per edge from either end to a vertex other than its path neighbour
    degree = {v: sum(G.has_edge(v, w) for w in G.vertices()) for v in G.vertices()}
    assert len(rotations) == degree[path[0]] + degree[path[-1]] - 2
    for u, v, rotated in rotations:
        assert any({p[0], p[-1]} == {u, v} and edges_of(rotated, bits)
                   == {edge_key(a, b) for a, b in zip(p, p[1:])} for p in paths)


def count_searches(monkeypatch) -> list[int]:
    """A one-item list that counts the cycle and path searches a sweep runs."""
    calls = [0]
    for name in ("_cycle_search", "_path_search"):
        def counting(*args, search=getattr(hamiltonian, name)):
            calls[0] += 1
            return search(*args)
        monkeypatch.setattr(hamiltonian, name, counting)
    return calls


# the searches a true sweep still runs; fewer means that more queries are
# answered by walks found earlier. Reusing a walk only for the same failed
# vertices and pair, without rotations or shortcuts, ran 512, 312, 183, 2645
# and 9396
SWEEP_SEARCHES = [
    ("fham3-complete9", lambda: is_f_fault_hamiltonian(complete(9), 3), 82),
    ("fham2-circulant16", lambda: is_f_fault_hamiltonian(_input("circulant-16-1-2-4"), 2), 68),
    ("fham2-circulant12", lambda: is_f_fault_hamiltonian(_input("circulant-12-1-2-3"), 2), 33),
    ("ftrace1-circulant16", lambda: is_f_fault_traceable(circulant(16, {1, 2}), 1), 975),
    ("ftrace1-circulant24", lambda: is_f_fault_traceable(circulant(24, {1, 2}), 1), 3827),
]


@pytest.mark.parametrize("sweep, searches", [row[1:] for row in SWEEP_SEARCHES],
                         ids=[row[0] for row in SWEEP_SEARCHES])
def test_a_sweep_searches_only_what_no_found_walk_answers(sweep, searches, monkeypatch):
    calls = count_searches(monkeypatch)
    assert sweep().verdict
    assert calls == [searches]


def test_the_two_fault_census_searches_49463_cycles(monkeypatch):
    # every connected labelled graph on at most six vertices, as in the
    # benchmark's census job; 64600 searches without cycle shortcuts
    calls = count_searches(monkeypatch)
    verdicts = [is_f_fault_hamiltonian(G, 2).verdict
                for G in labelled_graphs(6) if is_connected(G)]
    assert (len(verdicts), sum(verdicts), calls) == (27476, 77, [49463])


def test_a_traceable_sweep_colours_each_survivor_graph_once(monkeypatch):
    # every pair of a fault set reads the same colour classes; a set whose
    # pairs are all answered by earlier paths builds no survivor graph
    built, coloured = [], []
    survivors, colour = hamiltonian._survivors, hamiltonian._colour_classes
    monkeypatch.setattr(hamiltonian, "_survivors",
                        lambda *args: built.append(args[2:]) or survivors(*args))
    monkeypatch.setattr(hamiltonian, "_colour_classes",
                        lambda adj, alive: coloured.append(alive) or colour(adj, alive))
    G = circulant(16, {1, 2})
    assert is_f_fault_traceable(G, 1).verdict
    assert len(list(fault_specs(G, 1))) == 49
    assert len(coloured) == len(built) == len(set(built)) == 47


@pytest.mark.parametrize("sweep", [is_f_fault_hamiltonian, is_f_fault_traceable])
def test_sweeps_consume_every_fault_set(sweep, monkeypatch):
    # a set answered by an earlier witness is skipped, not left unread
    yielded = []
    specs = hamiltonian.fault_specs

    def counting(G, f):
        for spec in specs(G, f):
            yielded.append(spec)
            yield spec

    monkeypatch.setattr(hamiltonian, "fault_specs", counting)
    assert sweep(complete(6), 2).verdict
    assert yielded == list(specs(complete(6), 2))
