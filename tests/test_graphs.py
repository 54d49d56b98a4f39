import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_distances,
    connected_graphs,
    graphs,
    record_bfs,
    reference_bfs_parents,
    reference_is_connected,
    sparse_graphs,
)
from wheelembed import graphs as graphs_mod
from wheelembed.embedding import route_shortest
from wheelembed.families import (circulant, cycle, generalized_petersen, hypertree, path, star,
                                 wheel, windmill)
from wheelembed.graphs import (
    Graph,
    all_pairs_distances,
    bfs_parents,
    build_graph,
    graph_from_json,
    graph_to_json,
    has_universal_vertex,
    is_connected,
    max_degree,
    radius_diameter,
    shells,
    single_source_distances,
    status_and_median,
)
from wheelembed.hamiltonian import find_hamiltonian_path, is_f_fault_hamiltonian


class TestBuildGraph:
    def test_triangle(self):
        G = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        assert G.order == 3
        assert G.edges == {(1, 2), (2, 3), (1, 3)}

    def test_square(self):
        G = build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert len(G.edges) == 4
        assert G.degree(1) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(1, 2), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_graph(3, [(1, 4)])

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            build_graph(0, [])

    def test_bool_order_and_endpoints_rejected(self):
        with pytest.raises(ValueError, match="order"):
            build_graph(True, [])
        with pytest.raises(ValueError, match="integers"):
            build_graph(3, [(True, 2)])

    def test_edgeless_graph_allowed(self):
        # fault-deleted subgraphs may be disconnected yet must be representable
        G = build_graph(2, [])
        assert not is_connected(G)


class TestDistanceRows:
    def test_row_layout(self):
        # index 0 names no vertex and holds 0; -1 marks unreachable vertices
        G = build_graph(4, [(1, 2), (2, 3)])
        assert single_source_distances(G, 1) == (0, 0, 1, 2, -1)
        assert single_source_distances(G, 4) == (0, -1, -1, -1, 0)
        # the all-pairs rows stack them under an empty row 0
        assert all_pairs_distances(G) == [(), *(single_source_distances(G, v)
                                               for v in G.vertices())]

    def test_row_rejects_bad_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            single_source_distances(cycle(5), 6)
        with pytest.raises(ValueError, match="outside"):
            single_source_distances(cycle(5), 0)

    def test_rows_are_computed_once(self, monkeypatch):
        # radius and medians come from the ball pass, a shell reads the row
        # of its center, and the all-pairs rows one row per vertex
        runs = record_bfs(monkeypatch)
        G = hypertree(4)
        radius_diameter(G)
        status_and_median(G)
        assert runs == []
        shells(G, 3)
        assert [s for _, s in runs] == [3]
        all_pairs_distances(G)
        assert [s for _, s in runs[1:]] == list(G.vertices())
        assert all(graph is G for graph, _ in runs)

    def test_connectivity_runs_no_bfs_and_builds_no_adjacency(self, monkeypatch):
        runs = record_bfs(monkeypatch)
        G, H = cycle(6), build_graph(6, [(1, 2), (3, 4), (4, 5), (5, 6)])
        assert is_connected(G) and not is_connected(H)
        assert runs == []
        assert "adjacency" not in vars(G) and "adjacency" not in vars(H)

    def test_cache_leaves_equality_and_hash_alone(self):
        G, H = circulant(8, {1, 2}), circulant(8, {1, 2})
        before = hash(G)
        assert G == H and hash(G) == hash(H)
        status_and_median(G)
        assert {"adjacency", "_ball_pass"} <= set(vars(G))
        assert not {"adjacency", "_ball_pass"} & set(vars(H))
        assert G == H and hash(G) == hash(H) == before
        assert len({G, H}) == 1
        assert G != circulant(8, {1, 3})
        # a pickle round trip keeps equality and hash, filled caches or not
        for graph in (G, H):
            again = pickle.loads(pickle.dumps(graph))
            assert again == G and hash(again) == before and again.name == G.name
            assert again.adjacency == G.adjacency
            assert status_and_median(again) == status_and_median(G)

    def test_census_loop_builds_no_adjacency(self):
        # the fault-census loop: build, test connectivity, sweep the connected
        for order, edges in ((5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]),
                             (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
                             (4, [(1, 2), (3, 4)]),
                             (1, [])):
            G = Graph(order, frozenset(edges))
            if is_connected(G) and is_f_fault_hamiltonian(G, 2).verdict:
                assert find_hamiltonian_path(G) is not None
            assert "adjacency" not in vars(G)


class TestDistances:
    def test_cycle_distance(self):
        dist = all_pairs_distances(cycle(5))
        assert dist[1][3] == 2
        assert dist[1][4] == 2

    def test_hypertree_root_row(self):
        dist = all_pairs_distances(hypertree(4))
        assert max(dist[1]) == 3

    def test_disconnected_pair_is_unreachable(self):
        dist = all_pairs_distances(build_graph(2, []))
        assert dist[1][2] == dist[2][1] == -1
        assert dist[1][1] == 0

    def test_radius_diameter_path(self):
        assert radius_diameter(path(5)) == (2, 4)

    def test_radius_hypertree(self):
        r, d = radius_diameter(hypertree(4))
        assert r == 3
        assert r <= d <= 2 * r

    def test_vertex_transitive_circulant_radius_equals_diameter(self):
        r, d = radius_diameter(circulant(16, {1, 4}))
        assert r == d

    def test_ball_pass_runs_once_per_instance(self, monkeypatch):
        calls = []
        kernel = graphs_mod._ball_growth
        monkeypatch.setattr(graphs_mod, "_ball_growth",
                            lambda G: calls.append(G) or kernel(G))
        G = hypertree(4)
        radius_diameter(G)
        status_and_median(G)
        radius_diameter(G)
        assert len(calls) == 1 and calls[0] is G
        H = hypertree(4)
        status_and_median(H)
        assert len(calls) == 2 and calls[-1] is H

    def test_radius_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            radius_diameter(build_graph(2, []))

    @pytest.mark.parametrize("G", [
        build_graph(4, [(1, 2), (2, 3), (1, 3)]),          # an isolated vertex
        build_graph(5, [(1, 2), (3, 4), (4, 5)]),          # components of sizes 2 and 3
        build_graph(2, []),
    ], ids=["isolated-vertex", "unequal-components", "edgeless-order-2"])
    def test_ball_pass_rejects_disconnected_without_bfs(self, monkeypatch, G):
        runs = record_bfs(monkeypatch)
        for invariant in (radius_diameter, status_and_median):
            with pytest.raises(ValueError,
                               match=rf"^{invariant.__name__} requires a connected graph$"):
                invariant(G)
        assert runs == []

    def test_order_one_graph_is_connected(self):
        G = build_graph(1, [])
        assert radius_diameter(G) == (0, 0)
        assert status_and_median(G) == ((1,), 0)


class TestMedianAndShells:
    def test_path_median(self):
        assert status_and_median(path(5)) == ((3,), 6)

    def test_circulant_all_median(self):
        medians, delta = status_and_median(circulant(8, {1, 2}))
        assert medians == tuple(range(1, 9))
        assert delta == 10

    def test_petersen_all_median(self):
        medians, delta = status_and_median(generalized_petersen(5, 2))
        assert medians == tuple(range(1, 11))
        assert delta == 15

    def test_median_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            status_and_median(build_graph(3, [(1, 2)]))

    def test_star_hub_shell(self):
        assert shells(star(5), 1) == (frozenset({2, 3, 4, 5}),)

    def test_cycle_shells(self):
        layers = shells(cycle(6), 1)
        assert tuple(map(len, layers)) == (2, 2, 1)
        assert layers == (frozenset({2, 6}), frozenset({3, 5}), frozenset({4}))

    def test_hypertree_root_shells(self):
        assert tuple(map(len, shells(hypertree(3), 1))) == (2, 4)

    def test_shells_reject_bad_vertex(self):
        with pytest.raises(ValueError, match=r"^vertex 7 outside 1\.\.6$"):
            shells(cycle(6), 7)
        with pytest.raises(ValueError, match="^shells requires a connected graph$"):
            shells(build_graph(4, [(1, 2), (3, 4)]), 1)

    def test_shells_partition(self):
        layers = shells(cycle(6), 2)
        assert all(type(layer) is frozenset for layer in layers)
        everything = set()
        for layer in layers:
            assert not everything & layer
            everything |= layer
        assert everything == set(range(1, 7)) - {2}


class TestBfsParents:
    def test_full_search_reaches_the_component_in_fifo_order(self):
        G = build_graph(6, [(1, 3), (1, 2), (2, 4), (3, 4), (5, 6)])
        parents = bfs_parents(G, 1)
        assert list(parents.items()) == [(1, 0), (2, 1), (3, 1), (4, 2)]

    def test_targets_equal_to_the_source_stop_at_once(self):
        assert bfs_parents(cycle(5), 3, [3, 3]) == {3: 0}
        assert bfs_parents(cycle(5), 3, []) == {3: 0}

    def test_search_stops_at_its_last_target(self):
        # 2 and 6 are both at distance 2 from 4; 6 is met last, and the
        # search returns right after it, before reaching 1 and 7
        G = path(9)
        assert list(bfs_parents(G, 4, [2, 6])) == [4, 3, 5, 2, 6]
        assert list(bfs_parents(G, 4, [6, 2])) == [4, 3, 5, 2, 6]

    def test_unreachable_targets_run_out_the_component(self):
        G = build_graph(5, [(1, 2), (2, 3), (4, 5)])
        assert bfs_parents(G, 1, [3, 4]) == bfs_parents(G, 1) == {1: 0, 2: 1, 3: 2}
        assert bfs_parents(G, 1, [9]) == bfs_parents(G, 1)

    def test_both_callers_name_a_source_outside_the_graph(self):
        G = cycle(5)
        for bad in (0, 6):
            message = rf"^vertex {bad} outside 1\.\.5$"
            with pytest.raises(ValueError, match=message):
                bfs_parents(G, bad)
            with pytest.raises(ValueError, match=message):
                single_source_distances(G, bad)
            with pytest.raises(ValueError, match=message):
                route_shortest(G, G, {1: bad, 2: 2, 3: 3, 4: 4, 5: 5})


@given(graphs(max_order=10) | sparse_graphs(max_order=14), st.data())
@settings(max_examples=150)
def test_bfs_parents_with_targets_is_a_prefix_of_the_full_search(G, data):
    # the full search equals a layer-by-layer reference, and a search for
    # targets (some unreachable or outside G) reads the same parents as far
    # as it goes: up to its last target, or the whole component
    source = data.draw(st.integers(1, G.order))
    targets = data.draw(st.lists(st.integers(0, G.order + 1), max_size=4))
    full = bfs_parents(G, source)
    assert list(full.items()) == list(reference_bfs_parents(G, source).items())
    found = bfs_parents(G, source, targets)
    order = list(full)
    if all(t in full for t in targets):
        assert len(found) == max(map(order.index, targets), default=0) + 1
    else:
        assert len(found) == len(full)
    assert list(found.items()) == list(full.items())[:len(found)]


class TestDegrees:
    def test_wheel_universal_hub(self):
        G = wheel(8)
        assert has_universal_vertex(G) == 1
        assert max_degree(G) == 7

    def test_cycle_has_no_universal_vertex(self):
        assert has_universal_vertex(cycle(5)) is None

    def test_two_jump_circulant(self):
        G = circulant(16, {1, 4})
        assert max_degree(G) == 4
        assert has_universal_vertex(G) is None


@pytest.mark.parametrize("build", [
    lambda: circulant(600, {1, 7}),
    lambda: graph_from_json(graph_to_json(circulant(600, {1, 7}))),
    lambda: windmill(300),
], ids=["circulant-600", "from-json", "windmill-300"])
def test_edge_endpoints_share_one_object_per_vertex_id(build):
    # ints above 256 are new objects wherever they are computed or parsed
    G = build()
    assert len({id(x) for edge in G.edges for x in edge}) == G.order


class TestJsonRoundTrip:
    def test_round_trip(self):
        G = hypertree(4)
        again = graph_from_json(graph_to_json(G))
        assert again.order == G.order
        assert again.edges == G.edges
        assert again.name == G.name

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            graph_from_json('{"order": 3}')

    def test_invalid_edge_shape_rejected(self):
        with pytest.raises(ValueError):
            graph_from_json('{"order": 3, "edges": [[1, 2, 3]]}')

    def test_non_list_edges_rejected(self):
        with pytest.raises(ValueError, match="list"):
            graph_from_json('{"order": 3, "edges": 5}')


@given(graphs(max_order=8))
@settings(max_examples=80)
def test_rows_match_floyd_warshall(G):
    oracle = brute_distances(G)
    dist = all_pairs_distances(G)
    for u in G.vertices():
        row = single_source_distances(G, u)
        assert row[0] == 0 and len(row) == G.order + 1
        assert dist[u] == row
        for v in G.vertices():
            expected = oracle[(u, v)]
            assert row[v] == (-1 if expected == math.inf else expected)
    assert is_connected(G) == (math.inf not in oracle.values())


@given(graphs(max_order=10) | sparse_graphs(max_order=12, max_degree=2))
@example(build_graph(1, []))
@example(build_graph(4, [(1, 2), (2, 3), (1, 3)]))  # an isolated vertex
@example(build_graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)]))  # two components
@example(build_graph(3, []))
@settings(max_examples=150)
def test_union_find_connectivity_matches_bfs(G):
    assert is_connected(G) == reference_is_connected(G)


@given(graphs(max_order=7))
@settings(max_examples=60)
def test_distances_symmetric_and_triangular(G):
    dist = all_pairs_distances(G)
    oracle = brute_distances(G)
    for u in G.vertices():
        assert dist[u][u] == 0
        for v in G.vertices():
            assert dist[u][v] == dist[v][u] == (-1 if oracle[(u, v)] == math.inf
                                                else oracle[(u, v)])
            for w in G.vertices():
                if dist[u][v] >= 0 and dist[v][w] >= 0:
                    assert 0 <= dist[u][w] <= dist[u][v] + dist[v][w]


@given(connected_graphs(max_order=8))
@settings(max_examples=60)
def test_shell_status_matches_distance_sums(G):
    dist = all_pairs_distances(G)
    medians, delta = status_and_median(G)
    for u in G.vertices():
        total = sum(dist[u])
        layers = shells(G, u)
        sizes = tuple(dist[u].count(d) for d in range(1, max(dist[u]) + 1))
        assert tuple(map(len, layers)) == sizes
        assert sum(d * len(layer) for d, layer in enumerate(layers, 1)) == total
        assert set().union(*layers) == set(G.vertices()) - {u}
        assert sum(map(len, layers)) == G.order - 1
        assert all(dist[u][v] == d for d, layer in enumerate(layers, 1) for v in layer)
        assert (total == delta) == (u in medians)


@given(connected_graphs(min_order=1, max_order=8))
@settings(max_examples=80)
def test_ball_growth_matches_floyd_warshall(G):
    oracle = brute_distances(G)
    eccs = [max(oracle[(u, v)] for v in G.vertices()) for u in G.vertices()]
    statuses = [sum(oracle[(u, v)] for v in G.vertices()) for u in G.vertices()]
    kernel_eccs, kernel_statuses = graphs_mod._ball_growth(G)
    assert (kernel_eccs[1:], kernel_statuses[1:]) == (eccs, statuses)
    assert radius_diameter(G) == (min(eccs), max(eccs))
    best = min(statuses)
    assert status_and_median(G) == (
        tuple(u for u in G.vertices() if statuses[u - 1] == best), best)


@given(graphs(max_order=8))
@settings(max_examples=80)
def test_ball_growth_decides_connectivity(G):
    disconnected = math.inf in brute_distances(G).values()
    assert (graphs_mod._ball_growth(G) is None) == disconnected


@given(connected_graphs(max_order=8))
@settings(max_examples=60)
def test_radius_diameter_bounds(G):
    r, d = radius_diameter(G)
    assert r <= d <= 2 * r


@given(graphs(max_order=9) | sparse_graphs(max_order=14))
@example(build_graph(1, []))
@example(build_graph(5, []))
@example(build_graph(2, [(1, 2)]))
@settings(max_examples=100)
def test_universal_vertex_matches_degree(G):
    # both count degrees from the edges, so neither builds the adjacency
    G = build_graph(G.order, G.edge_list())  # a fresh instance, whatever ran before
    top, u = max_degree(G), has_universal_vertex(G)
    assert "adjacency" not in vars(G)
    degrees = [G.degree(v) for v in G.vertices()]
    assert top == max(degrees)
    assert u == next((v for v in G.vertices() if degrees[v - 1] == G.order - 1), None)
