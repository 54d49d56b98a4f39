import json
import math
import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_congestion,
    brute_min_congestion,
    brute_running_minima,
    connected_graphs,
    labelled_graphs,
    reference_pending,
    reference_prior_neighbors,
    shallow_recursion_limit,
)
from wheelembed.embedding import embed_wheel_like_into_tree_host, evaluate, route_shortest
from wheelembed.families import (
    circulant,
    complete,
    complete_binary_tree,
    cycle,
    fan,
    friendship,
    generalized_petersen,
    hypertree,
    path,
    sibling_tree,
    star,
    torus,
    wheel,
    windmill,
    x_tree,
)
from wheelembed.graphs import all_pairs_distances, build_graph
from wheelembed.oracle import (
    DEFAULT_ROUTE_CAP,
    _check_instance,
    _min_congestion_for_choices,
    _placement_tables,
    _run_partitioned,
    exact_congestion,
    exact_dilation,
    exact_wirelength,
)


class TestExactDilation:
    def test_star_into_hypertree(self):
        result = exact_dilation(star(7), hypertree(3))
        assert result.optimum == 2
        assert result.exact

    def test_matches_constructions_at_level3(self):
        for guest in (wheel(7), fan(7), friendship(3), star(7)):
            emb = embed_wheel_like_into_tree_host(guest, hypertree(3))
            constructed = evaluate(emb).max_dilation
            assert exact_dilation(emb.guest, emb.host).optimum == constructed == 2

    def test_identity_is_optimal_for_cycle(self):
        result = exact_dilation(cycle(5), cycle(5))
        assert result.optimum == 1
        assert result.witness_vmap == (1, 2, 3, 4, 5)

    def test_limit_enforced(self):
        with pytest.raises(ValueError, match="limit"):
            exact_dilation(cycle(10), cycle(10), limit=9)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="orders"):
            exact_dilation(cycle(4), cycle(5))

    def test_disconnected_host_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            exact_dilation(path(4), build_graph(4, [(1, 2), (3, 4)]))

    @pytest.mark.parametrize("solve", [exact_dilation, exact_congestion, exact_wirelength])
    def test_disconnected_host_rejected_before_distance_rows(self, monkeypatch, solve):
        # connectivity is read off the edges, so no all-pairs row is built
        calls = []
        monkeypatch.setattr("wheelembed.oracle.all_pairs_distances",
                            lambda G: calls.append(G) or all_pairs_distances(G))
        with pytest.raises(ValueError, match=r"^oracle requires a connected host$"):
            solve(path(4), build_graph(4, [(1, 2), (3, 4)]))
        assert calls == []
        solve(path(4), cycle(4))
        assert calls == [cycle(4)]


class TestExactWirelength:
    def test_square_into_path(self):
        result = exact_wirelength(cycle(4), path(4))
        assert result.optimum == 6

    def test_wheel_into_circulant(self):
        result = exact_wirelength(wheel(8), circulant(8, {1, 2}))
        assert result.optimum == 17

    def test_never_beats_distance_sums(self):
        # for any fixed bijection, shortest routing equals the image distance sum
        guest, host = star(6), cycle(6)
        dist = all_pairs_distances(host)
        result = exact_wirelength(guest, host)
        best_by_hand = min(
            sum(dist[images[0]][images[g - 1]] for g in range(2, 7))
            for images in __import__("itertools").permutations(range(1, 7))
        )
        assert result.optimum == best_by_hand


class TestExactCongestion:
    def test_windmill_into_circulant(self):
        result = exact_congestion(windmill(4), circulant(8, {1, 2}))
        assert result.optimum == 2
        assert not result.exact  # host has cycles, so the routing space was restricted
        assert "shortest paths" in result.notes

    def test_square_into_path(self):
        result = exact_congestion(cycle(4), path(4))
        assert result.optimum == 2
        assert result.exact  # tree host: unique paths, nothing restricted

    def test_star_identity(self):
        result = exact_congestion(star(4), star(4))
        assert result.optimum == 1
        assert result.exact
        assert result.witness_vmap == (1, 2, 3, 4)

    def test_tree_test_needs_a_connected_host(self):
        # a triangle plus an isolated vertex has n - 1 edges but is no tree
        host = build_graph(4, [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError, match=r"^oracle requires a connected host$"):
            exact_congestion(star(4), host)
        assert exact_congestion(star(7), complete_binary_tree(3)).exact


class TestRouteCapFallback:
    """Bijections whose shortest-route product exceeds `route_cap` are
    routed on each edge's lex-least route; the result then says so and is
    not exact."""

    @pytest.mark.parametrize("guest,host", [
        (star(6), cycle(6)),
        (wheel(6), circulant(6, {1, 2})),
        # a 4-cycle plus a pendant: the lex-least routes give 4, the
        # lex-greatest ones 5
        (complete(5), build_graph(5, [(1, 2), (1, 5), (2, 4), (3, 5), (4, 5)])),
    ])
    def test_capped_search_agrees_across_modes(self, guest, host):
        capped = exact_congestion(guest, host, route_cap=1)
        assert not capped.exact
        assert "route-combination cap 1" in capped.notes
        assert brute_congestion(guest, host, 1) == (capped.optimum, capped.witness_vmap)
        parallel = exact_congestion(guest, host, route_cap=1, jobs=2)
        assert (parallel.optimum, parallel.witness_vmap, parallel.notes) == (
            capped.optimum, capped.witness_vmap, capped.notes)


EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


class TestOracleExhaustiveCongestion:
    """The benchmark's congestion instances, built in-process, reproduce its
    recorded CLI outputs field for field."""

    @pytest.mark.parametrize("guest,host,name", [
        (wheel(9), circulant(9, {1, 3}), "ec-wheel9-circulant9"),
        (wheel(9), torus([3, 3]), "ec-wheel9-torus3x3"),
        (windmill(4), circulant(8, {1, 2}), "ec-windmill4-circulant8"),
        (star(7), complete_binary_tree(3), "ec-star7-cbt3"),
    ])
    def test_matches_recorded_output(self, guest, host, name):
        expected = json.loads((EXPECTED / f"{name}.out").read_text())
        result = exact_congestion(guest, host)
        assert {**vars(result), "witness_vmap": list(result.witness_vmap)} == expected


class TestDeterminismAndPruning:
    """The pruned search against brute force over every bijection in
    lexicographic order: `brute_running_minima` for dilation and wirelength,
    `brute_congestion` under the same route cap for congestion."""

    INSTANCES = [
        (cycle(5), cycle(5)),
        (star(5), path(5)),
        (wheel(5), complete(5)),
        (cycle(6), circulant(6, {1, 2})),
    ]

    @staticmethod
    def assert_matches_brute_force(guest, host, route_cap=DEFAULT_ROUTE_CAP):
        for runner, minimax in ((exact_dilation, True), (exact_wirelength, False)):
            result = runner(guest, host)
            assert (result.optimum, result.witness_vmap) == brute_running_minima(
                guest, host, minimax)[1:]
        result = exact_congestion(guest, host, route_cap=route_cap)
        assert (result.optimum, result.witness_vmap) == brute_congestion(
            guest, host, route_cap)

    @pytest.mark.parametrize("guest,host", INSTANCES)
    def test_pruned_equals_unpruned(self, guest, host):
        self.assert_matches_brute_force(guest, host)

    @given(st.integers(3, 6).flatmap(
        lambda n: st.tuples(connected_graphs(n, n), connected_graphs(n, n))),
        st.sampled_from([1, 2, 4, DEFAULT_ROUTE_CAP]))
    @settings(max_examples=50, deadline=None)
    def test_pruning_never_changes_the_answer(self, pair, route_cap):
        self.assert_matches_brute_force(*pair, route_cap)

    @given(st.integers(3, 7).flatmap(
        lambda n: st.tuples(connected_graphs(n, n), connected_graphs(n, n))))
    @settings(max_examples=40, deadline=None)
    def test_search_space_counts_strict_running_minima(self, pair):
        # the bound at a leaf is its exact value, so with pruning the leaves
        # reached are the strict running minima in lexicographic order,
        # whatever admissible bound prunes above them
        guest, host = pair
        for runner, minimax in ((exact_dilation, True), (exact_wirelength, False)):
            result = runner(guest, host)
            assert (result.search_space, result.optimum, result.witness_vmap) == (
                brute_running_minima(guest, host, minimax))

    @pytest.mark.parametrize("guest,host", INSTANCES[:2])
    def test_parallel_matches_serial(self, guest, host):
        for runner in (exact_dilation, exact_wirelength, exact_congestion):
            serial = runner(guest, host, jobs=1)
            parallel = runner(guest, host, jobs=2)
            assert serial.optimum == parallel.optimum
            assert serial.witness_vmap == parallel.witness_vmap

    def test_witness_achieves_optimum(self):
        guest, host = wheel(6), circulant(6, {1, 2})
        result = exact_wirelength(guest, host)
        emb = route_shortest(guest, host, dict(zip(guest.vertices(), result.witness_vmap)))
        assert evaluate(emb).wirelength == result.optimum


class TestAssignmentBound:
    """Nodes the search expands (pushes onto its stack, leaves included) on
    the benchmark's wirelength instances and the level-4 dilation theorems,
    and on four congestion instances with their leaves.
    Charging each placed vertex for its unplaced neighbors by the free
    distances from its image needs a handful of nodes per level; one per
    unclosed edge needed 1 362 387, 206 303 and 111 075 wirelength nodes, and
    the cost alone 130 693 and 31 629 dilation nodes on the last two rows."""

    @pytest.mark.parametrize("guest,host,minimax,nodes", [
        (wheel(11), circulant(11, {1, 2}), False, 12),
        (fan(10), circulant(10, {1, 3}), False, 11),
        (wheel(10), generalized_petersen(5, 2), False, 40),
        (star(15), hypertree(4), True, 16),
        (wheel(15), x_tree(4), True, 24),
        (wheel(15), hypertree(4), True, 130),
        (wheel(15), sibling_tree(4), True, 958),
    ])
    def test_node_count(self, guest, host, minimax, nodes):
        dist = _check_instance(guest, host, guest.order)
        assert _run_partitioned(guest, dist, 1, minimax=minimax)[4] == nodes

    @pytest.mark.parametrize("guest,host,nodes,search_space", [
        (wheel(9), circulant(9, {1, 3}), 10, 1),
        (wheel(9), torus([3, 3]), 10, 1),
        (windmill(4), circulant(8, {1, 2}), 9, 1),
        (star(7), complete_binary_tree(3), 3922, 1441),
    ])
    def test_congestion_node_count(self, monkeypatch, guest, host, nodes, search_space):
        # exact_congestion drops the node count, so a spy on the search reads it
        counts = []
        monkeypatch.setattr("wheelembed.oracle._run_partitioned",
                            lambda *args, **kwargs: counts.append(
                                _run_partitioned(*args, **kwargs)) or counts[-1])
        result = exact_congestion(guest, host)
        assert (counts[-1][4], result.search_space) == (nodes, search_space)


class TestPlacementTables:
    """The one sweep over the placement order against the tables counted
    afresh for every k."""

    @staticmethod
    def assert_matches_reference(guest):
        prior, pending, both_free = _placement_tables(guest)
        assert prior == reference_prior_neighbors(guest)
        assert (pending, both_free) == reference_pending(guest)

    def test_every_labelled_graph_up_to_5_vertices(self):
        for guest in labelled_graphs(5):
            self.assert_matches_reference(guest)

    @pytest.mark.parametrize("family,least", [(wheel, 4), (fan, 3), (star, 2)])
    def test_hub_families_up_to_order_12(self, family, least):
        for n in range(least, 13):
            self.assert_matches_reference(family(n))

    def test_windmills_up_to_order_12(self):
        for k in range(2, 7):
            self.assert_matches_reference(windmill(k))


class TestPartitionsReduceToTheSerialRun:
    """star(6) on path(6) has optimal bijections with the hub on 3 and on 4,
    and none with it on 1: the pool's partitions must reduce to the serial
    run's optimum and lex-least witness, not to the first partition's."""

    def test_optimal_bijections_span_several_partitions(self):
        guest, host = star(6), path(6)
        dist = all_pairs_distances(host)
        optimum = exact_wirelength(guest, host).optimum
        firsts = {images[0] for images in permutations(host.vertices())
                  if sum(dist[images[u - 1]][images[v - 1]] for u, v in guest.edges) == optimum}
        assert firsts == {3, 4}
        for runner in (exact_dilation, exact_wirelength, exact_congestion):
            serial = runner(guest, host)
            parallel = runner(guest, host, jobs=2)
            assert serial.witness_vmap[0] == 3
            assert (parallel.optimum, parallel.witness_vmap, parallel.exact) == (
                serial.optimum, serial.witness_vmap, serial.exact)


def random_choices(rng, edges, routes):
    """Up to `edges` guest edges, each with 1..`routes` routes, a route
    being 1..3 distinct edges of K5."""
    pairs = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    return [[tuple(rng.sample(pairs, rng.randint(1, 3))) for _ in range(rng.randint(1, routes))]
            for _ in range(rng.randint(0, edges))]


class TestCongestionLeaf:
    """The one congestion leaf search, capped leaves included, against
    brute force over every route combination."""

    @pytest.mark.parametrize("routes", [1, 3], ids=["one-route-per-edge", "up-to-three"])
    def test_matches_product_brute_force(self, routes):
        rng = random.Random(routes)
        for _ in range(200):
            choices = random_choices(rng, 6, routes)
            upper = rng.choice([math.inf, rng.randint(1, 4)])
            optimum = brute_min_congestion(choices)
            expected = optimum if optimum < upper else None
            assert _min_congestion_for_choices(choices, upper) == expected

    def test_upper_at_or_below_the_optimum_gives_none(self):
        rng = random.Random(7)
        for _ in range(100):
            choices = random_choices(rng, 6, 3)
            optimum = brute_min_congestion(choices)
            assert _min_congestion_for_choices(choices, math.inf) == optimum
            for upper in range(optimum + 1):
                assert _min_congestion_for_choices(choices, upper) is None

    def test_no_edges_give_zero(self):
        assert _min_congestion_for_choices([], math.inf) == 0
        assert _min_congestion_for_choices([], 1) == 0
        assert _min_congestion_for_choices([], 0) is None


class TestDeeperThanTheRecursionLimit:
    """The search, its route enumeration and its congestion leaf keep their
    own stacks, so an instance deeper than the interpreter's recursion limit
    gets the same result as at the normal limit."""

    def test_wirelength_search(self):
        guest, host = wheel(200), circulant(200, {1, 2})
        with shallow_recursion_limit():
            result = exact_wirelength(guest, host, limit=200)
        assert (result.optimum, result.search_space) == (5249, 1)
        assert result.witness_vmap == tuple(range(1, 201))

    def test_congestion_routes_and_leaf(self):
        # the identity places the cycle's closing edge on the path host's
        # 39-hop route, and the leaf search places 40 routes one under another
        expected = exact_congestion(cycle(40), path(40), limit=40)
        with shallow_recursion_limit():
            result = exact_congestion(cycle(40), path(40), limit=40)
        assert result == expected
        assert (result.optimum, result.exact, result.search_space) == (2, True, 1)


class TestOracleAgreesWithConstructions:
    def test_windmill_congestion_small(self):
        # construction value for n=3 equals the exhaustive optimum
        result = exact_congestion(windmill(4), circulant(8, {1, 2}))
        from wheelembed.embedding import embed_windmill_into_circulant
        emb = embed_windmill_into_circulant(windmill(4), circulant(8, {1, 2}))
        assert result.optimum == evaluate(emb).max_congestion == 2

    def test_median_wheel_wirelength_small(self):
        from wheelembed.embedding import embed_wheel_via_median
        host = circulant(6, {1, 2})
        constructed = evaluate(embed_wheel_via_median(wheel(6), host)).wirelength
        assert exact_wirelength(wheel(6), host).optimum == constructed
