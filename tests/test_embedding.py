import random
import tracemalloc
from collections.abc import Mapping, MutableMapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_lex_route,
    connected_graphs,
    graphs,
    hop_congestion,
    reference_hop_loads,
    reference_route_checks,
    reference_routes,
    reference_walk_forest,
    windmill_four_range_routes,
)
from wheelembed.embedding import (
    EmbeddingMap,
    HostNotHamiltonianError,
    RouteForest,
    _walk_forest,
    build_embedding,
    embed_fan_via_median,
    embed_wheel_like_into_tree_host,
    embed_wheel_via_median,
    embed_windmill_into_circulant,
    evaluate,
    preorder_sequence,
    route_shortest,
)
from wheelembed.bounds import GUEST_KINDS, _hub_guest
from wheelembed.families import (
    circulant,
    complete,
    cycle,
    fan,
    friendship,
    generalized_petersen,
    hypertree,
    sibling_tree,
    star,
    torus,
    wheel,
    windmill,
    x_tree,
)
from wheelembed import embedding as embedding_mod
from wheelembed.graphs import all_pairs_distances, bfs_parents, build_graph


def identity(G):
    return {v: v for v in G.vertices()}


def windmill_instance(n):
    """The windmill of order 2**n and its host C_{2**n}{1, 2**(n-2)}."""
    return windmill(2 ** (n - 1)), circulant(2 ** n, {1, 2 ** (n - 2)})


class TestRouteShortestAndEvaluate:
    def test_identity_cycle(self):
        G = cycle(4)
        emb = route_shortest(G, G, identity(G))
        metrics = evaluate(emb)
        assert all(d == 1 for d in metrics.dil_per_edge.values())
        assert (metrics.wirelength, metrics.max_dilation, metrics.max_congestion) == (4, 1, 1)

    def test_single_edge(self):
        G = build_graph(2, [(1, 2)])
        emb = route_shortest(G, G, identity(G))
        assert emb.routes[(1, 2)] == (1, 2)

    def test_wheel_into_circulant_spoke_distances(self):
        guest, host = wheel(8), circulant(8, {1, 2})
        emb = route_shortest(guest, host, identity(guest))
        # distance from vertex 1 at ring offset k is ceil(min(k, 8-k) / 2)
        for g in range(2, 9):
            offset = min(g - 1, 8 - (g - 1))
            expected = -(offset // -2)
            assert len(emb.routes[(1, g)]) - 1 == expected

    def test_lexicographic_tie_break(self):
        guest = build_graph(4, [(1, 2)])
        host = cycle(4)
        emb = route_shortest(guest, host, {1: 1, 2: 3, 3: 2, 4: 4})
        # (1, 2, 3) and (1, 4, 3) are both shortest; the smaller sequence wins
        assert emb.routes[(1, 2)] == (1, 2, 3)

    def test_routes_are_shortest(self):
        guest, host = wheel(9), torus([3, 3])
        emb = route_shortest(guest, host, identity(guest))
        dist = all_pairs_distances(host)
        for (u, v), route in emb.routes.items():
            assert len(route) - 1 == dist[emb.vmap[u]][emb.vmap[v]]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="orders"):
            route_shortest(cycle(4), cycle(5), {1: 1, 2: 2, 3: 3, 4: 4})

    def test_guest_vertex_without_an_image_is_named(self):
        with pytest.raises(ValueError, match="^vmap has no image for guest vertex 5$"):
            route_shortest(wheel(5), cycle(5), {1: 1, 2: 2, 3: 3, 4: 4})
        # an isolated guest vertex is named too, before any edge is routed
        with pytest.raises(ValueError, match="^vmap has no image for guest vertex 3$"):
            route_shortest(build_graph(3, [(1, 2)]), cycle(3), {1: 1, 2: 2})

    def test_non_bijection_rejected(self):
        G = cycle(4)
        with pytest.raises(ValueError, match="bijection"):
            route_shortest(G, G, {1: 1, 2: 1, 3: 3, 4: 4})

    def test_first_edge_without_a_path_is_named(self):
        # guest vertices 1 and 3 share an image, so the edges from image 1 are
        # (1, 2) and (3, 4); (2, 4) comes between them and fails first
        guest = build_graph(4, [(1, 2), (2, 4), (3, 4)])
        host = build_graph(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match=r"^host has no path between 2 and 4$"):
            route_shortest(guest, host, {1: 1, 2: 2, 3: 1, 4: 4})

    def test_missing_path_precedes_a_later_bad_image(self):
        guest = build_graph(4, [(1, 2), (1, 3)])
        host = build_graph(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match=r"^host has no path between 1 and 3$"):
            route_shortest(guest, host, {1: 1, 2: 3, 3: 9, 4: 4})

    @pytest.mark.parametrize("vmap, bad", [
        ({1: 1, 2: 7, 3: 3, 4: 4}, 7),
        ({1: 0, 2: 2, 3: 3, 4: 4}, 0),
        ({1: 5, 2: 6, 3: 3, 4: 4}, 5),  # both ends of (1, 2) outside: the source is named
    ])
    def test_image_outside_the_host_is_named(self, vmap, bad):
        G = cycle(4)
        with pytest.raises(ValueError, match=rf"^vertex {bad} outside 1\.\.4$"):
            route_shortest(G, G, vmap)

    def test_routing_leaves_no_per_source_state_on_the_host(self):
        guest, host = wheel(16), circulant(16, {1, 2})
        route_shortest(guest, host, {g: 17 - g for g in guest.vertices()})
        # besides its fields, the host caches only its adjacency
        assert set(vars(host)) == {"order", "edges", "name", "adjacency"}

    def test_evaluate_hands_out_its_own_congestion_map(self):
        G = cycle(4)
        emb = route_shortest(G, G, identity(G))
        evaluate(emb).cong_per_edge[(1, 2)] += 5
        assert evaluate(emb).cong_per_edge == hop_congestion(emb)

    def test_embedding_map_names_a_non_edge_hop(self):
        # an EmbeddingMap built directly makes build_embedding's hop check
        G = cycle(4)
        routes = {e: e for e in G.edges}
        routes[(1, 2)] = (1, 3, 2)
        with pytest.raises(ValueError, match=r"\(1, 2\) uses the non-edge \(1, 3\)"):
            EmbeddingMap(G, G, identity(G), routes)


class TestBuildEmbeddingValidation:
    def test_route_must_join_images(self):
        G = cycle(4)
        routes = {e: e for e in G.edges}
        routes[(1, 2)] = (1, 4)
        with pytest.raises(ValueError, match="join"):
            build_embedding(G, G, identity(G), routes)

    def test_route_must_follow_host_edges(self):
        G = cycle(4)
        routes = {e: e for e in G.edges}
        routes[(1, 2)] = (1, 3, 2)
        with pytest.raises(ValueError, match="non-edge"):
            build_embedding(G, G, identity(G), routes)

    def test_route_may_not_repeat_vertices(self):
        guest = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        host = complete(3)
        routes = {(1, 2): (1, 2), (2, 3): (2, 3), (1, 3): (1, 2, 1, 3)}
        with pytest.raises(ValueError, match="repeats"):
            build_embedding(guest, host, identity(guest), routes)

    def test_first_defect_in_route_order_is_reported(self):
        # the second route breaks a hop, the third misses its image: the hop
        # defect comes first in route order even though the join check is
        # the earlier check within a route
        G = cycle(4)
        routes = {(1, 2): (1, 2), (2, 3): (2, 4, 3), (3, 4): (3, 1), (1, 4): (1, 4)}
        with pytest.raises(ValueError, match=r"\(2, 3\) uses the non-edge \(2, 4\)"):
            build_embedding(G, G, identity(G), routes)
        routes[(2, 3)] = (2, 3)
        with pytest.raises(ValueError, match=r"\(3, 4\) does not join"):
            build_embedding(G, G, identity(G), routes)

    def test_route_keys_are_canonical(self):
        # (2, 1) would otherwise replace or shadow the route of (1, 2)
        G = cycle(4)
        routes = {e: e for e in G.edges}
        with pytest.raises(ValueError, match=r"route key \(2, 1\) is not a guest edge"):
            build_embedding(G, G, identity(G), {**routes, (2, 1): (2, 1)})
        del routes[(1, 2)]
        with pytest.raises(ValueError, match=r"route key \(2, 1\) is not a guest edge"):
            build_embedding(G, G, identity(G), {**routes, (2, 1): (1, 2)})

    def test_routes_must_cover_guest_edges(self):
        G = cycle(4)
        routes = {e: e for e in list(G.edges)[:-1]}
        with pytest.raises(ValueError, match="exactly"):
            build_embedding(G, G, identity(G), routes)


class TestTreeHostConstruction:
    def test_preorder_sequence(self):
        assert preorder_sequence(3) == (1, 2, 4, 5, 3, 6, 7)

    def test_wheel_into_sibling_tree_level3(self):
        emb = embed_wheel_like_into_tree_host(wheel(7), sibling_tree(3))
        rim_images = [emb.vmap[g] for g in range(2, 8)]
        assert rim_images == [2, 4, 5, 3, 6, 7]
        assert evaluate(emb).max_dilation == 2

    def test_friendship_into_hypertree_level4(self):
        emb = embed_wheel_like_into_tree_host(friendship(7), hypertree(4))
        assert emb.guest.order == 15
        assert emb.vmap[1] == 1
        assert evaluate(emb).max_dilation == 3

    def test_star_into_hypertree_level3(self):
        emb = embed_wheel_like_into_tree_host(star(7), hypertree(3))
        assert evaluate(emb).max_dilation == 2

    @pytest.mark.parametrize("kind", GUEST_KINDS)
    @pytest.mark.parametrize("tree", (hypertree, sibling_tree, x_tree))
    def test_dilation_equals_level_minus_one(self, kind, tree):
        for level in (3, 4):
            host = tree(level)
            guest = _hub_guest(kind, host.order)
            emb = embed_wheel_like_into_tree_host(guest, host)
            assert emb.guest is guest and emb.host is host
            assert evaluate(emb).max_dilation == level - 1

    @pytest.mark.parametrize("tree", (hypertree, sibling_tree, x_tree))
    def test_dilation_holds_at_larger_levels(self, tree):
        # 127- and 255-vertex instances, beyond the acceptance sweep
        for level in (7, 8):
            host = tree(level)
            for kind in GUEST_KINDS:
                emb = embed_wheel_like_into_tree_host(_hub_guest(kind, host.order), host)
                assert evaluate(emb).max_dilation == level - 1

    def test_level_minimum(self):
        # the placement's own check: star(3) exists, the level-2 tree is too small
        with pytest.raises(ValueError, match="level >= 3"):
            embed_wheel_like_into_tree_host(star(3), hypertree(2))

    def test_guest_of_another_order(self):
        with pytest.raises(ValueError, match="equal orders, got 8 vs 7"):
            embed_wheel_like_into_tree_host(star(8), hypertree(3))


class TestWindmillConstruction:
    def test_instance_shapes(self):
        guest, host = windmill_instance(4)
        emb = embed_windmill_into_circulant(guest, host)
        assert emb.guest is guest and emb.host is host
        assert all(emb.vmap[v] == v for v in emb.guest.vertices())

    @pytest.mark.parametrize("n", range(3, 7))
    def test_max_congestion(self, n):
        metrics = evaluate(embed_windmill_into_circulant(*windmill_instance(n)))
        assert metrics.max_congestion == 2 ** (n - 2)

    def test_saturated_edges_include_named_set(self):
        metrics = evaluate(embed_windmill_into_circulant(*windmill_instance(4)))
        saturated = {e for e, c in metrics.cong_per_edge.items() if c == 4}
        assert {(1, 2), (1, 5), (5, 6), (1, 16)} <= saturated

    def test_small_order(self):
        metrics = evaluate(embed_windmill_into_circulant(*windmill_instance(3)))
        assert metrics.max_congestion == 2  # equals ceil(7/4)

    def test_outer_edges_use_single_host_edges(self):
        emb = embed_windmill_into_circulant(*windmill_instance(4))
        for (u, v), route in emb.routes.items():
            if u != 1:
                assert route == (u, v)

    def test_domain(self):
        # n = 2, and an order that is no power of two
        for guest, host in ((windmill(2), circulant(4, {1})),
                            (windmill(6), circulant(12, {1, 3}))):
            with pytest.raises(ValueError, match=r"^windmill routing needs a host of order "
                                                 rf"2\*\*n with n >= 3, got {host.order}$"):
                embed_windmill_into_circulant(guest, host)

    def test_guest_that_is_not_the_windmill(self):
        # the placement reads only the host; validation rejects the guest
        with pytest.raises(ValueError, match="routes must cover exactly the guest edges"):
            embed_windmill_into_circulant(wheel(16), circulant(16, {1, 4}))

    def test_host_without_the_windmill_jumps(self):
        with pytest.raises(ValueError, match=r"uses the non-edge \(1, 5\)"):
            embed_windmill_into_circulant(windmill(8), circulant(16, {1, 2}))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_routes_equal_the_four_ranges(self, n):
        # the forest of chains reads back as the literal tuples, in their order
        emb = embed_windmill_into_circulant(*windmill_instance(n))
        expected = windmill_four_range_routes(n)
        assert list(dict(emb.routes).items()) == list(expected.items())

    def test_each_spoke_is_one_node(self):
        # four chains below the hub, one node per spoke plus the two chord
        # nodes, and two nodes per outer edge
        size = 2 ** 6
        emb = embed_windmill_into_circulant(*windmill_instance(6))
        assert len(emb.routes.vertex) == 1 + (size - 1) + 2 + 2 * (size // 2 - 1)

    def test_peak_memory_at_n_12(self):
        # 2 104 318 route entries as tuples, 19 MB; the forest holds 8 192 nodes
        guest, host = windmill_instance(12)
        tracemalloc.start()
        try:
            embed_windmill_into_circulant(guest, host)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


@pytest.mark.parametrize("build", [
    lambda: embed_windmill_into_circulant(*windmill_instance(5)),
    lambda: embed_wheel_like_into_tree_host(fan(31), hypertree(5)),
], ids=["windmill-5", "fan-hypertree-5"])
def test_route_keys_are_the_guest_edge_tuples(build):
    emb = build()
    assert sorted(map(id, emb.routes.ends)) == sorted(map(id, emb.guest.edges))


class TestRouteForest:
    def test_routes_view_rejects_assignment(self):
        emb = embed_windmill_into_circulant(*windmill_instance(3))
        assert isinstance(emb.routes, Mapping) and not isinstance(emb.routes, MutableMapping)
        with pytest.raises(TypeError):
            emb.routes[(1, 2)] = (1, 2)
        with pytest.raises(TypeError):
            del emb.routes[(1, 2)]
        assert emb.routes[(1, 2)] == (1, 2)

    def test_repr_is_the_route_dict(self):
        G = cycle(4)
        routes = {(1, 2): (1, 2), (1, 4): (1, 4), (2, 3): (2, 3), (3, 4): (3, 4)}
        emb = build_embedding(G, G, identity(G), routes)
        assert repr(emb.routes) == repr(routes)
        assert emb.routes == routes and routes == emb.routes

    def test_a_forest_is_adopted_as_is(self):
        emb = route_shortest(wheel(8), circulant(8, {1, 2}), identity(wheel(8)))
        again = build_embedding(emb.guest, emb.host, emb.vmap, emb.routes)
        assert again.routes is emb.routes

    def test_shared_prefixes_are_stored_once(self):
        G = cycle(4)
        guest = complete(4)
        routes = {(1, 2): (1, 2), (1, 3): (1, 2, 3), (1, 4): (1, 4), (2, 3): (2, 3),
                  (2, 4): (2, 3, 4), (3, 4): (3, 4)}
        emb = build_embedding(guest, G, identity(G), routes)
        # roots 1, 2, 3; below 1: 2, 3, 4; below 2: 3, 4; below 3: 4
        assert len(emb.routes.vertex) == 9
        assert dict(emb.routes) == routes and len(emb.routes) == 6


class TestMedianConstructions:
    def test_wheel_into_circulant(self):
        emb = embed_wheel_via_median(wheel(8), circulant(8, {1, 2}))
        assert evaluate(emb).wirelength == 17

    def test_wheel_into_petersen(self):
        emb = embed_wheel_via_median(wheel(10), generalized_petersen(5, 2))
        assert evaluate(emb).wirelength == 24

    def test_wheel_into_torus(self):
        emb = embed_wheel_via_median(wheel(9), torus([3, 3]))
        assert evaluate(emb).wirelength == 20

    def test_fan_into_circulant(self):
        emb = embed_fan_via_median(fan(8), circulant(8, {1, 2}))
        assert evaluate(emb).wirelength == 16

    def test_hub_maps_to_median_and_rim_is_spanning(self):
        host, guest = circulant(9, {1, 2}), wheel(9)
        emb = embed_wheel_via_median(guest, host)
        assert emb.guest is guest and emb.host is host
        assert emb.vmap[1] == 1  # every circulant vertex is a median; smallest id wins
        rim_images = {emb.vmap[g] for g in range(2, 10)}
        assert rim_images == set(host.vertices()) - {1}
        for g in range(2, 9):
            assert len(emb.routes[(g, g + 1)]) == 2

    def test_star_host_has_no_spanning_cycle(self):
        with pytest.raises(HostNotHamiltonianError):
            embed_wheel_via_median(wheel(8), star(8))

    @pytest.mark.parametrize("construct", [embed_wheel_via_median, embed_fan_via_median])
    def test_disconnected_host_is_named(self, construct):
        host = build_graph(5, [(1, 2), (2, 3), (4, 5)])
        with pytest.raises(ValueError, match=r"^median construction requires a connected host$"):
            construct(cycle(5), host)

    def test_star_host_has_no_spanning_path_either(self):
        with pytest.raises(HostNotHamiltonianError):
            embed_fan_via_median(fan(8), star(8))

    @pytest.mark.parametrize("construct", [embed_wheel_via_median, embed_fan_via_median])
    def test_guest_of_another_order_is_rejected_before_the_search(self, construct):
        with pytest.raises(ValueError, match="^expansion-one embedding needs equal orders, "
                                             "got 9 vs 8$"):
            construct(wheel(9), circulant(8, {1, 2}), node_limit=1)

    def test_places_any_guest_of_the_host_order(self):
        # the placement never reads the guest's edges; every guest edge is
        # routed on a shortest path and the result is validated
        host, guest = circulant(8, {1, 2}), star(8)
        emb = embed_wheel_via_median(guest, host)
        assert emb.guest is guest and emb.host is host
        assert emb.vmap[1] == 1
        assert evaluate(emb).max_dilation == 2


def test_double_counting_identity_on_seeded_random_embeddings():
    rng = random.Random(7)
    pairs = [(wheel(8), circulant(8, {1, 2})), (star(9), cycle(9)),
             (fan(8), circulant(8, {1, 3}))]
    for guest, host in pairs:
        for _ in range(10):
            images = list(host.vertices())
            rng.shuffle(images)
            emb = route_shortest(guest, host, dict(zip(guest.vertices(), images)))
            metrics = evaluate(emb)
            assert sum(metrics.dil_per_edge.values()) == sum(metrics.cong_per_edge.values())
            assert metrics.wirelength == sum(metrics.dil_per_edge.values())


@given(connected_graphs(min_order=3, max_order=7))
@settings(max_examples=40)
def test_shortest_routing_meets_distance_lower_bound(host):
    guest = cycle(host.order) if host.order >= 3 else host
    emb = route_shortest(guest, host, identity(guest))
    dist = all_pairs_distances(host)
    for (u, v), d in evaluate(emb).dil_per_edge.items():
        assert d == dist[emb.vmap[u]][emb.vmap[v]]


@st.composite
def routed_bijections(draw):
    """A connected guest and host of one order, joined by a random bijection."""
    guest = draw(connected_graphs(min_order=2, max_order=8))
    host = draw(connected_graphs(min_order=guest.order, max_order=guest.order))
    images = draw(st.permutations(list(host.vertices())))
    return route_shortest(guest, host, dict(zip(guest.vertices(), images)))


@given(routed_bijections())
@settings(max_examples=80)
def test_congestion_equals_per_hop_count(emb):
    metrics = evaluate(emb)
    assert metrics.cong_per_edge == hop_congestion(emb)
    assert metrics.max_congestion == max(hop_congestion(emb).values())
    # an instance built directly counts its loads when it is built
    direct = EmbeddingMap(emb.guest, emb.host, emb.vmap, emb.routes)
    assert evaluate(direct).cong_per_edge == metrics.cong_per_edge


def _outcome(build):
    try:
        return build().routes
    except ValueError as exc:
        return str(exc)


@st.composite
def vertex_maps(draw, order):
    """A bijection onto 1..order, or arbitrary images in 0..order + 1."""
    if draw(st.booleans()):
        return dict(zip(range(1, order + 1), draw(st.permutations(range(1, order + 1)))))
    return {g: draw(st.integers(0, order + 1)) for g in range(1, order + 1)}


@st.composite
def route_maps(draw, guest, host, vmap):
    """Lex-least shortest routes where the images allow them, except on up to
    two edges, which get arbitrary vertex sequences, bare or between the
    images (empty, non-joining, repeating, or over non-edges); now and then
    one key is reversed or one edge dropped."""
    edges = guest.edge_list()
    bad = draw(st.sets(st.sampled_from(edges), max_size=2)) if edges else set()
    routes = {}
    for u, v in edges:
        s, t = vmap[u], vmap[v]
        route = None
        if (u, v) not in bad and 1 <= s <= host.order and 1 <= t <= host.order:
            route = brute_lex_route(host, s, t)
        if route is None:
            middle = tuple(draw(st.lists(st.integers(0, host.order + 1), max_size=3)))
            route = middle if draw(st.booleans()) else (s, *middle, t)
        routes[u, v] = route
    if edges and draw(st.integers(0, 3)) == 0:
        u, v = draw(st.sampled_from(edges))
        route = routes.pop((u, v))
        if draw(st.booleans()):
            routes[v, u] = route
    return routes


@given(graphs(max_order=6), st.data())
@settings(max_examples=150)
def test_construction_equals_build_embedding(guest, data):
    order = max(guest.order - (data.draw(st.integers(0, 7)) == 0), 1)
    host = data.draw(graphs(min_order=order, max_order=order))
    vmap = data.draw(vertex_maps(guest.order))
    routes = data.draw(route_maps(guest, host, vmap))

    def outcome(build):
        try:
            emb = build()
        except ValueError as exc:
            return str(exc)
        assert evaluate(emb).cong_per_edge == hop_congestion(emb)
        return emb.vmap, emb.routes, emb._loads

    direct = outcome(lambda: EmbeddingMap(guest, host, vmap, routes))
    assert direct == outcome(lambda: build_embedding(guest, host, vmap, routes))


@given(graphs(max_order=6), st.data())
@settings(max_examples=150)
def test_route_shortest_matches_brute_force(guest, data):
    # hosts may be disconnected and maps may miss the host; the second call
    # on the same host instance must not read anything the first one left
    host = data.draw(graphs(min_order=guest.order, max_order=guest.order))
    for _ in range(2):
        vmap = data.draw(vertex_maps(guest.order))
        expected = _outcome(lambda: build_embedding(
            guest, host, vmap, reference_routes(guest, host, vmap)))
        assert _outcome(lambda: route_shortest(guest, host, vmap)) == expected


@pytest.mark.parametrize("n", range(4, 61))
def test_wheel_routes_into_two_jump_circulants_match_the_reference(n):
    guest, host = wheel(n), circulant(n, {1, 2})
    vmap = identity(guest)
    assert dict(route_shortest(guest, host, vmap).routes) == reference_routes(guest, host, vmap)


def test_route_searches_stop_at_their_last_target(monkeypatch):
    # one search per guest vertex with later neighbours: the hub's reaches
    # every vertex, and a rim vertex's stops at its later rim neighbours, one
    # host hop away, once it has met them among its own host neighbours
    sizes = []

    def recording(G, source, targets=None):
        parents = bfs_parents(G, source, targets)
        sizes.append(len(parents))
        return parents

    monkeypatch.setattr(embedding_mod, "bfs_parents", recording)
    guest, host = wheel(40), circulant(40, {1, 2})
    route_shortest(guest, host, identity(guest))
    assert sizes[0] == 40 and len(sizes) == 39
    assert max(sizes[1:]) <= 5


def _random_tree(host, source, rng):
    """Parent map of a search from `source` that expands a random frontier
    vertex each step: the tree paths from one source are prefix-closed."""
    parents, frontier = {source: source}, [source]
    while frontier:
        x = frontier.pop(rng.randrange(len(frontier)))
        for w in rng.sample(host.adjacency[x], len(host.adjacency[x])):
            if w not in parents:
                parents[w] = x
                frontier.append(w)
    return parents


@st.composite
def routings(draw):
    """A host, a guest of its order, a bijection and one route per guest edge
    along random trees grown from each source image, so that the routes from
    one image extend one another. At a drawn rate a route is then broken:
    emptied, cut to one vertex, given a repeated vertex, a non-edge hop or a
    vertex outside the host, extended past its end, replaced by a copy of an
    earlier route, or reversed; any route may be passed as a list."""
    host = draw(st.one_of(graphs(min_order=2, max_order=8),
                          connected_graphs(min_order=2, max_order=8)))
    guest = draw(graphs(min_order=host.order, max_order=host.order))
    rng = draw(st.randoms(use_true_random=False))
    rate = draw(st.sampled_from((0.0, 0.1, 0.3, 0.6)))
    images = list(host.vertices())
    rng.shuffle(images)
    vmap = dict(zip(guest.vertices(), images))
    trees, routes = {}, {}
    for u, v in guest.edge_list():
        s, t = vmap[u], vmap[v]
        if s not in trees:
            trees[s] = _random_tree(host, s, rng)
        parents = trees[s]
        if t in parents:
            route = [t]
            while route[-1] != s:
                route.append(parents[route[-1]])
            route = tuple(reversed(route))
        else:  # a random sequence between the images
            route = (s, *rng.choices(range(host.order + 2), k=rng.randrange(3)), t)
        if rng.random() < rate:
            defect = rng.randrange(7)
            at = rng.randrange(len(route) + 1)
            if defect == 0:
                route = ()
            elif defect == 1:
                route = route[:1]
            elif defect == 2 and route:
                route = route[:at] + (rng.choice(route),) + route[at:]
            elif defect == 3:
                route = route[:at] + (rng.randrange(host.order + 2),) + route[at:]
            elif defect == 4 and route and host.adjacency[route[-1]]:
                route += (rng.choice(host.adjacency[route[-1]]),)
            elif defect == 5 and routes:
                route = rng.choice(list(routes.values()))
            else:
                route = route[::-1]
        routes[u, v] = list(route) if rng.random() < 0.2 else route
    return guest, host, vmap, routes


def _pass_outcome(build):
    """The routes read back, the loads and every `evaluate` field in
    iteration order, or the ValueError text."""
    try:
        emb = build()
    except ValueError as exc:
        return str(exc)
    metrics = evaluate(emb)
    return (list(dict(emb.routes).items()), list(emb._loads.items()),
            list(metrics.dil_per_edge.items()), list(metrics.cong_per_edge.items()),
            metrics.max_dilation, metrics.max_congestion, metrics.wirelength)


def _reference_outcome(guest, host, vmap, routes):
    canonical = {e: tuple(route) for e, route in routes.items()}
    loads = reference_route_checks(host, vmap, canonical)
    if isinstance(loads, str):
        return loads
    dil = {e: len(route) - 1 for e, route in canonical.items()}
    return (list(canonical.items()), list(loads.items()), list(dil.items()),
            list(loads.items()), max(dil.values(), default=0),
            max(loads.values(), default=0), sum(dil.values()))


@given(routings())
@settings(max_examples=300)
def test_extension_pass_equals_the_counter_fold(case):
    # the forest walk gives the loads of one Counter over every hop and the
    # first defect in route order, from a mapping and from its forest alike
    guest, host, vmap, routes = case
    expected = _reference_outcome(guest, host, vmap, routes)
    assert _pass_outcome(lambda: build_embedding(guest, host, vmap, routes)) == expected
    forest = RouteForest.of(routes)
    assert _pass_outcome(lambda: build_embedding(guest, host, vmap, forest)) == expected


def test_extension_pass_on_duplicate_and_prefix_routes():
    # K4 onto C4: (1, 3) and (2, 4) extend (1, 2) and (2, 3) by one hop. Each
    # variant breaks the valid routing one way; the defect that a walk over
    # the shared nodes finds must be the one the per-route checks name first
    guest, host = complete(4), cycle(4)
    vmap = identity(host)
    valid = {(1, 2): (1, 2), (1, 3): (1, 2, 3), (1, 4): (1, 4), (2, 3): (2, 3),
             (2, 4): (2, 3, 4), (3, 4): (3, 4)}
    variants = [
        {},
        {(1, 3): (1, 2)},                          # a duplicate of (1, 2)'s route
        {(1, 2): ()},                              # empty
        {(2, 3): (2,)},                            # one vertex, a prefix of (2, 4)
        {(1, 3): (1, 2, 1, 2, 3)},                 # repeats below a repeat-free prefix
        {(1, 4): (1, 2, 1, 4)},                    # extends the repeating (1, 2, 1)
        {(1, 3): (1, 3), (1, 4): (1, 3, 4)},       # both share the non-edge (1, 3)
        {(3, 4): (3, 5, 4)},                       # a vertex outside the host
        {(2, 4): (2, 3, 2, 4), (3, 4): (3, 1, 4)}, # a repeat before a later non-edge
        {(1, 2): (1, 4, 3, 2), (2, 4): (2, 1, 4)}, # longer routes, still valid
    ]
    outcomes = []
    for change in variants:
        routes = {**valid, **change}
        outcome = _pass_outcome(lambda: build_embedding(guest, host, vmap, routes))
        assert outcome == _reference_outcome(guest, host, vmap, routes)
        outcomes.append(outcome if isinstance(outcome, str) else "valid")
    assert outcomes == [
        "valid",
        "route for guest edge (1, 3) does not join its images",
        "route for guest edge (1, 2) is empty",
        "route for guest edge (2, 3) does not join its images",
        "route for guest edge (1, 3) repeats a vertex",
        "route for guest edge (1, 4) repeats a vertex",
        "route for guest edge (1, 3) uses the non-edge (1, 3)",
        "route for guest edge (3, 4) uses the non-edge (3, 5)",
        "route for guest edge (2, 4) repeats a vertex",
        "valid",
    ]


@st.composite
def random_forests(draw):
    """A host, a guest of its order, a bijection and a random route forest:
    each node hangs below a root or an earlier node, on a host neighbour of
    its parent's vertex at a drawn rate and else on any vertex (one past the
    host included). Each guest edge ends, at a drawn rate, at a node whose
    route joins its images if one does, and else at a random node or on an
    empty route. So routes share prefixes, repeat vertices and take
    non-edges."""
    host = draw(graphs(min_order=2, max_order=7))
    guest = draw(graphs(min_order=host.order, max_order=host.order))
    rng = draw(st.randoms(use_true_random=False))
    along = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    joins = draw(st.sampled_from((0.0, 0.8, 1.0)))
    images = list(host.vertices())
    rng.shuffle(images)
    parent, vertex = [], []
    for k in range(rng.randrange(4 * host.order)):
        parent.append(rng.randrange(-1, k))
        near = host.adjacency.get(vertex[parent[k]], ()) if parent[k] >= 0 else ()
        if near and rng.random() < along:
            vertex.append(rng.choice(near))
        else:
            vertex.append(rng.randrange(1, host.order + 2))
    vmap = dict(zip(guest.vertices(), images))
    first = []  # each node's root vertex
    for k, p in enumerate(parent):
        first.append(first[p] if p >= 0 else vertex[k])
    ends = {}
    for u, v in guest.edge_list():
        joining = [k for k in range(len(vertex))
                   if (first[k], vertex[k]) == (vmap[u], vmap[v])]
        ends[u, v] = (rng.choice(joining) if joining and rng.random() < joins
                      else rng.randrange(-1, len(vertex)))
    return guest, host, vmap, RouteForest(parent, vertex, ends)


@given(random_forests() | routings())
@settings(max_examples=300)
def test_walk_forest_equals_the_children_list_walk(case):
    # every node's verdicts and the loads, in their order, and the first
    # defect that build_embedding reports, on random forests and on the
    # forests of routings along random trees
    guest, host, vmap, routes = case
    forest = RouteForest.of(routes)
    walked, expected = _walk_forest(host, forest), reference_walk_forest(host, forest)
    assert walked[:4] == expected[:4]
    assert list(walked[4].items()) == list(expected[4].items())
    assert (_pass_outcome(lambda: build_embedding(guest, host, vmap, forest))
            == _reference_outcome(guest, host, vmap, dict(forest)))


@pytest.mark.parametrize("n, deepest", [(10, 257), (11, 513)])
def test_walk_forest_keeps_one_int_object_per_depth(n, deepest):
    # CPython makes a new int object for every sum above 256. At order 2**10
    # one spoke chain runs 257 hops deep; at 2**11 two chains pass 256 side
    # by side, so a depth per node would hold two objects per value there
    emb = embed_windmill_into_circulant(*windmill_instance(n))
    assert max(emb._depth) == deepest
    assert len({id(d) for d in emb._depth}) == len(set(emb._depth)) == deepest + 1


@pytest.mark.parametrize("build", [
    lambda: embed_windmill_into_circulant(*windmill_instance(10)),
    lambda: embed_wheel_like_into_tree_host(wheel(63), x_tree(6)),
], ids=["windmill-10", "wheel-xtree-6"])
def test_extension_pass_pins_large_instances(build):
    emb = build()
    spokes = {route for (u, _), route in emb.routes.items() if u == 1}
    # every spoke route but the shortest extends another by one hop
    assert sum(route[:-1] in spokes for route in spokes) >= len(spokes) - 4
    reference = reference_hop_loads(emb.host, emb.routes)
    assert list(emb._loads.items()) == list(reference.items())
    assert evaluate(emb).cong_per_edge == hop_congestion(emb)
