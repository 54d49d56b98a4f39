"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every expected value is either a frozen derived
constant (computed by an independent oracle: BFS sums, closed-form counts,
brute-force enumeration) or re-derived in-run from that oracle.
"""

import random
import time
from itertools import combinations

from wheelembed.bounds import verify_theorem
from wheelembed.embedding import (
    embed_wheel_like_into_tree_host,
    embed_windmill_into_circulant,
    evaluate,
    route_shortest,
)
from wheelembed.families import (
    circulant,
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
from wheelembed.graphs import Graph, all_pairs_distances, is_connected, radius_diameter
from wheelembed.hamiltonian import (
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    is_f_fault_hamiltonian,
    is_hypohamiltonian,
)
from wheelembed.oracle import exact_dilation, exact_wirelength

# the hub-centered guest of order n, one builder per guest kind
HUB_GUESTS = (wheel, fan, lambda n: friendship((n - 1) // 2), star)
TREE_HOSTS = (hypertree, sibling_tree, x_tree)


class _Clock:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, (
            f"{self.label}: took {elapsed:.2f}s, budget {self.budget}s")
        print(f"{self.label}: PASS in {elapsed:.2f}s (budget {self.budget}s)")


def test_criterion_1_family_closed_forms():
    clock = _Clock("criterion 1 (family closed forms)", 1.0)
    for r in range(2, 11):
        n = 2 ** r - 1
        ht = hypertree(r)
        assert (ht.order, len(ht.edges)) == (n, 3 * (2 ** (r - 1) - 1))
        st = sibling_tree(r)
        assert (st.order, len(st.edges)) == (n, (n - 1) + (2 ** (r - 1) - 1))
        xt = x_tree(r)
        assert (xt.order, len(xt.edges)) == (n, (n - 1) + (n - r))
        cbt = complete_binary_tree(r)
        assert (cbt.order, len(cbt.edges)) == (n, n - 1)
    clock.finish()


def test_criterion_2_dilation_theorem_sweep():
    clock = _Clock("criterion 2 (dilation sweep, 48 instances)", 10.0)
    checked = 0
    for level in (3, 4, 5, 6):
        for tree in TREE_HOSTS:
            host = tree(level)
            for build in HUB_GUESTS:
                guest = build(host.order)
                emb = embed_wheel_like_into_tree_host(guest, host)
                assert evaluate(emb).max_dilation == level - 1, (guest.name, host.name)
                checked += 1
            radius, _ = radius_diameter(host)
            assert radius == level - 1, host.name
    assert checked == 48
    clock.finish()


def test_criterion_3_dilation_optimality_at_oracle_scale():
    clock = _Clock("criterion 3 (7-vertex dilation oracle)", 30.0)
    for tree in TREE_HOSTS:
        for build in HUB_GUESTS:
            emb = embed_wheel_like_into_tree_host(build(7), tree(3))
            result = exact_dilation(emb.guest, emb.host)
            assert result.optimum == 2, (emb.guest.name, emb.host.name, result)
    clock.finish()


def test_criterion_4_congestion_theorem_sweep():
    clock = _Clock("criterion 4 (windmill congestion sweep)", 10.0)
    for n in range(3, 9):
        bound = 2 ** (n - 2)
        assert bound == -((2 ** n - 1) // -4)
        metrics = evaluate(embed_windmill_into_circulant(windmill(2 ** (n - 1)),
                                                         circulant(2 ** n, {1, bound})))
        assert metrics.max_congestion == bound, n
        assert all(c <= bound for c in metrics.cong_per_edge.values())
        if n == 4:
            saturated = {e for e, c in metrics.cong_per_edge.items() if c == bound}
            assert {(1, 2), (1, 5), (5, 6), (1, 16)} <= saturated
    clock.finish()


def test_criterion_5_wirelength_sharpness():
    clock = _Clock("criterion 5 (wirelength sharpness)", 30.0)
    hosts = [circulant(n, {1, 2}) for n in range(6, 13)]
    hosts += [generalized_petersen(5, 2), torus([3, 3])]
    frozen_wheel = {"circulant-8-1-2": 17, "petersen-5-2": 24, "torus-3x3": 20}
    for host in hosts:
        dist = all_pairs_distances(host)
        delta = min(sum(dist[v]) for v in host.vertices())  # independent BFS oracle
        [report] = verify_theorem("wl-wheel", host).values()
        assert report.sharp, host.name
        assert report.achieved == host.order - 1 + delta, host.name
        if host.name in frozen_wheel:
            assert report.achieved == frozen_wheel[host.name]
        [fan_report] = verify_theorem("wl-fan", host).values()
        assert fan_report.sharp, host.name
        assert fan_report.achieved == host.order - 2 + delta, host.name
    clock.finish()


def test_criterion_6_oracle_agreement():
    clock = _Clock("criterion 6 (wirelength oracle agreement)", 120.0)
    result = exact_wirelength(wheel(8), circulant(8, {1, 2}))
    assert result.optimum == 17
    result = exact_wirelength(cycle(4), path(4))
    assert result.optimum == 6
    clock.finish()


def test_criterion_7_double_counting_identity():
    clock = _Clock("criterion 7 (dilation sum equals congestion sum)", 10.0)
    pairs = [
        (wheel(8), circulant(8, {1, 2})),
        (fan(8), circulant(8, {1, 3})),
        (star(9), cycle(9)),
        (friendship(4), torus([3, 3])),
        (windmill(5), generalized_petersen(5, 2)),
    ]
    rng = random.Random(2024)
    for guest, host in pairs:
        for _ in range(20):
            images = list(host.vertices())
            rng.shuffle(images)
            emb = route_shortest(guest, host, dict(zip(guest.vertices(), images)))
            metrics = evaluate(emb)
            dil_sum = sum(metrics.dil_per_edge.values())
            cong_sum = sum(metrics.cong_per_edge.values())
            assert dil_sum == cong_sum == metrics.wirelength
    clock.finish()


def test_criterion_8_two_fault_hamiltonian_graphs_have_spanning_paths():
    clock = _Clock("criterion 8 (exhaustive sweep of connected graphs on <= 6 vertices)", 300.0)
    scanned = 0
    positives = 0
    for n in range(1, 7):
        vertex_pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(vertex_pairs)):
            edges = frozenset(p for i, p in enumerate(vertex_pairs) if mask >> i & 1)
            G = Graph(n, edges)
            if not is_connected(G):
                continue
            scanned += 1
            if is_f_fault_hamiltonian(G, 2).verdict:
                positives += 1
                assert find_hamiltonian_path(G) is not None, (n, sorted(edges))
    assert scanned == 27476  # 1 + 1 + 4 + 38 + 728 + 26704 labeled connected graphs
    assert positives == 77   # K5 plus K6 minus a matching of 0..3 edges, all labelings
    clock.finish()


def test_criterion_9_fault_classification_regression():
    clock = _Clock("criterion 9 (fault classification regression)", 60.0)
    report = is_f_fault_hamiltonian(circulant(8, {1, 2}), 1)
    assert report.verdict

    petersen = generalized_petersen(5, 2)
    report = is_f_fault_hamiltonian(petersen, 1)
    # the literal definition fails already at the zero-fault case ...
    assert not report.verdict
    assert report.failing_fault == ((), ())
    assert find_hamiltonian_cycle(petersen) is None
    # ... while every single-vertex deletion is hamiltonian, and that
    # distinction is exactly what the hypohamiltonicity check surfaces
    assert is_hypohamiltonian(petersen)
    clock.finish()


def test_criterion_10_oracle_certifies_the_theorems_at_their_sizes():
    # the assignment bound lets the oracle prove optimality well past its
    # default order cap, at the orders the theorem sweeps check
    clock = _Clock("criterion 10 (oracle at wl n = 6..20 and dil level 4)", 10.0)
    for n in range(6, 21):
        host = circulant(n, {1, 2})
        for theorem, guest in (("wl-wheel", wheel(n)), ("wl-fan", fan(n))):
            [report] = verify_theorem(theorem, host).values()
            result = exact_wirelength(guest, host, limit=n)
            assert result.optimum == report.bound == report.achieved, (theorem, n)
    for theorem in ("dil-hypertree", "dil-sibling", "dil-xtree"):
        for kind, report in verify_theorem(theorem, 4).items():
            emb = report.witness
            result = exact_dilation(emb.guest, emb.host, limit=emb.host.order)
            assert result.optimum == report.bound == report.achieved, (theorem, kind)
    clock.finish()
