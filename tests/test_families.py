import math
from itertools import combinations

import pytest

from helpers import reference_circulant, reference_generalized_petersen, reference_torus
from wheelembed.families import (
    build_family,
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

class TestHubFamilies:
    def test_wheel_counts(self):
        G = wheel(12)
        assert (G.order, len(G.edges)) == (12, 22)

    def test_wheel_4_is_k4(self):
        assert wheel(4).edges == complete(4).edges

    def test_wheel_17(self):
        G = wheel(17)
        assert (G.order, len(G.edges)) == (17, 32)

    def test_fan_counts(self):
        assert len(fan(5).edges) == 7
        assert len(fan(17).edges) == 31

    def test_fan_3_is_triangle(self):
        assert fan(3).edges == complete(3).edges

    def test_fan_is_wheel_minus_one_rim_edge(self):
        for n in (5, 9):
            assert wheel(n).edges - fan(n).edges == {(2, n)}

    def test_friendship_counts(self):
        G = friendship(8)
        assert (G.order, len(G.edges)) == (17, 24)

    def test_friendship_1_is_k3(self):
        assert friendship(1).edges == complete(3).edges

    def test_windmill_counts(self):
        G = windmill(8)
        assert (G.order, len(G.edges)) == (16, 22)

    def test_windmill_is_friendship_minus_degree2_vertex(self):
        # the deleted outer vertex 2k+1 is the last label, so no relabeling occurs
        for k in (2, 4, 8):
            fr = friendship(k)
            gone = 2 * k + 1
            assert fr.degree(gone) == 2
            survivors = {e for e in fr.edges if gone not in e}
            assert survivors == windmill(k).edges

    def test_windmill_pendent_vertex(self):
        G = windmill(8)
        assert G.adjacency[16] == (1,)

    def test_star_counts(self):
        assert len(star(7).edges) == 6
        assert star(2).edges == {(1, 2)}
        assert star(15).order == 15

    def test_parameter_minimums(self):
        for builder, bad in ((wheel, 3), (fan, 2), (friendship, 0),
                             (windmill, 1), (star, 1)):
            with pytest.raises(ValueError):
                builder(bad)


class TestTreeFamilies:
    @pytest.mark.parametrize("level", range(2, 11))
    def test_closed_forms(self, level):
        n = 2 ** level - 1
        cbt = complete_binary_tree(level)
        assert (cbt.order, len(cbt.edges)) == (n, n - 1)
        ht = hypertree(level)
        assert (ht.order, len(ht.edges)) == (n, 3 * (2 ** (level - 1) - 1))
        st_ = sibling_tree(level)
        assert (st_.order, len(st_.edges)) == (n, 3 * 2 ** (level - 1) - 3)
        xt = x_tree(level)
        assert (xt.order, len(xt.edges)) == (n, 2 ** (level + 1) - 3 - level)

    def test_specific_counts(self):
        assert (hypertree(4).order, len(hypertree(4).edges)) == (15, 21)
        assert (sibling_tree(5).order, len(sibling_tree(5).edges)) == (31, 45)
        assert (x_tree(4).order, len(x_tree(4).edges)) == (15, 25)

    def test_hypertree_contains_heap_tree(self):
        for level in (3, 5):
            heap = complete_binary_tree(level).edges
            assert heap <= hypertree(level).edges
            assert heap <= sibling_tree(level).edges
            assert heap <= x_tree(level).edges

    def test_hypertree_horizontal_rule(self):
        extra = hypertree(4).edges - complete_binary_tree(4).edges
        assert extra == {(2, 3), (4, 6), (5, 7), (8, 12), (9, 13), (10, 14), (11, 15)}

    def test_level_minimum(self):
        for builder in (complete_binary_tree, hypertree, sibling_tree, x_tree):
            with pytest.raises(ValueError):
                builder(1)


class TestCirculant:
    def test_edge_count(self):
        assert len(circulant(8, {1, 2}).edges) == 16

    def test_jump_one_is_cycle(self):
        for n in (3, 7, 10):
            assert circulant(n, {1}).edges == cycle(n).edges

    def test_full_jumps_is_complete(self):
        assert circulant(6, {1, 2, 3}).edges == complete(6).edges

    def test_half_jump_correction(self):
        # the n/2 jump class is a perfect matching, not a doubled cycle
        assert len(circulant(8, {4}).edges) == 4

    def test_invalid_jump(self):
        with pytest.raises(ValueError):
            circulant(8, {5})
        with pytest.raises(ValueError):
            circulant(8, {0})
        with pytest.raises(ValueError):
            circulant(8, set())


class TestOtherHosts:
    def test_petersen(self):
        G = generalized_petersen(5, 2)
        assert (G.order, len(G.edges)) == (10, 15)
        assert all(G.degree(v) == 3 for v in G.vertices())

    def test_petersen_skip_domain(self):
        with pytest.raises(ValueError):
            generalized_petersen(5, 3)
        with pytest.raises(ValueError):
            generalized_petersen(6, 3)

    def test_torus(self):
        G = torus([3, 3])
        assert (G.order, len(G.edges)) == (9, 18)
        assert all(G.degree(v) == 4 for v in G.vertices())
        assert (torus([3, 4]).order, len(torus([3, 4]).edges)) == (12, 24)

    @pytest.mark.parametrize("dims", [(3, 3), (4, 6), (3, 4, 5), (7,)])
    def test_torus_numbering_is_row_major(self, dims):
        # vertex v sits at the digits of v - 1 in the mixed radix `dims`, last
        # axis fastest; neighbors differ by one, cyclically, on one axis
        def coords(v):
            digits, rest = [], v - 1
            for d in reversed(dims):
                rest, digit = divmod(rest, d)
                digits.append(digit)
            return digits[::-1]

        def adjacent(u, v):
            moved = [(a - b) % d in (1, d - 1)
                     for a, b, d in zip(coords(u), coords(v), dims) if a != b]
            return moved == [True]

        order = math.prod(dims)
        G = torus(dims)
        assert G.order == order
        assert G.edges == {(u, v) for u, v in combinations(range(1, order + 1), 2)
                           if adjacent(u, v)}

    def test_torus_dimension_minimum(self):
        with pytest.raises(ValueError):
            torus([2, 3])
        with pytest.raises(ValueError, match="^torus needs at least one dimension$"):
            torus([])

    def test_path_cycle_complete(self):
        assert len(path(4).edges) == 3
        assert len(cycle(6).edges) == 6
        assert len(complete(5).edges) == 10


class TestHostEdgesMatchTheSetBasedBuilders:
    """Each host builder emits every edge once and leaves canonical form and
    repeats to `build_graph`; the graphs equal those of the builders that
    deduped a sorted edge set of their own."""

    @staticmethod
    def assert_same(G, reference):
        assert (G.order, G.edges, G.name) == (reference.order, reference.edges, reference.name)

    def test_circulant(self):
        for n in range(3, 41):
            for size in (1, 2):
                for jumps in combinations(range(1, n // 2 + 1), size):
                    self.assert_same(circulant(n, jumps), reference_circulant(n, jumps))

    def test_generalized_petersen(self):
        for n in range(3, 21):
            for m in range(1, (n + 1) // 2):
                self.assert_same(generalized_petersen(n, m),
                                 reference_generalized_petersen(n, m))

    @pytest.mark.parametrize("dims", [(a, b) for a in range(3, 7) for b in range(3, 7)]
                             + [(3, 3, 3), (3, 4, 5)])
    def test_torus(self, dims):
        self.assert_same(torus(dims), reference_torus(dims))


class TestFamilySpec:
    """A family spec is a kind name plus integer parameters; `build_family`
    dispatches it."""

    def test_dispatch(self):
        assert build_family("hypertree", (4,)).edges == hypertree(4).edges
        assert build_family("circulant", [8, 1, 2]).edges == circulant(8, {1, 2}).edges
        assert build_family("torus", [3, 3]).edges == torus([3, 3]).edges
        assert build_family("generalized_petersen", [5, 2]).edges == generalized_petersen(5, 2).edges

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_family("moebius_cube", [3])

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            build_family("wheel", [4, 5])
        with pytest.raises(ValueError):
            build_family("circulant", [8])

    def test_hub_labelled_one_everywhere(self):
        for kind, params in (("wheel", (9,)), ("fan", (9,)), ("friendship", (4,)),
                             ("windmill", (4,)), ("star", (9,))):
            G = build_family(kind, params)
            assert G.degree(1) == G.order - 1
