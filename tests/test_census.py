"""Every connected graph of small order, up to isomorphism, as a census that
each rule checks as one more column; CI steps under python -O run the
distance column at order 8 and the hamiltonian and wirelength columns at
order 7, here they run up to orders 7, 6 and 6."""

import random

import pytest

from helpers import (canonical_edges, connected_census, distance_column, hamiltonian_column,
                     relabelled, wirelength_column)
from wheelembed.graphs import is_connected

# OEIS A001349: connected graphs on n unlabelled vertices, n = 1..7
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)


@pytest.fixture(scope="module")
def census():
    return list(connected_census(len(CONNECTED_COUNTS)))


def test_census_counts_match_oeis_a001349(census):
    assert tuple(map(len, census)) == CONNECTED_COUNTS
    rng = random.Random(0)
    for n, level in enumerate(census, 1):
        assert all(G.order == n and is_connected(G) for G in level)
        # a census graph is its own canonical form, and so is a relabelling of it
        for G in level:
            form = tuple(G.edge_list())
            assert canonical_edges(n, relabelled(G, rng).edges) == form


def test_distance_column(census):
    # the ball pass against the BFS rows on every census graph and on one
    # seeded relabelling of each
    rng = random.Random(1)
    failures = [fault for level in census for G in level
                for fault in (distance_column(G), distance_column(relabelled(G, rng))) if fault]
    assert failures == []


def test_hamiltonian_column(census):
    # cycle, free path and 1-n path searches against one enumeration of
    # vertex orders on every census graph of order <= 6 and one seeded
    # relabelling of each
    rng = random.Random(2)
    failures = [fault for level in census[:6] for G in level
                for fault in (hamiltonian_column(G), hamiltonian_column(relabelled(G, rng)))
                if fault]
    assert failures == []


def test_wirelength_column(census):
    # wheel and fan wirelength: the oracle against the tour DP, and the
    # bound's sharp flag against the optimum, on every host of order 4-6
    failures = [fault for level in census[3:6] for H in level
                if (fault := wirelength_column(H))]
    assert failures == []
