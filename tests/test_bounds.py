import re

import pytest
from hypothesis import given, settings

from helpers import connected_graphs, record_bfs
from wheelembed import bounds as bounds_mod
from wheelembed import graphs as graphs_mod
from wheelembed.bounds import (
    GUEST_KINDS,
    THEOREM_IDS,
    THEOREMS,
    congestion_lower_bound,
    dilation_lower_bound,
    verify_theorem,
    wirelength_lower_bound,
)
from wheelembed.embedding import evaluate
from wheelembed.families import (
    circulant,
    complete,
    cycle,
    fan,
    generalized_petersen,
    hypertree,
    star,
    torus,
    wheel,
    windmill,
)
from wheelembed.graphs import build_graph, status_and_median
from wheelembed.hamiltonian import find_hamiltonian_cycle, find_hamiltonian_path
from wheelembed.oracle import exact_wirelength

GUESTS = {"wheel": wheel, "fan": fan}


class TestDilationLowerBound:
    def test_wheel_into_hypertree(self):
        report = dilation_lower_bound(wheel(15), hypertree(4))
        assert report.bound == 3

    def test_star_into_cycle_is_tight(self):
        report = dilation_lower_bound(star(7), cycle(7))
        assert report.bound == 3
        assert report.achieved == 3
        assert report.sharp
        assert "diameter" in report.notes

    def test_no_universal_vertex(self):
        with pytest.raises(ValueError, match="universal"):
            dilation_lower_bound(cycle(5), cycle(5))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="orders"):
            dilation_lower_bound(star(5), cycle(6))

    def test_disconnected_host(self):
        with pytest.raises(ValueError, match="^dilation bound requires a connected host$"):
            dilation_lower_bound(star(4), build_graph(4, [(1, 2), (3, 4)]))

    def test_guest_checks_come_before_host_connectivity(self):
        # the ball pass decides connectivity, after the orders and the hub
        disconnected = build_graph(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="orders"):
            dilation_lower_bound(star(5), disconnected)
        with pytest.raises(ValueError, match="universal"):
            dilation_lower_bound(cycle(4), disconnected)


class TestCongestionLowerBound:
    def test_windmill_into_circulant(self):
        assert congestion_lower_bound(windmill(8), circulant(16, {1, 4})).bound == 4

    def test_wheel_into_circulant(self):
        assert congestion_lower_bound(wheel(8), circulant(8, {1, 2})).bound == 2

    def test_star_into_cycle(self):
        assert congestion_lower_bound(star(9), cycle(9)).bound == 4

    def test_disconnected_host(self):
        # no embedding into this host can route the guest's edges
        with pytest.raises(ValueError, match="congestion bound requires a connected host"):
            congestion_lower_bound(wheel(5), build_graph(5, [(1, 2), (3, 4)]))


class TestWirelengthLowerBound:
    @pytest.mark.parametrize("kind", ["wheel", "fan"])
    def test_disconnected_host(self, kind):
        with pytest.raises(ValueError, match="^wirelength bound requires a connected host$"):
            wirelength_lower_bound(kind, build_graph(4, [(1, 2), (3, 4)]))

    def test_wheel_sharp_on_circulant(self):
        report = wirelength_lower_bound("wheel", circulant(8, {1, 2}))
        assert (report.bound, report.achieved, report.sharp) == (17, 17, True)
        assert evaluate(report.witness).wirelength == report.achieved

    def test_fan_sharp_on_circulant(self):
        report = wirelength_lower_bound("fan", circulant(8, {1, 2}))
        assert (report.bound, report.achieved, report.sharp) == (16, 16, True)

    def test_star_host_not_sharp(self):
        report = wirelength_lower_bound("wheel", star(8))
        assert report.bound == 14
        assert report.sharp is False
        assert report.achieved is None

    def test_cycle_host_sharp_for_fan_but_not_wheel(self):
        # removing any vertex from a cycle leaves a path: a spanning path
        # exists (fan equality) but no spanning cycle does (wheel inequality)
        host = cycle(9)
        assert wirelength_lower_bound("fan", host).sharp is True
        assert wirelength_lower_bound("wheel", host).sharp is False

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            wirelength_lower_bound("windmill", cycle(6))

    @pytest.mark.parametrize("kind", ["friendship", "star"])
    def test_guest_kind_without_a_construction(self, kind):
        # HUB_GUESTS holds these kinds with no median construction yet
        with pytest.raises(ValueError, match=f"^kind must be 'wheel' or 'fan', got '{kind}'$"):
            wirelength_lower_bound(kind, cycle(7))

    def test_fan_on_three_vertices_meets_the_oracle(self):
        # F_3 onto K3: 3 = (3 - 2) + status 2, the exhaustive optimum; the
        # wheel's least order is the wheel family's to enforce, and the bound
        # names itself and the host around the family's message
        host = complete(3)
        report = wirelength_lower_bound("fan", host)
        assert (report.bound, report.achieved, report.sharp) == (3, 3, True)
        assert exact_wirelength(fan(3), host).optimum == 3
        with pytest.raises(ValueError, match="^wirelength bound of a wheel guest on host "
                                             "'complete-3': wheel needs order >= 4, got 3$"):
            wirelength_lower_bound("wheel", host)

    def test_sharpness_tracks_hamiltonicity_both_ways(self):
        hosts = [circulant(8, {1, 2}), cycle(7), star(9), torus([3, 3]),
                 circulant(10, {2, 5}), wheel(8)]
        for host in hosts:
            medians, _ = status_and_median(host)
            wheel_report = wirelength_lower_bound("wheel", host)
            has_cycle = any(find_hamiltonian_cycle(host, without_vertices=(u,)) is not None
                            for u in medians)
            assert wheel_report.sharp == has_cycle
            fan_report = wirelength_lower_bound("fan", host)
            has_path = any(find_hamiltonian_path(host, without_vertices=(u,)) is not None
                           for u in medians)
            assert fan_report.sharp == has_path

    @pytest.mark.parametrize("kind, edges, hub", [
        # medians (1, 3, 5): only 3 leaves a spanning path
        ("fan", [(1, 2), (1, 3), (1, 5), (3, 4), (3, 5), (4, 5)], 3),
        # medians (2, 3, 4, 5): 2 leaves no spanning cycle, 3 does
        ("wheel", [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)], 3),
    ])
    def test_sharp_at_a_later_median(self, kind, edges, hub):
        host = build_graph(5, edges)
        report = wirelength_lower_bound(kind, host)
        assert report.sharp is True
        assert report.achieved == report.bound == exact_wirelength(GUESTS[kind](5), host).optimum
        assert report.witness.vmap[1] == hub


@given(connected_graphs(min_order=4, max_order=7))
@settings(max_examples=40, deadline=None)
def test_wirelength_sharp_iff_oracle_meets_bound(host):
    for kind, guest in GUESTS.items():
        report = wirelength_lower_bound(kind, host)
        optimum = exact_wirelength(guest(host.order), host).optimum
        assert optimum >= report.bound
        assert report.sharp == (optimum == report.bound)


class TestVerifyTheorem:
    def test_dilation_instance(self):
        [report] = verify_theorem("dil-hypertree", 4, kind="star").values()
        assert (report.bound, report.achieved, report.sharp) == (3, 3, True)

    def test_radius_that_differs_from_the_claim_is_noted(self, monkeypatch):
        # the bound is the host radius, whatever the claim says
        radius_diameter = bounds_mod.radius_diameter

        def radius_one_above(H):
            r, d = radius_diameter(H)
            return r + 1, d

        monkeypatch.setattr(bounds_mod, "radius_diameter", radius_one_above)
        [report] = verify_theorem("dil-hypertree", 4, kind="wheel").values()
        assert (report.bound, report.achieved, report.sharp) == (4, 3, False)
        assert report.notes == ("claimed dilation 3; host radius 4 "
                                "(radius differs from the claimed level-1 value)")

    def test_dilation_sweep_runs_no_bfs(self, monkeypatch):
        # the radius and its connectivity verdict come from the ball pass,
        # the routes from their own trees
        runs = record_bfs(monkeypatch)
        assert verify_theorem("dil-hypertree", 6, kind="wheel")["wheel"].sharp
        assert runs == []

    def test_dilation_at_level_ten_runs_at_most_one_bfs(self, monkeypatch):
        runs = record_bfs(monkeypatch)
        assert verify_theorem("dil-hypertree", 10, kind="wheel")["wheel"].sharp
        assert len(runs) <= 1

    @pytest.mark.parametrize("theorem", ["wl-wheel", "wl-fan"])
    def test_wirelength_runs_no_bfs(self, monkeypatch, theorem):
        # the bound and the median construction read connectivity from the
        # ball pass that gives the host's status and medians
        runs = record_bfs(monkeypatch)
        [report] = verify_theorem(theorem, circulant(12, {1, 2})).values()
        assert report.sharp
        assert runs == []

    def test_ball_pass_runs_once_per_host_across_guest_kinds(self, monkeypatch):
        calls = []
        kernel = graphs_mod._ball_growth
        monkeypatch.setattr(graphs_mod, "_ball_growth",
                            lambda G: calls.append(G) or kernel(G))
        reports = verify_theorem("dil-hypertree", 5)
        assert list(reports) == list(GUEST_KINDS)
        assert all(report.sharp for report in reports.values())
        assert len(calls) == 1 and calls[0].name == "hypertree-5"
        assert all(report.witness.host is calls[0] for report in reports.values())

    def test_dilation_all_hosts(self):
        for theorem in ("dil-hypertree", "dil-sibling", "dil-xtree"):
            report = verify_theorem(theorem, 3, kind="wheel")["wheel"]
            assert report.sharp
            assert report.achieved == 2

    def test_windmill_congestion_instance(self):
        report = verify_theorem("ec-windmill", 5)["windmill"]
        assert (report.bound, report.achieved, report.sharp) == (8, 8, True)

    def test_windmill_small_order_noted(self):
        report = verify_theorem("ec-windmill", 3)["windmill"]
        assert report.sharp
        assert "large-n" in report.notes

    def test_wirelength_instance(self):
        report = verify_theorem("wl-wheel", torus([3, 3]))["wheel"]
        assert (report.bound, report.achieved, report.sharp) == (20, 20, True)

    def test_wirelength_fan_instance(self):
        report = verify_theorem("wl-fan", generalized_petersen(5, 2))["fan"]
        assert (report.bound, report.achieved, report.sharp) == (23, 23, True)

    def test_wirelength_host_order_builds_the_two_jump_circulant(self):
        report = verify_theorem("wl-wheel", 9)["wheel"]
        assert report.host == circulant(9, {1, 2}).name
        assert report.witness.host.edges == circulant(9, {1, 2}).edges
        with pytest.raises(ValueError, match=r"^wl-fan needs --host order >= 4, got 3$"):
            verify_theorem("wl-fan", 3)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            verify_theorem("dil-cube", 3)

    def test_unknown_guest_kind_names_the_kinds(self):
        with pytest.raises(ValueError, match=re.escape(f"one of {GUEST_KINDS}, got 'cube'")):
            verify_theorem("dil-hypertree", 3, kind="cube")

    def test_options_a_theorem_does_not_read(self):
        # the table names each option a theorem reads; every other one is an error
        rejected = 0
        for theorem in THEOREM_IDS:
            for name, given in (("kind", "wheel"), ("node_limit", 100)):
                if name not in THEOREMS[theorem][3]:
                    with pytest.raises(ValueError, match=f"^{theorem} does not read {name}$"):
                        verify_theorem(theorem, 3, **{name: given})
                    rejected += 1
        assert rejected == 7

    def test_achieved_never_below_bound(self):
        # achieved is the witness's own value of the report's metric
        field = {"dilation": "max_dilation", "congestion": "max_congestion",
                 "wirelength": "wirelength"}
        reports = [
            *verify_theorem("dil-hypertree", 4, kind="fan").values(),
            *verify_theorem("ec-windmill", 4).values(),
            *verify_theorem("wl-wheel", circulant(9, {1, 2})).values(),
            *verify_theorem("wl-fan", 8).values(),
        ]
        for report in reports:
            assert report.achieved >= report.bound
            assert report.sharp == (report.achieved == report.bound)
            assert report.achieved == getattr(evaluate(report.witness), field[report.metric])
            assert report.host == report.witness.host.name
