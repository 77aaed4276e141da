import cmath
import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleroute import netgraph
from teleroute import (
    CapExceededError,
    GenerationError,
    Link,
    Network,
    NoPathError,
    NotAdditiveError,
    Path,
    PureSchmidtChannel,
    VIOLATION_MARGIN,
    ValidationError,
    ViolationWitness,
    WernerGenChannel,
    XState,
    additive_model_applies,
    all_simple_paths,
    check_optimal_substructure,
    dijkstra_route,
    exact_route,
    find_violation,
    link_weights,
    path_channels,
    path_objective,
    random_network,
)
from teleroute.errors import DomainError
from teleroute.qcore import PSD_TOL

from conftest import network_draws_digest, pure_n, violation_pin

BELL = PureSchmidtChannel(math.pi / 4)


def complete_bell(n):
    names = [f"K{i}" for i in range(n)]
    return Network(
        names,
        [Link(names[i], names[j], f"e{i}{j}", BELL) for i in range(n) for j in range(i + 1, n)],
    )


def chain(n, channel):
    names = [f"C{i:04d}" for i in range(n)]
    return Network(names, [Link(names[i], names[i + 1], f"c{i:04d}", channel) for i in range(n - 1)])


def phase_hole_net(a14):
    # direct link with mu = 1, N = 2|a14| and nu = 2 Re a14, which is
    # below N unless a14 is real and positive
    return Network(
        ["A", "B", "C"],
        [
            Link("A", "B", "ab", XState(0.5, 0.0, 0.0, 0.5, a14, 0.0)),
            Link("A", "C", "ac", pure_n(0.9)),
            Link("C", "B", "cb", pure_n(0.9)),
        ],
    )


def canonical_best(net, src, dst):
    """(fidelity, hops, nodes, link ids) of the best simple path, by
    brute force over the unpruned oracle; None when there is no path."""
    candidates = []
    for p in all_simple_paths(net, src, dst):
        obj = path_objective(path_channels(net, p))
        candidates.append((-obj.fidelity, p.hops, p.nodes, p.link_ids))
    if not candidates:
        return None
    fid, hops, nodes, link_ids = min(candidates)
    return -fid, hops, nodes, link_ids


def oracle_best_path(net, src, dst):
    best = canonical_best(net, src, dst)
    return None if best is None else Path(nodes=best[2], link_ids=best[3])


def routed_best_path(net, src, dst):
    try:
        return exact_route(net, src, dst).path
    except NoPathError:
        return None


def reference_witness(net, source, best_path):
    """The witness check_optimal_substructure must return, rebuilt from
    best_path(net, source, dst) for every destination: the first ext in
    sorted order and mid along the best path to ext whose prefix loses
    to the best path to mid by more than VIOLATION_MARGIN."""
    best = {}
    for dst in net.nodes:
        if dst != source:
            path = best_path(net, source, dst)
            if path is not None:
                best[dst] = path
    for ext in sorted(best):
        to_ext = best[ext]
        channels = path_channels(net, to_ext)
        for i in range(1, to_ext.hops):
            mid = to_ext.nodes[i]
            prefix = path_objective(channels[:i])
            to_mid = path_objective(path_channels(net, best[mid]))
            if to_mid.fidelity - prefix.fidelity > VIOLATION_MARGIN:
                return ViolationWitness(
                    source, mid, ext, best[mid], to_ext, to_mid, prefix, path_objective(channels)
                )
    return None


class TestNetwork:
    def test_rejects_duplicate_link_ids(self):
        with pytest.raises(ValidationError):
            Network(["A", "B"], [Link("A", "B", "e", BELL), Link("B", "A", "e", BELL)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Network(["A", "B"], [Link("A", "A", "e", BELL)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValidationError):
            Network(["A", "B"], [Link("A", "C", "e", BELL)])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValidationError):
            Network(["A", "A", "B"], [])

    @pytest.mark.parametrize("names", [[1, "a"], ["a", None], ["a", ""], [("a",), "b"]])
    def test_rejects_bad_node_names_before_sorting(self, names):
        with pytest.raises(ValidationError, match="bad node name"):
            Network(names, [])

    @pytest.mark.parametrize("ids", [[1, "x"], [None], [""]])
    def test_rejects_bad_link_ids_before_sorting(self, ids):
        links = [Link("A", "B", link_id, BELL) for link_id in ids]
        with pytest.raises(ValidationError, match="bad link id"):
            Network(["A", "B"], links)

    @pytest.mark.parametrize("ends", [(["A"], "B"), ("A", None), ("A", ""), (1, "B")])
    def test_rejects_bad_link_endpoints_before_lookup(self, ends):
        with pytest.raises(ValidationError, match="bad endpoint"):
            Network(["A", "B"], [Link(*ends, "e", BELL)])

    @pytest.mark.parametrize("channel", [None, "bell", np.eye(4) / 4])
    def test_rejects_bad_channels_before_any_weight(self, channel):
        with pytest.raises(ValidationError, match="link 'e' has a bad channel"):
            Network(["A", "B"], [Link("A", "B", "e", channel)])

    def test_neighbors_are_sorted(self, triangle):
        others = [other for other, _ in triangle.neighbors("A")]
        assert others == sorted(others)

    def test_neighbors_sort_by_name_then_link_id(self):
        links = [Link("a", "n9", "L9", BELL), Link("a", "n10", "L3", BELL), Link("a", "B", "L9b", BELL),
                 Link("a", "n10", "L10", BELL), Link("B", "a", "L1", BELL)]
        net = Network(["a", "n9", "n10", "B"], links)
        pairs = [(other, link.link_id) for other, link in net.neighbors("a")]
        assert pairs == [("B", "L1"), ("B", "L9b"), ("n10", "L10"), ("n10", "L3"), ("n9", "L9")]
        assert all(isinstance(link, Link) for _, link in net.neighbors("a"))
        assert net.neighbors("n9") == (("a", net.link("L9")),)

    def test_unknown_node_lookup(self, triangle):
        with pytest.raises(DomainError):
            triangle.neighbors("Z")
        with pytest.raises(DomainError):
            triangle.link("nope")

    def test_without_and_with_link(self, triangle):
        smaller = triangle._derived([l for l in triangle.links if l.link_id != "ab"])
        assert len(smaller.links) == 2
        with pytest.raises(DomainError):
            smaller.link("ab")
        grown = smaller._derived(list(smaller.links) + [Link("A", "B", "ab2", BELL)])
        assert grown.link("ab2").u == "A"
        # original is untouched
        assert len(triangle.links) == 3
        with pytest.raises(ValidationError):
            triangle._derived(list(triangle.links) + [Link("A", "B", "ab", BELL)])

    def test_derived_networks_reuse_the_weight_table(self, triangle, monkeypatch):
        calls = []

        def counted(channel):
            calls.append(channel)
            return link_weights(channel)

        monkeypatch.setattr(netgraph, "link_weights", counted)
        # the parent's table is computed once, and the derived network reuses it
        kept = [l for l in triangle.links if l.link_id != "ab"]
        derived = triangle._derived(kept)
        assert len(calls) == 3
        assert derived.weights == tuple(link_weights(l.channel) for l in derived.links)
        assert len(calls) == 3
        smaller = triangle._derived(kept)
        grown = smaller._derived(kept + [Link("A", "B", "ab2", BELL)])
        assert calls[3:] == [BELL]
        assert smaller.weights == tuple(link_weights(l.channel) for l in smaller.links)
        assert grown.weights == tuple(link_weights(l.channel) for l in grown.links)
        # a new link that reuses an id gets its own weights, not the old link's
        calls.clear()
        swapped = triangle._derived(kept + [Link("A", "B", "ab", BELL)])
        assert calls == [BELL]
        assert swapped.weights == tuple(link_weights(l.channel) for l in swapped.links)
        assert exact_route(swapped, "A", "B").path.link_ids == ("ab",)
        bell = Network(["A", "B"], [Link("A", "B", "ab", BELL)])
        bell.weights
        weak = Link("A", "B", "ab", PureSchmidtChannel(0.1))
        route = exact_route(bell._derived([weak]), "A", "B")
        assert route.objective.fidelity == path_objective([weak.channel]).fidelity
        assert route.objective.fidelity == pytest.approx(0.7997, abs=1e-4)

    def test_parallel_links_are_allowed(self):
        net = Network(["A", "B"], [Link("A", "B", "e1", BELL), Link("A", "B", "e2", pure_n(0.5))])
        assert len(net.neighbors("A")) == 2


class TestPath:
    def test_validates_shape(self):
        with pytest.raises(ValidationError):
            Path(nodes=("A", "B"), link_ids=())
        with pytest.raises(ValidationError):
            Path(nodes=("A",), link_ids=())
        with pytest.raises(ValidationError):
            Path(nodes=("A", "B", "A"), link_ids=("e1", "e2"))

    def test_path_channels_checks_consistency(self, triangle):
        good = Path(nodes=("A", "C", "B"), link_ids=("ac", "cb"))
        assert len(path_channels(triangle, good)) == 2
        bad = Path(nodes=("A", "C", "B"), link_ids=("ab", "cb"))
        with pytest.raises(ValidationError):
            path_channels(triangle, bad)


class TestDijkstraRoute:
    def test_triangle_prefers_the_relay(self, triangle):
        r = dijkstra_route(triangle, "A", "B")
        assert r.path.nodes == ("A", "C", "B")
        assert r.path.link_ids == ("ac", "cb")
        assert r.objective.fidelity == pytest.approx(0.93, abs=1e-12)
        assert r.method == "dijkstra"

    def test_endpoint_checks(self, triangle):
        with pytest.raises(DomainError):
            dijkstra_route(triangle, "A", "A")
        with pytest.raises(DomainError):
            dijkstra_route(triangle, "A", "Z")

    def test_rejects_populated_inner_levels(self):
        net = Network(
            ["A", "B"],
            [Link("A", "B", "w", WernerGenChannel(0.9, math.pi / 4))],
        )
        with pytest.raises(NotAdditiveError) as exc:
            dijkstra_route(net, "A", "B")
        assert exc.value.link_id == "w"

    def test_separable_link_is_taken_when_no_other_path_exists(self):
        # weight inf sorts after every finite distance, so the answer is
        # exact_route's: the separable path at fidelity 0.75
        net = Network(["A", "B"], [Link("A", "B", "dead", PureSchmidtChannel(0.0))])
        r = dijkstra_route(net, "A", "B")
        assert r.path.link_ids == ("dead",)
        assert r.objective.fidelity == 0.75
        assert r.objective == exact_route(net, "A", "B").objective

    def test_finite_path_beats_a_separable_link(self):
        net = Network(
            ["A", "B", "C"],
            [
                Link("A", "B", "dead", PureSchmidtChannel(0.0)),
                Link("A", "C", "ac", pure_n(0.1)),
                Link("C", "B", "cb", pure_n(0.1)),
            ],
        )
        assert dijkstra_route(net, "A", "B").path.nodes == ("A", "C", "B")

    def test_separable_tie_takes_the_fewest_hops(self):
        # every A-D path has a separable link, so all tie at 0.75; the finite
        # A-B-C must not fix C's prefix: the fewest hops win, as in exact_route
        net = Network(
            ["A", "B", "C", "D"],
            [
                Link("A", "B", "ab", PureSchmidtChannel(0.5)),
                Link("A", "C", "ac", PureSchmidtChannel(0.0)),
                Link("B", "C", "bc", PureSchmidtChannel(0.5)),
                Link("C", "D", "cd", PureSchmidtChannel(0.0)),
            ],
        )
        r = dijkstra_route(net, "A", "D")
        assert r.path == exact_route(net, "A", "D").path == Path(("A", "C", "D"), ("ac", "cd"))
        assert r.objective.fidelity == 0.75

    def test_a_route_at_the_fidelity_floor_takes_the_fewest_hops(self):
        # the relay's nu product 1e-18 beats the direct link's 1e-20, yet
        # neither moves the fidelity off (2 + 1) / 4: all paths tie, so
        # the fewest hops win, as in exact_route
        net = Network(
            ["A", "B", "C"],
            [
                Link("A", "B", "ab", pure_n(1e-20)),
                Link("A", "C", "ac", pure_n(1e-9)),
                Link("C", "B", "cb", pure_n(1e-9)),
            ],
        )
        r = dijkstra_route(net, "A", "B")
        assert r.path == exact_route(net, "A", "B").path == Path(("A", "B"), ("ab",))
        assert r.objective.fidelity == 0.75
        assert r.objective.nu_product == 1e-20

    def test_no_path_in_disconnected_network(self):
        net = Network(["A", "B", "C"], [Link("A", "B", "ab", BELL)])
        with pytest.raises(NoPathError):
            dijkstra_route(net, "A", "C")

    def test_hop_tie_break(self):
        # equal objective either way; fewer hops must win
        net = Network(
            ["A", "B", "C"],
            [Link("A", "B", "ab", BELL), Link("A", "C", "ac", BELL), Link("C", "B", "cb", BELL)],
        )
        r = dijkstra_route(net, "A", "B")
        assert r.path.nodes == ("A", "B")

    def test_node_sequence_tie_break(self):
        # two 2-hop bell relays; lexicographically smaller middle node wins
        net = Network(
            ["A", "B", "C", "D"],
            [
                Link("A", "D", "ad", BELL),
                Link("D", "B", "db", BELL),
                Link("A", "C", "ac", BELL),
                Link("C", "B", "cb", BELL),
            ],
        )
        r = dijkstra_route(net, "A", "B")
        assert r.path.nodes == ("A", "C", "B")

    def test_link_id_tie_break_on_parallel_links(self):
        net = Network(
            ["A", "B"],
            [Link("A", "B", "z9", BELL), Link("A", "B", "a1", BELL)],
        )
        r = dijkstra_route(net, "A", "B")
        assert r.path.link_ids == ("a1",)


class TestExactRoute:
    def test_matches_dijkstra_on_triangle(self, triangle):
        r = exact_route(triangle, "A", "B")
        assert r.path.nodes == ("A", "C", "B")
        assert r.objective.fidelity == pytest.approx(0.93, abs=1e-12)
        assert r.method == "exact"

    def test_applies_all_tie_breaks(self):
        net = Network(
            ["A", "B", "C", "D"],
            [
                Link("A", "D", "ad", BELL),
                Link("D", "B", "db", BELL),
                Link("A", "C", "ac", BELL),
                Link("C", "B", "cb", BELL),
                Link("A", "B", "z9", BELL),
                Link("A", "B", "a1", BELL),
            ],
        )
        r = exact_route(net, "A", "B")
        assert r.path.nodes == ("A", "B")
        assert r.path.link_ids == ("a1",)

    def test_equal_bound_branches_are_not_pruned(self):
        # a 3-hop all-bell path is found first; the 2-hop winner sits in a
        # branch whose bound equals the incumbent fidelity and must still
        # be explored
        net = Network(
            ["A", "B", "C", "D"],
            [
                Link("A", "B", "ab", BELL),
                Link("B", "C", "bc", BELL),
                Link("C", "D", "cd", BELL),
                Link("A", "C", "ac", BELL),
            ],
        )
        r = exact_route(net, "A", "D")
        assert r.path.nodes == ("A", "C", "D")
        assert r.objective.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_rounding_slack_keeps_exact_ties(self):
        # the relay through N1 is found first; the direct N2-N4 finish
        # ties it exactly, but its destination bound, summed in another
        # order, lands one ulp below the incumbent fidelity
        werner = WernerGenChannel(1.0, 0.11550310302161351)
        net = Network(
            ["N0", "N1", "N2", "N4"],
            [
                Link("N2", "N0", "e01", werner),
                Link("N4", "N2", "e00", BELL),
                Link("N1", "N2", "e02", BELL),
                Link("N4", "N1", "e09", BELL),
            ],
        )
        r = exact_route(net, "N0", "N4")
        assert r.path.nodes == ("N0", "N2", "N4")
        assert (r.objective.fidelity, r.path.hops, r.path.nodes, r.path.link_ids) == canonical_best(
            net, "N0", "N4"
        )

    def test_handles_mixed_links(self, witness_net):
        r = exact_route(witness_net, "A", "D")
        assert r.path.nodes == ("A", "C", "B", "D")
        assert r.objective.fidelity == pytest.approx(0.6625, abs=1e-12)

    def test_uses_separable_link_when_unavoidable(self):
        net = Network(["A", "B"], [Link("A", "B", "dead", PureSchmidtChannel(0.0))])
        r = exact_route(net, "A", "B")
        assert r.objective.fidelity == pytest.approx(0.75, abs=1e-12)

    def test_agrees_with_unpruned_enumeration(self):
        rng = np.random.default_rng(53)
        for trial in range(20):
            net = random_network(int(rng.integers(0, 2**32)), 5, 0.7, "x")
            src, dst = net.nodes[0], net.nodes[-1]
            try:
                routed = exact_route(net, src, dst)
            except NoPathError:
                assert not all_simple_paths(net, src, dst)
                continue
            candidates = []
            for p in all_simple_paths(net, src, dst):
                obj = path_objective(path_channels(net, p))
                candidates.append((-obj.fidelity, p.hops, p.nodes, p.link_ids))
            best = min(candidates)
            assert routed.objective.fidelity == pytest.approx(-best[0], abs=1e-12)
            assert routed.path.nodes == best[2]
            assert routed.path.link_ids == best[3]


class TestTieBreakByName:
    # positions sort as names do: "B" < "a", "n10" < "n9" and "L10" < "L9",
    # though each network lists them the other way round
    @pytest.mark.parametrize("relays,winner", [(["n9", "n10"], "n10"), (["a", "B"], "B")])
    def test_equal_routes_go_to_the_smallest_names(self, relays, winner):
        links = []
        for r in relays:
            links += [Link("S", r, f"L9{r}", BELL), Link("S", r, f"L10{r}", BELL), Link(r, "T", f"t{r}", BELL)]
        net = Network(["T", *relays, "S"], links)
        expected = Path(nodes=("S", winner, "T"), link_ids=(f"L10{winner}", f"t{winner}"))
        assert oracle_best_path(net, "S", "T") == expected
        assert exact_route(net, "S", "T").path == expected
        assert dijkstra_route(net, "S", "T").path == expected

    def test_substructure_witness_takes_the_smallest_names(self):
        # build_witness_net with its relay C doubled as n9 and n10, and the
        # relay's links to B doubled as P9 and P10
        ab = XState(0.475, 0.025, 0.025, 0.475, 0.025, 0.025)
        cb = XState(0.3, 0.2, 0.2, 0.3, 0.15, 0.2)
        bd = XState(0.275, 0.225, 0.225, 0.275, 0.225, 0.225)
        links = [Link("a", "B", "ab", ab), Link("B", "d", "bd", bd)]
        for r in ("n9", "n10"):
            links += [Link("a", r, f"a{r}", BELL), Link(r, "B", f"P9{r}", cb), Link(r, "B", f"P10{r}", cb)]
        net = Network(["d", "n9", "n10", "B", "a"], links)
        w = check_optimal_substructure(net, "a")
        assert w == reference_witness(net, "a", oracle_best_path)
        assert (w.mid, w.ext) == ("B", "d")
        assert w.best_to_ext == Path(nodes=("a", "n10", "B", "d"), link_ids=("an10", "P10n10", "bd"))
        assert w.best_to_mid == Path(nodes=("a", "B"), link_ids=("ab",))

    def test_unknown_nodes_raise_domain_error(self, triangle):
        for src, dst in (("Z", "B"), ("A", "Z")):
            for search in (exact_route, dijkstra_route, all_simple_paths):
                with pytest.raises(DomainError, match="unknown node 'Z'"):
                    search(triangle, src, dst)
        with pytest.raises(DomainError, match="unknown node 'Z'"):
            check_optimal_substructure(triangle, "Z")
        with pytest.raises(DomainError, match="unknown node 'Z'"):
            triangle.neighbors("Z")


def fixpoint_bounds(net, src, dst):
    """The labels _dst_bounds must return, by a plain fixpoint: relax
    every link both ways, never into src, until nothing changes. A label
    is (fewest links to dst, largest |mu| product, largest |nu| product),
    and None where dst cannot be reached without passing src."""
    weights = [link_weights(l.channel) for l in net.links]
    labels = {dst: (0, 1.0, 1.0)}
    changed = True
    while changed:
        changed = False
        for link, w in zip(net.links, weights):
            for near, far in ((link.u, link.v), (link.v, link.u)):
                if far == src or near not in labels:
                    continue
                hops, hmu, hnu = labels[near]
                offer = (hops + 1, hmu * abs(w.mu), hnu * abs(w.nu))
                cur = labels.get(far, offer)
                new = (min(cur[0], offer[0]), max(cur[1], offer[1]), max(cur[2], offer[2]))
                if labels.get(far) != new:
                    labels[far] = new
                    changed = True
    return [labels.get(name) for name in net.nodes]


def sweep_labels(net, src, dst):
    """_dst_bounds's three lists as one label, or None, per node."""
    rest, hmu, hnu = netgraph._dst_bounds(net, net.nodes.index(src), net.nodes.index(dst))
    return [None if r is None else (r, m, n) for r, m, n in zip(rest, hmu, hnu)]


class TestDestinationBounds:
    @pytest.mark.parametrize("family", ["x", "werner", "pure"])
    def test_sweep_labels_equal_the_plain_fixpoint(self, family):
        for node_count in range(4, 16):
            net = random_network(100 * node_count + len(family), node_count, 0.4, family)
            for src in net.nodes:
                for dst in net.nodes:
                    if src == dst:
                        continue
                    assert sweep_labels(net, src, dst) == fixpoint_bounds(net, src, dst), (node_count, src, dst)

    def test_sweep_reads_factors_clamped_at_one(self):
        net = Network(
            ["A", "B", "C", "D"],
            [
                Link("A", "B", "ab", XState(0.5, 0.0, 0.0, 0.5, 0.5 + 0.9e-10)),
                Link("B", "C", "bc", XState(0.5, 0.0, 0.0, 0.5, 0.3)),
                Link("C", "D", "cd", pure_n(0.7)),
                Link("B", "D", "bd", XState(0.3, 0.2, 0.2, 0.3, 0.15, 0.2)),
            ],
        )
        # the ab corner's raw 2 Re a14 exceeds 1; link_weights clamps it
        assert 2.0 * net.link("ab").channel.a14.real > 1.0
        assert max(w.nu for w in net.weights) == 1.0
        for src, dst in [("A", "D"), ("D", "A"), ("C", "A"), ("B", "D")]:
            labels = sweep_labels(net, src, dst)
            assert labels == fixpoint_bounds(net, src, dst)
            assert labels[net.nodes.index(src)] is None


class TestLinkFactorsAboveOne:
    # the types accept a block eigenvalue down to -PSD_TOL, so a corner's
    # raw 2 Re a14 can exceed 1 slightly; link_weights clamps nu to 1, so
    # a relay through such a link cannot beat the slightly stronger direct link
    def test_direct_link_beats_a_relay_past_one(self):
        net = Network(
            ["A", "B", "C"],
            [
                Link("A", "B", "ab", XState(0.5, 0.0, 0.0, 0.5, 0.3 * (1 + 1e-10))),
                Link("A", "C", "ac", XState(0.5, 0.0, 0.0, 0.5, 0.3)),
                Link("C", "B", "cb", XState(0.5, 0.0, 0.0, 0.5, 0.5 + 0.9e-10)),
            ],
        )
        assert 2.0 * net.link("cb").channel.a14.real > 1.0
        assert link_weights(net.link("cb").channel).nu == 1.0
        r = exact_route(net, "A", "B")
        d = dijkstra_route(net, "A", "B")
        assert r.path == d.path == Path(("A", "B"), ("ab",))
        assert r.objective.fidelity == d.objective.fidelity == canonical_best(net, "A", "B")[0]
        assert r.objective.fidelity > path_objective([net.link("ac").channel, net.link("cb").channel]).fidelity
        assert r.objective.fidelity <= 1.0


class TestMethodAgreement:
    def test_dijkstra_and_exact_agree_on_random_pure_networks(self):
        rng = np.random.default_rng(59)
        for trial in range(30):
            node_count = int(rng.integers(4, 9))
            net = random_network(int(rng.integers(0, 2**32)), node_count, 0.5, "pure")
            src, dst = net.nodes[0], net.nodes[-1]
            d = dijkstra_route(net, src, dst)
            e = exact_route(net, src, dst)
            assert d.path == e.path
            assert d.objective.fidelity == pytest.approx(e.objective.fidelity, abs=1e-12)

    def test_dijkstra_and_exact_agree_where_separable_paths_tie(self):
        # pure networks of 2-7 nodes, 40% of links separable: where every
        # path has a separable link, all tie at 0.75 and both engines take
        # the canonical one
        rng = random.Random(5)
        for trial in range(600):
            names = [chr(ord("A") + i) for i in range(rng.randint(2, 7))]
            links = []
            for u, v in itertools.combinations(names, 2):
                for _ in range(rng.choice((0, 1, 1, 2))):
                    theta = 0.0 if rng.random() < 0.4 else rng.uniform(0.05, math.pi / 4)
                    links.append(Link(u, v, f"e{len(links):02d}", PureSchmidtChannel(theta)))
            net = Network(names, links)
            for src, dst in itertools.permutations(names, 2):
                try:
                    e = exact_route(net, src, dst)
                except NoPathError:
                    with pytest.raises(NoPathError):
                        dijkstra_route(net, src, dst)
                    continue
                d = dijkstra_route(net, src, dst)
                assert (d.path, d.objective) == (e.path, e.objective), (trial, net.links)


class TestAllSimplePaths:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_count_on_complete_graphs(self, n):
        # a path picks k of the n - 2 inner nodes in order (1957 for K8)
        expected = sum(math.factorial(n - 2) // math.factorial(n - 2 - k) for k in range(n - 1))
        assert len(all_simple_paths(complete_bell(n), "K0", f"K{n - 1}")) == expected


class TestLongChains:
    # thousands of hops must not hit the interpreter's recursion limit
    N = 1500

    def test_exact_route(self):
        net = chain(self.N, pure_n(0.999))
        r = exact_route(net, net.nodes[0], net.nodes[-1])
        assert r.path.hops == self.N - 1
        assert r.objective.fidelity == pytest.approx((3.0 + 0.999 ** (self.N - 1)) / 4.0, abs=1e-12)

    def test_all_simple_paths(self):
        net = chain(self.N, BELL)
        (path,) = all_simple_paths(net, net.nodes[0], net.nodes[-1])
        assert path.nodes == net.nodes

    def test_check_optimal_substructure(self):
        net = chain(self.N, pure_n(0.999))
        assert check_optimal_substructure(net, net.nodes[0]) is None


class TestSearchBudget:
    def test_budget_counts_every_visited_path(self, monkeypatch):
        # src and dst joined through k Bell relays: every relay ties the
        # incumbent on fidelity and hops, so nothing prunes, and the walk
        # visits each src-relay and each relay-dst extension once (2k)
        k = 6
        relays = [f"M{i}" for i in range(k)]
        net = Network(
            ["S", "T", *relays],
            [Link("S", m, f"s{m}", BELL) for m in relays] + [Link(m, "T", f"t{m}", BELL) for m in relays],
        )
        monkeypatch.setattr(netgraph, "MAX_SEARCH_PATHS", 2 * k)
        assert exact_route(net, "S", "T").path.nodes == ("S", "M0", "T")
        monkeypatch.setattr(netgraph, "MAX_SEARCH_PATHS", 2 * k - 1)
        with pytest.raises(CapExceededError):
            exact_route(net, "S", "T")

    @pytest.mark.parametrize("n,budget", [(8, 50), (10, 100)])
    def test_complete_bell_graphs_collapse(self, monkeypatch, n, budget):
        # once a Bell path is the incumbent, only branches that could
        # still tie it on hops survive (43 visits for K8, 73 for K10;
        # 3913 and 219201 with the destination-blind bound)
        monkeypatch.setattr(netgraph, "MAX_SEARCH_PATHS", budget)
        r = exact_route(complete_bell(n), "K0", f"K{n - 1}")
        assert r.path.nodes == ("K0", f"K{n - 1}")
        assert r.objective.fidelity == 1.0

    def test_substructure_check_is_budgeted(self, monkeypatch, witness_net):
        monkeypatch.setattr(netgraph, "MAX_SEARCH_PATHS", 2)
        with pytest.raises(CapExceededError):
            check_optimal_substructure(witness_net, "A")


class TestAdditiveModelApplies:
    def test_pure_networks_qualify(self, triangle):
        assert additive_model_applies(triangle)

    def test_link_weights_computed_once_per_link(self, triangle, monkeypatch):
        calls = []

        def counted(channel):
            calls.append(channel)
            return link_weights(channel)

        monkeypatch.setattr(netgraph, "link_weights", counted)
        assert additive_model_applies(triangle)
        dijkstra_route(triangle, "A", "B")
        additive_model_applies(triangle)
        dijkstra_route(triangle, "B", "C")
        assert len(calls) == len(triangle.links)
        assert triangle.weights == tuple(link_weights(l.channel) for l in triangle.links)

    def test_mixed_networks_do_not(self, witness_net):
        assert not additive_model_applies(witness_net)

    @pytest.mark.parametrize("a14", [-0.45, -0.3 + 0.2j])
    def test_corner_phase_breaks_the_model(self, a14):
        # Re a14 < 0 makes nu negative, which no additive weight can carry
        net = phase_hole_net(a14)
        assert not additive_model_applies(net)
        with pytest.raises(NotAdditiveError) as exc:
            dijkstra_route(net, "A", "B")
        assert exc.value.link_id == "ab"
        r = exact_route(net, "A", "B")
        assert r.path.nodes == ("A", "C", "B")
        assert r.objective.fidelity == pytest.approx(0.9525, abs=1e-12)
        direct = path_objective([net.link("ab").channel]).fidelity
        assert direct == pytest.approx((3.0 + 2.0 * a14.real) / 4.0, abs=1e-12)

    @pytest.mark.parametrize(
        "a14,direct",
        # nu = 0 (imaginary corner), and N = 0.9 with nu = 0.9 cos(pi/4):
        # a -ln N weight (0.105) would take the direct link over the
        # relay's 2 (-ln 0.9) = 0.211, but -ln nu (0.453) does not
        [(0.5j, 0.75), (0.45 * 1j ** 0.5, (3.0 + 0.9 * math.cos(math.pi / 4)) / 4.0)],
        ids=["imaginary", "phased"],
    )
    def test_phased_corner_is_weighed_by_nu(self, a14, direct):
        net = phase_hole_net(a14)
        assert additive_model_applies(net)
        d = dijkstra_route(net, "A", "B")
        e = exact_route(net, "A", "B")
        assert d.path == e.path
        assert d.path.nodes == ("A", "C", "B")
        assert d.objective.fidelity == e.objective.fidelity == pytest.approx(0.9525, abs=1e-12)
        assert path_objective([net.link("ab").channel]).fidelity == pytest.approx(direct, abs=1e-12)


_AMPLITUDE = st.floats(0.0, 1.0)
_PHASE = st.one_of(
    st.sampled_from([1.0, -1.0, 1j, -1j]),
    st.floats(0.0, 2.0 * math.pi).map(lambda t: cmath.exp(1j * t)),
)
_CHANNEL = st.one_of(
    _AMPLITUDE.map(lambda n: PureSchmidtChannel(math.asin(n) / 2.0)),
    st.builds(
        lambda a11, r, phase: XState(
            a11, 0.0, 0.0, 1.0 - a11, r * math.sqrt(a11 * (1.0 - a11)) * phase, 0.0
        ),
        _AMPLITUDE,
        _AMPLITUDE,
        _PHASE,
    ),
)


@st.composite
def _empty_inner_networks(draw):
    # a connected chain plus extra (possibly parallel) links, all with
    # a22 = a33 = 0; corners carry any phase, so a network passes the
    # additive rule exactly when no corner has Re a14 < 0
    n = draw(st.integers(2, 6))
    names = [chr(ord("A") + i) for i in range(n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = [(i, i + 1) for i in range(n - 1)] + draw(st.lists(extra, max_size=10))
    links = [Link(names[i], names[j], f"e{k:02d}", draw(_CHANNEL)) for k, (i, j) in enumerate(pairs)]
    return Network(names, links)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_empty_inner_networks())
def test_methods_agree_where_the_additive_model_applies(net):
    # on every ordered pair: the same path at the same fidelity, bit for bit
    additive = additive_model_applies(net)
    for src, dst in itertools.permutations(net.nodes, 2):
        if not additive:
            with pytest.raises(NotAdditiveError):
                dijkstra_route(net, src, dst)
            continue
        d = dijkstra_route(net, src, dst)
        e = exact_route(net, src, dst)
        assert (d.path, d.objective.fidelity) == (e.path, e.objective.fidelity), net.links


class TestCheckOptimalSubstructure:
    def test_finds_the_documented_witness(self, witness_net):
        w = check_optimal_substructure(witness_net, "A")
        assert w is not None
        assert (w.source, w.mid, w.ext) == ("A", "B", "D")
        assert w.best_to_mid.nodes == ("A", "B")
        assert w.best_to_ext.nodes == ("A", "C", "B", "D")
        assert w.mid_objective.fidelity == pytest.approx(0.75, abs=1e-12)
        assert w.prefix_objective.fidelity == pytest.approx(0.725, abs=1e-12)
        assert w.ext_objective.fidelity == pytest.approx(0.6625, abs=1e-12)
        assert w.margin == pytest.approx(0.025, abs=1e-12)

    def test_pure_networks_have_no_witness(self, triangle):
        for source in triangle.nodes:
            assert check_optimal_substructure(triangle, source) is None

    def test_no_node_cap(self):
        # past the 12 nodes an unpruned walk over every simple path could
        # afford: x networks give a witness early, and on pure ones the
        # check searches every destination
        for n in (13, 24):
            for family in ("x", "pure"):
                net = random_network(n, n, 0.6, family)
                source = net.nodes[0]
                expected = reference_witness(net, source, routed_best_path)
                assert (expected is None) == (family == "pure")
                assert check_optimal_substructure(net, source) == expected
        with pytest.raises(TypeError):
            check_optimal_substructure(net, source, node_cap=24)

    def test_unknown_source(self, triangle):
        with pytest.raises(DomainError):
            check_optimal_substructure(triangle, "Z")

    def test_only_returned_paths_are_named(self, triangle, witness_net, monkeypatch):
        named = []
        names = Network._names

        def counted(net, nodes, links):
            named.append(names(net, nodes, links))
            return named[-1]

        monkeypatch.setattr(Network, "_names", counted)
        assert check_optimal_substructure(triangle, "A") is None
        assert named == []
        w = check_optimal_substructure(witness_net, "A")
        assert named == [(p.nodes, p.link_ids) for p in (w.best_to_mid, w.best_to_ext)]
        named.clear()
        route = exact_route(witness_net, "A", "D")
        assert named == [(route.path.nodes, route.path.link_ids)]


class TestRandomNetwork:
    def test_same_seed_reproduces(self):
        a = random_network(7, 6, 0.5, "x")
        b = random_network(7, 6, 0.5, "x")
        assert a == b

    def test_names_and_ids(self):
        net = random_network(3, 5, 0.8, "pure")
        assert net.nodes == tuple(f"N{i:02d}" for i in range(5))
        assert all(l.link_id.startswith("L") and len(l.link_id) == 4 for l in net.links)

    def test_connectivity(self):
        for seed in range(10):
            net = random_network(seed, 6, 0.4, "x")
            r = exact_route(net, net.nodes[0], net.nodes[-1])
            assert r.path.hops >= 1

    @pytest.mark.parametrize(
        "family,kind",
        [("pure", PureSchmidtChannel), ("x", XState), ("werner", WernerGenChannel)],
    )
    def test_families(self, family, kind):
        net = random_network(11, 4, 1.0, family)
        assert all(isinstance(l.channel, kind) for l in net.links)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            random_network(0, 1, 0.5, "x")
        with pytest.raises(DomainError):
            random_network(0, 4, 0.0, "x")
        with pytest.raises(DomainError):
            random_network(0, 4, 0.5, "ghz")
        # refused before the list of node pairs is built
        with pytest.raises(DomainError, match="need 2 to 1000 nodes"):
            random_network(0, netgraph.MAX_RANDOM_NODES + 1)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((3.5,), "node_count"),
            (("4",), "node_count"),
            ((4, "0.5"), "link_density"),
            ((4, 0.5, ["x"]), "channel family"),
        ],
    )
    def test_argument_of_the_wrong_type_is_a_domain_error(self, args, name):
        with pytest.raises(DomainError, match=name):
            random_network(0, *args)

    @pytest.mark.parametrize("seed", [1.5, "3", None, -1, np.float64(2.0)])
    def test_seed_that_is_not_a_nonnegative_integer_is_a_domain_error(self, seed):
        # None would draw from OS entropy, so two calls would differ
        with pytest.raises(DomainError, match="seed must be"):
            random_network(seed, 4)
        with pytest.raises(DomainError, match="seed must be"):
            find_violation(seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        assert random_network(np.int64(7), 6, 0.5, "x") == random_network(7, 6, 0.5, "x")
        assert random_network(np.random.default_rng(7), 6, 0.5, "x") == random_network(7, 6, 0.5, "x")

    def test_draws_are_pinned(self):
        # a cheaper way to draw must give the same networks
        assert network_draws_digest() == "21d14b8537d4d3a25bd81c1bd60f8a108d7ebb169c7561a3b64b845259a8602e"

    def test_gives_up_when_density_is_hopeless(self):
        with pytest.raises(GenerationError):
            random_network(0, 9, 1e-9, "x")


class TestFindViolation:
    def test_is_deterministic(self):
        first = find_violation(42, attempts=50)
        second = find_violation(42, attempts=50)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_witness_is_genuine(self):
        net, w, used = find_violation(42, attempts=50)
        assert used >= 1
        assert w.margin > 1e-9
        # replaying the check on the returned network reproduces it
        replay = check_optimal_substructure(net, w.source)
        assert replay == w

    def test_witnesses_are_pinned(self):
        # (attempts, source, mid, ext, link ids to ext, margin) of seeds
        # 0-199, recorded from the unpruned walk over every simple path
        golden = json.loads((pathlib.Path(__file__).parent / "data" / "find_violation_seeds.json").read_text())
        assert len(golden) == 200
        for seed, expected in enumerate(golden):
            assert violation_pin(seed) == expected, f"seed {seed}"

    def test_budget_exhaustion(self):
        # pure networks satisfy optimal substructure, so the search fails
        with pytest.raises(GenerationError):
            find_violation(0, attempts=3, channel_family="pure")

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            find_violation(0, attempts=0)
        with pytest.raises(DomainError):
            find_violation(0, node_range=(1, 3))
        with pytest.raises(DomainError, match="bad node range"):
            find_violation(0, node_range=(4, netgraph.MAX_RANDOM_NODES + 1))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"attempts": 2.5}, "attempts"),
            ({"attempts": "3"}, "attempts"),
            ({"node_range": (3, 4.5)}, "node_range HI"),
            ({"node_range": (3,)}, "node_range must be a pair"),
            ({"node_range": 5}, "node_range must be a pair"),
        ],
    )
    def test_argument_of_the_wrong_type_is_a_domain_error(self, kwargs, name):
        with pytest.raises(DomainError, match=name):
            find_violation(0, **kwargs)


# largest corners the types accept at a11 = a44 = 0.5 and a22 = a33 = 0.4:
# their links have |nu| slightly above 1, and only such links make a
# partial product a poor bound
_A14_EDGE = 0.5 + 0.99 * PSD_TOL
_A23_EDGE = 0.4 + 0.99 * PSD_TOL
_EDGE_CHANNEL = st.builds(
    lambda a14: XState(0.5, 0.0, 0.0, 0.5, a14),
    st.sampled_from([_A14_EDGE, -_A14_EDGE, 0.5 + 0.9e-10]),
)
_TIE_CHANNEL = st.one_of(
    _EDGE_CHANNEL,
    st.sampled_from(
        [
            BELL,
            PureSchmidtChannel(0.0),
            pure_n(0.5),
            pure_n(0.9),
            WernerGenChannel(0.5, math.pi / 4),
            WernerGenChannel(1.0, math.pi / 8),
        ]
    ),
    st.builds(
        lambda a14: XState(0.5, 0.0, 0.0, 0.5, a14),
        st.sampled_from([0.5j, -0.45, 0.3, 0.3 * (1 + 1e-10), 0.5 * cmath.exp(1j)]),
    ),
    # populated inner levels: mu = -0.6, nu up to 1 and past it at the edge
    st.builds(
        lambda a14, a23: XState(0.1, 0.4, 0.4, 0.1, a14, a23),
        st.sampled_from([0.1, -0.1, 0.05j]),
        st.sampled_from([0.4, -0.4, _A23_EDGE]),
    ),
)


@st.composite
def _tie_heavy_networks(draw):
    # links draw from a pool of at most three channels, so equal products
    # (and equal fidelities) are common; pairs repeat, giving parallel
    # links. Half of the pools hold only factors above 1.
    pool = draw(st.lists(_EDGE_CHANNEL if draw(st.booleans()) else _TIE_CHANNEL, min_size=1, max_size=3))
    n = draw(st.integers(2, 6))
    names = [chr(ord("A") + i) for i in range(n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=12))
    if draw(st.booleans()):
        pairs = [(i, i + 1) for i in range(n - 1)] + pairs
    channel = st.sampled_from(pool)
    links = [Link(names[i], names[j], f"e{k:02d}", draw(channel)) for k, (i, j) in enumerate(pairs)]
    return Network(names, links)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_tie_heavy_networks())
def test_exact_route_is_the_canonical_best_simple_path(net):
    src, dst = net.nodes[0], net.nodes[-1]
    expected = canonical_best(net, src, dst)
    if expected is None:
        with pytest.raises(NoPathError):
            exact_route(net, src, dst)
        return
    r = exact_route(net, src, dst)
    assert (r.objective.fidelity, r.path.hops, r.path.nodes, r.path.link_ids) == expected


@st.composite
def _x_channels(draw):
    # populated inner levels, corners of any magnitude inside their
    # positivity disks and any phase; zero corners on a flat diagonal
    # give a separable link
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(weights)
    if total == 0.0:
        weights, total = [1.0, 0.0, 0.0, 0.0], 1.0
    a11, a22, a33, a44 = (x / total for x in weights)
    a14 = draw(_AMPLITUDE) * math.sqrt(a11 * a44) * draw(_PHASE)
    a23 = draw(_AMPLITUDE) * math.sqrt(a22 * a33) * draw(_PHASE)
    return XState(a11, a22, a33, a44, a14, a23)


# half the links are general x links, which is where witnesses come from
_ORACLE_CHANNEL = st.one_of(
    _x_channels(),
    st.one_of(
        _CHANNEL,
        st.builds(WernerGenChannel, st.floats(0.0, 1.0), st.floats(0.0, math.pi / 4)),
        st.sampled_from([BELL, PureSchmidtChannel(0.0), XState(0.25, 0.25, 0.25, 0.25)]),
    ),
)


@st.composite
def _oracle_networks(draw):
    # up to 7 nodes; pairs repeat, giving parallel links, and some nodes
    # may be cut off from the source
    n = draw(st.integers(2, 7))
    names = [f"N{i}" for i in range(n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=10))
    if draw(st.booleans()):
        pairs = [(i, i + 1) for i in range(n - 1)] + pairs
    links = [Link(names[i], names[j], f"e{k:02d}", draw(_ORACLE_CHANNEL)) for k, (i, j) in enumerate(pairs)]
    return Network(names, links), draw(st.sampled_from(names))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_oracle_networks())
def test_substructure_check_matches_the_unpruned_oracle(case):
    net, source = case
    assert check_optimal_substructure(net, source) == reference_witness(net, source, oracle_best_path)


# Every small network, exhaustively: random draws rarely hit the exact
# (mu, nu) ties, signs, zeros and factors above 1 that the canonical
# tie-break and the bounds exist for.
_SMALL_KINDS = (
    BELL,
    XState(0.5, 0.0, 0.0, 0.5, 0.3 + 0.3j),  # phased: mu = 1, nu = 0.6 < N
    XState(0.5, 0.0, 0.0, 0.5, -0.45),  # negative: nu = -0.9
)
_PARALLEL_KINDS = (
    BELL,
    XState(0.5, 0.0, 0.0, 0.5, 0.5 + 0.99 * PSD_TOL),  # raw 2 Re a14 = 1 + 2e-10, so nu = 1
    XState(0.3, 0.2, 0.2, 0.3, 0.15, 0.2),  # populated inner levels: (mu, nu) = (0.2, 0.7)
    PureSchmidtChannel(0.0),  # separable: nu = 0
)


def _every_network(names, bundles):
    """Every network on names with one bundle of parallel channels per
    node pair, each pair taking every bundle in turn."""
    pairs = list(itertools.combinations(names, 2))
    for choice in itertools.product(bundles, repeat=len(pairs)):
        links = [
            Link(u, v, f"{u}{v}{i}", channel)
            for (u, v), bundle in zip(pairs, choice)
            for i, channel in enumerate(bundle)
        ]
        yield Network(names, links)


def _check_every_route(net):
    """exact_route against the canonical best simple path bit for bit on
    every ordered pair, check_optimal_substructure against the reference
    witness from every source, and, where the additive model applies,
    dijkstra_route against exact_route: the same path at the same
    fidelity, bit for bit."""
    additive = additive_model_applies(net)
    searches = (exact_route, dijkstra_route) if additive else (exact_route,)
    best = {}
    for src, dst in itertools.permutations(net.nodes, 2):
        expected = canonical_best(net, src, dst)
        if expected is None:
            for search in searches:
                with pytest.raises(NoPathError):
                    search(net, src, dst)
            best[src, dst] = None
            continue
        r = exact_route(net, src, dst)
        assert (r.objective.fidelity, r.path.hops, r.path.nodes, r.path.link_ids) == expected, net.links
        best[src, dst] = r.path
        if additive:
            d = dijkstra_route(net, src, dst)
            assert (d.path, d.objective.fidelity) == (r.path, r.objective.fidelity), net.links
    for source in net.nodes:
        expected = reference_witness(net, source, lambda _, src, dst: best[src, dst])
        assert check_optimal_substructure(net, source) == expected, net.links


def test_every_four_node_network_with_single_links():
    bundles = [()] + [(kind,) for kind in _SMALL_KINDS]
    nets = list(_every_network(["A", "B", "C", "D"], bundles))
    assert len(nets) == 4**6
    for net in nets:
        _check_every_route(net)


def test_every_three_node_network_with_parallel_links():
    bundles = [()] + [(kind,) for kind in _PARALLEL_KINDS]
    bundles += itertools.combinations_with_replacement(_PARALLEL_KINDS, 2)
    nets = list(_every_network(["A", "B", "C"], bundles))
    assert len(nets) == 15**3
    for net in nets:
        _check_every_route(net)
