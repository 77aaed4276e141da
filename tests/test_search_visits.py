"""The exact search's answers and work, pinned.

data/search_visits.json holds one entry per search: the recipe of its
network, the endpoints, the answer (node sequence, link ids, mu and nu
products) and the visit count v. v was read by bisecting the budget: the
search finishes with MAX_SEARCH_PATHS = v and raises CapExceededError
with v - 1. So a change to the search that alters an answer, the child
order or the pruning shows here, and so does a change to the generators
that draw the networks.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from teleroute import (
    CapExceededError,
    Link,
    Network,
    XState,
    average_azimuthal_fidelity,
    exact_route,
    link_weights,
    netgraph,
    path_channels,
    random_network,
)
from teleroute.qcore import PSD_TOL

PINS = pathlib.Path(__file__).parent / "data" / "search_visits.json"


def split_grid(width, seed, lo):
    """A width x width grid whose links are (mu, nu) = (1, f) or (f, 1),
    f ~ U[lo, 1]: the two products peak on different paths, so the
    search's bound stays loose."""
    rng = np.random.default_rng(seed)
    name = [[f"G{r}{c}" for c in range(width)] for r in range(width)]
    pairs = [(name[r][c], name[r][c + 1]) for r in range(width) for c in range(width - 1)]
    pairs += [(name[r][c], name[r + 1][c]) for r in range(width - 1) for c in range(width)]
    links = []
    for k, (u, v) in enumerate(pairs):
        f = float(rng.uniform(lo, 1.0))
        if rng.random() < 0.5:
            channel = XState(0.5, 0.0, 0.0, 0.5, f / 2.0)  # mu = 1, nu = f
        else:
            channel = XState((1 + f) / 4, (1 - f) / 4, (1 - f) / 4, (1 + f) / 4, (1 + f) / 4, (1 - f) / 4)
        links.append(Link(u, v, f"g{k:03d}", channel))
    return Network([n for row in name for n in row], links)


def above_one(size, seed):
    """A complete graph of mu = 1 links, about a third of them at the
    largest corner the types accept, where 2 Re a14 exceeds 1 by about
    2e-10 and link_weights clamps nu to 1."""
    rng = np.random.default_rng(seed)
    names = [f"P{i}" for i in range(size)]
    links = []
    for i in range(size):
        for j in range(i + 1, size):
            a14 = 0.5 + 0.99 * PSD_TOL if rng.random() < 0.35 else float(rng.uniform(0.3, 0.5))
            links.append(Link(names[i], names[j], f"p{i}{j}", XState(0.5, 0.0, 0.0, 0.5, a14)))
    return Network(names, links)


def build(recipe):
    kind, *args = recipe
    if kind == "random":
        family, seed, node_count, density = args
        return random_network(seed, node_count, density, family)
    if kind == "grid":
        return split_grid(*args)
    return above_one(*args)


def cases():
    """(recipe, src, dst) of every pinned search."""
    rng = np.random.default_rng(20261018)
    out = []
    for i in range(300):
        family = ("x", "werner", "pure")[i % 3]
        node_count = int(rng.integers(4, 16))
        density = (0.3, 0.5, 0.7)[int(rng.integers(3))]
        recipe = ["random", family, int(rng.integers(2**32)), node_count, density]
        nodes = build(recipe).nodes
        a, b = rng.choice(len(nodes), size=2, replace=False)
        out.append((recipe, nodes[int(a)], nodes[int(b)]))
    for width, seeds in ((6, range(4)), (7, [1])):
        for seed in seeds:
            for lo in (0.3, 0.6, 0.9):
                out.append((["grid", width, seed, lo], "G00", f"G{width - 1}{width - 1}"))
    # lo = 1 makes every link a Bell pair: paths tie, so the child order
    # decides the visit count
    for width in (4, 5):
        out.append((["grid", width, 0, 1.0], "G00", f"G{width - 1}{width - 1}"))
        out.append((["grid", width, 0, 1.0], "G01", f"G{width - 1}{width - 2}"))
    for j in range(1, 9):
        out.append((["above-one", 9, 5], "P0", f"P{j}"))
    return out


def answer(network, src, dst):
    r = exact_route(network, src, dst)
    return {
        "nodes": list(r.path.nodes),
        "link_ids": list(r.path.link_ids),
        "mu": r.objective.mu_product,
        "nu": r.objective.nu_product,
    }


def test_case_list_matches_the_pins():
    pins = json.loads(PINS.read_text())
    assert [[p["network"], p["src"], p["dst"]] for p in pins] == [list(c) for c in cases()]


def test_answers_and_visit_counts_are_pinned(monkeypatch):
    pins = json.loads(PINS.read_text())
    assert len(pins) == 327
    assert min(p["visits"] for p in pins) < 10 < 1000 < max(p["visits"] for p in pins)
    for k, pin in enumerate(pins):
        net = build(pin["network"])
        monkeypatch.setattr(netgraph, "MAX_SEARCH_PATHS", pin["visits"])
        expected = {key: pin[key] for key in ("nodes", "link_ids", "mu", "nu")}
        assert answer(net, pin["src"], pin["dst"]) == expected, f"entry {k}: {pin['network']}"
        monkeypatch.setattr(netgraph, "MAX_SEARCH_PATHS", pin["visits"] - 1)
        with pytest.raises(CapExceededError):
            exact_route(net, pin["src"], pin["dst"])


def test_grid_and_above_one_cases_are_what_they_claim():
    grid = split_grid(6, 0, 0.3)
    ws = grid.weights
    assert ws == tuple(link_weights(l.channel) for l in grid.links)
    assert len(grid.links) == 60
    assert any(w.mu == 1.0 and w.nu < 1.0 for w in ws)
    assert any(math.isclose(w.nu, 1.0) and w.mu < 1.0 for w in ws)
    net = above_one(9, 5)
    assert net.weights == tuple(link_weights(l.channel) for l in net.links)
    assert max(2.0 * l.channel.a14.real for l in net.links) > 1.0
    assert max(w.nu for w in net.weights) == 1.0
    assert all(math.isclose(w.mu, 1.0) for w in net.weights)


def test_the_simulator_reads_every_above_one_route_within_one():
    # raw corners past 1/2 lift a hop's simulated fidelity past 1 by up
    # to PSD_TOL, which the simulator clamps: on every ordered pair
    routes = at_one = 0
    for seed in range(6):
        net = above_one(9, seed)
        for src in net.nodes:
            for dst in net.nodes:
                if src != dst:
                    route = exact_route(net, src, dst)
                    value = average_azimuthal_fidelity(path_channels(net, route.path)).value
                    assert value == pytest.approx(route.objective.fidelity, abs=1e-9)
                    routes += 1
                    at_one += value == 1.0
    assert routes == 432
    assert at_one == 356
