"""The plain-Python port of numpy's default_rng (teleroute._pcg64) against
numpy, bit for bit, and the pinned draws rerun in a process with numpy
blocked, where the generators draw from the port."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teleroute
from teleroute import random_x_state
from teleroute._pcg64 import _KE, Generator

from conftest import network_draws_digest

TESTS = Path(__file__).resolve().parent
SRC = Path(teleroute.__file__).resolve().parent.parent

# small and large seeds: one to four 32-bit words of entropy, and one
# past the 128-bit pool of four words
SEEDS = [*range(300), 2**32 - 1, 2**40 + 7, 2**63 + 12345, 10**30, 2**200 + 3]
# one scalar integers range per class: a single value; Lemire on 32-bit
# draws, once with rejection near one in two; exactly 2**32 values
RANGES = [(7, 8), (4, 7), (0, 2**31 + 1), (3, 2**32 + 3)]


def _mixed_draws(rng) -> list:
    # integers after random and uniform and between each other, so that
    # a 32-bit draw often takes the high half a previous one left
    out = []
    for k in range(8):
        out += rng.random(1 + k % 3).tolist()
        out.append(rng.uniform(0.3, 1.0))
        out += [int(rng.integers(lo, hi)) for lo, hi in RANGES]
    return out


def test_mixed_draws_equal_numpys():
    for seed in SEEDS:
        assert _mixed_draws(Generator(seed)) == _mixed_draws(np.random.default_rng(seed)), seed


def test_integers_refuses_an_empty_range_and_one_wider_than_2_to_the_32():
    rng = Generator(0)
    for low, high in ((5, 5), (5, 4), (0, 2**32 + 1), (-5, 2**40)):
        with pytest.raises(ValueError):
            rng.integers(low, high)


def test_standard_exponential_equals_numpys_at_every_level_and_branch():
    # numpy's 64-bit outputs, walked as the ziggurat reads them: each try
    # takes one; a try past its level's fast bound takes one more, for
    # the tail at level 0 or the wedge test at the others
    levels, tails, wedges = set(), 0, 0
    for seed in (1, 2, 3, 4):
        count = 250_000
        assert Generator(seed).standard_exponential(count) == np.random.default_rng(seed).standard_exponential(count).tolist()
        raw = np.random.PCG64(seed).random_raw(count).tolist()
        i = 0
        while i < count:
            ri = raw[i] >> 3
            level = ri & 0xFF
            levels.add(level)
            if ri >> 8 >= _KE[level]:
                tails += level == 0
                wedges += level != 0
                i += 1
            i += 1
    assert levels == set(range(256))
    assert tails > 100 and wedges > 1000


def test_random_x_state_equals_numpys():
    for seed in range(200):
        port, reference = Generator(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert random_x_state(port) == random_x_state(reference)


# Runs with numpy blocked and prints, as JSON, the pinned draws of the
# generators: the digest of test_draws_are_pinned, the witnesses of
# data/find_violation_seeds.json, each seeded random_network search of
# data/search_visits.json with its answer and whether it finishes within
# its pinned visit count and not one visit less, and the error each seed
# that is not a nonnegative integer raises.
_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from conftest import network_draws_digest, violation_pin
from teleroute import CapExceededError, exact_route, find_violation, netgraph, random_network
from teleroute.errors import DomainError

budget = netgraph.MAX_SEARCH_PATHS
searches = []
for pin in json.load(open(sys.argv[1])):
    kind, *recipe = pin["network"]
    if kind != "random":
        continue
    family, seed, node_count, density = recipe
    net = random_network(seed, node_count, density, family)
    netgraph.MAX_SEARCH_PATHS = pin["visits"]
    r = exact_route(net, pin["src"], pin["dst"])
    netgraph.MAX_SEARCH_PATHS = pin["visits"] - 1
    try:
        exact_route(net, pin["src"], pin["dst"])
        capped = False
    except CapExceededError:
        capped = True
    searches.append([list(r.path.nodes), list(r.path.link_ids), r.objective.mu_product,
                     r.objective.nu_product, capped])
netgraph.MAX_SEARCH_PATHS = budget
errors = []
for seed in (1.5, "3", None, -1):
    for draw in (lambda: random_network(seed, 4), lambda: find_violation(seed)):
        try:
            draw()
            errors.append(None)
        except DomainError as exc:
            errors.append(str(exc))
print(json.dumps({
    "numpy": "numpy" in sys.modules and sys.modules["numpy"] is not None,
    "digest": network_draws_digest(),
    "witnesses": [violation_pin(seed) for seed in range(200)],
    "searches": searches,
    "errors": errors,
}))
"""


def test_pinned_draws_repeat_with_numpy_blocked():
    paths = [str(TESTS), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _BLOCKED, str(TESTS / "data" / "search_visits.json")],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    blocked = json.loads(done.stdout)
    assert blocked["numpy"] is False
    assert blocked["digest"] == network_draws_digest()
    assert blocked["witnesses"] == json.loads((TESTS / "data" / "find_violation_seeds.json").read_text())
    pins = [p for p in json.loads((TESTS / "data" / "search_visits.json").read_text()) if p["network"][0] == "random"]
    assert len(pins) == 300
    assert blocked["searches"] == [[p["nodes"], p["link_ids"], p["mu"], p["nu"], True] for p in pins]
    assert all(e is not None and e.startswith("seed must be") for e in blocked["errors"])
    assert len(blocked["errors"]) == 8
