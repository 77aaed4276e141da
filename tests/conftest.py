import hashlib
import math
from pathlib import Path

import pytest

from teleroute import Link, Network, PureSchmidtChannel, XState, find_violation, random_network

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def pure_n(n):
    """Pure channel with negativity n."""
    return PureSchmidtChannel(math.asin(n) / 2.0)


def build_triangle():
    # best A->B route is A-C-B: 0.9 * 0.8 beats the direct 0.5
    return Network(
        ["A", "B", "C"],
        [
            Link("A", "B", "ab", pure_n(0.5)),
            Link("A", "C", "ac", pure_n(0.9)),
            Link("C", "B", "cb", pure_n(0.8)),
        ],
    )


def build_witness_net():
    # mixed-coherence links with opposing mu/nu orderings; the best A->D
    # path goes through B on a prefix that is not the best A->B path
    return Network(
        ["A", "B", "C", "D"],
        [
            Link("A", "B", "ab", XState(0.475, 0.025, 0.025, 0.475, 0.025, 0.025)),
            Link("A", "C", "ac", PureSchmidtChannel(math.pi / 4)),
            Link("C", "B", "cb", XState(0.3, 0.2, 0.2, 0.3, 0.15, 0.2)),
            Link("B", "D", "bd", XState(0.275, 0.225, 0.225, 0.275, 0.225, 0.225)),
        ],
    )


def build_swap_triangle():
    # direct ab carries the route; ac and cb are spare links at C
    return Network(
        ["A", "B", "C"],
        [
            Link("A", "B", "ab", pure_n(0.5)),
            Link("A", "C", "ac", PureSchmidtChannel(math.pi / 4)),
            Link("C", "B", "cb", pure_n(0.2)),
        ],
    )


@pytest.fixture
def triangle():
    return build_triangle()


@pytest.fixture
def witness_net():
    return build_witness_net()


@pytest.fixture
def swap_triangle():
    return build_swap_triangle()


# The helpers below load no numpy, so a process with numpy blocked can
# rerun them on the generators' plain-Python draws (tests/test_pcg64.py).


def network_draws_digest() -> str:
    """sha256 over every link's endpoints and the float.hex of each
    channel field, on a grid of seeds, sizes, densities and families of
    random_network."""
    digest = hashlib.sha256()
    for family in ("pure", "x", "werner"):
        for n in (2, 4, 7):
            for density in (0.3, 0.6, 1.0):
                for seed in range(30):
                    for link in random_network(seed, n, density, family).links:
                        fields = [link.link_id, link.u, link.v, type(link.channel).__name__]
                        # the fields in order: a11...a23, theta, or p_w, theta
                        for name in type(link.channel).__slots__:
                            value = getattr(link.channel, name)
                            if isinstance(value, complex):
                                fields += [float.hex(value.real), float.hex(value.imag)]
                            else:
                                fields.append(float.hex(value))
                        digest.update(" ".join(fields).encode() + b"\n")
    return digest.hexdigest()


def violation_pin(seed: int) -> list:
    """find_violation(seed) as data/find_violation_seeds.json records it:
    attempts, source, mid, ext, link ids to ext and margin."""
    _, w, attempts = find_violation(seed)
    return [attempts, w.source, w.mid, w.ext, list(w.best_to_ext.link_ids), format(w.margin, ".12g")]
