"""Strict JSON network files.

Top level: {"format_version": 1, "nodes": [...], "links": [...]}. Each
link is {"id", "u", "v", "channel"} and a channel literal is one of

    {"type": "pure", "theta": t}
    {"type": "bell"}
    {"type": "werner", "p_w": p, "theta": t}
    {"type": "x", "a11": ..., "a22": ..., "a33": ..., "a44": ...,
     "a14_re": 0, "a14_im": 0, "a23_re": 0, "a23_im": 0}

with the x corner parts optional and 0 by default. format_version is
the integer 1. Unknown fields and duplicate keys are rejected everywhere,
and an object that lacks several fields names the first in the order
shown here. Structural problems (bad JSON, nesting too deep to decode, a
number out of float range, a path that cannot be read...) raise
ParseError, value problems (bad angle, bad trace...) raise
ValidationError. parse_network and the CLI's validate decide both in one
pass (_checked), so they accept exactly the same data. Serialising and
re-parsing a network reproduces it exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ParseError, ValidationError, brief
from .netgraph import Link, Network
from .qcore import PureSchmidtChannel, WernerGenChannel, XState

FORMAT_VERSION = 1

# each channel type's (required, optional) fields, in the format's order;
# required fields are checked in this order, so a literal that lacks
# several always names the same one
_CHANNEL_FIELDS = {
    "pure": (("theta",), ()),
    "bell": ((), ()),
    "werner": (("p_w", "theta"), ()),
    "x": (
        ("a11", "a22", "a33", "a44"),
        ("a14_re", "a14_im", "a23_re", "a23_im"),
    ),
}


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {brief(key)}")
        obj[key] = value
    return obj


def decode_json(raw: str | bytes, source: str = "input"):
    """Decode network-file JSON (text or UTF-8 bytes), rejecting duplicate
    keys; every failure, nesting too deep to decode included, is a
    ParseError naming the source."""
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # bad UTF-8 or JSON, duplicate key, too many digits
        raise ParseError(f"invalid JSON in {source}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"invalid JSON in {source}: nested too deeply") from None


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {brief(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ParseError(f"{where} is too large for a float") from None
    if not math.isfinite(number):
        raise ParseError(f"{where} must be finite, got {brief(value)}")
    return number


def _require_string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where} must be a non-empty string, got {brief(value)}")
    return value


def _check_keys(obj: dict, required: tuple, optional: tuple, where: str) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"unknown field {brief(key)} in {where}")
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field {brief(key)} in {where}")


def _parse_structure(data):
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    _check_keys(data, ("format_version", "nodes", "links"), (), "network")
    if type(data["format_version"]) is not int or data["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {brief(data['format_version'])}")
    if not isinstance(data["nodes"], list):
        raise ParseError("'nodes' must be an array")
    nodes = [_require_string(n, "node name") for n in data["nodes"]]
    if not isinstance(data["links"], list):
        raise ParseError("'links' must be an array")
    entries = []
    for index, raw in enumerate(data["links"]):
        where = f"link {index}"
        if not isinstance(raw, dict):
            raise ParseError(f"{where} must be an object")
        _check_keys(raw, ("id", "u", "v", "channel"), (), where)
        link_id = _require_string(raw["id"], f"{where} id")
        where = f"link {brief(link_id)}"
        u = _require_string(raw["u"], f"{where} u")
        v = _require_string(raw["v"], f"{where} v")
        channel = raw["channel"]
        if not isinstance(channel, dict):
            raise ParseError(f"{where} channel must be an object")
        if "type" not in channel:
            raise ParseError(f"missing field 'type' in {where} channel")
        kind = _require_string(channel["type"], f"{where} channel type")
        if kind not in _CHANNEL_FIELDS:
            raise ParseError(f"{where}: unknown channel type {brief(kind)}")
        required, optional = _CHANNEL_FIELDS[kind]
        _check_keys(channel, ("type", *required), optional, f"{where} channel")
        params = {
            key: _require_number(channel[key], f"{where} channel {key}")
            for key in channel
            if key != "type"
        }
        entries.append((link_id, u, v, kind, params))
    return nodes, entries


def _build_channel(kind: str, params: dict):
    if kind == "pure":
        return PureSchmidtChannel(params["theta"])
    if kind == "bell":
        return PureSchmidtChannel(math.pi / 4.0)
    if kind == "werner":
        return WernerGenChannel(params["p_w"], params["theta"])
    a14 = complex(params.get("a14_re", 0.0), params.get("a14_im", 0.0))
    a23 = complex(params.get("a23_re", 0.0), params.get("a23_im", 0.0))
    return XState(params["a11"], params["a22"], params["a33"], params["a44"], a14, a23)


def _checked(data) -> tuple[list, Network | None, ValidationError | None]:
    """The one pass behind parse_network and the CLI's validate. A
    structural problem raises ParseError. Otherwise each channel is built
    once, and the pass returns (verdicts, network, error): for each link
    in file order (link id, None or its channel's error message); the
    Network, or None; and the ValidationError parsing ends with, or None.
    That is the first failing link's, with its channel's error as
    __cause__, else the one Network raises."""
    nodes, entries = _parse_structure(data)
    verdicts = []
    links = []
    error = None
    for link_id, u, v, kind, params in entries:
        try:
            links.append(Link(u, v, link_id, _build_channel(kind, params)))
            verdicts.append((link_id, None))
        except ValidationError as exc:
            verdicts.append((link_id, str(exc)))
            if error is None:
                error = ValidationError(f"link {brief(link_id)}: {exc}")
                error.__cause__ = exc
    if error is not None:
        return verdicts, None, error
    try:
        return verdicts, Network(nodes, links), None
    except ValidationError as exc:
        return verdicts, None, exc


def parse_network(data) -> Network:
    """Parse already-decoded JSON data into a Network: a structural
    problem is a ParseError, and a value problem the ValidationError of
    the first link whose channel fails, else of the Network check."""
    _, network, error = _checked(data)
    if error is not None:
        raise error
    return network


def _read_file(path) -> tuple[object, bytes]:
    """The decoded JSON data of a network file and its raw bytes. An empty
    path, a file that cannot be read and invalid JSON are each a
    ParseError naming the path."""
    if not path:
        raise ParseError("network path must not be empty")
    source = repr(str(path))
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    return decode_json(raw, source), raw


def load_network(path) -> Network:
    return parse_network(_read_file(path)[0])


def channel_to_data(channel) -> dict:
    if isinstance(channel, PureSchmidtChannel):
        return {"type": "pure", "theta": channel.theta}
    if isinstance(channel, WernerGenChannel):
        return {"type": "werner", "p_w": channel.p_w, "theta": channel.theta}
    if isinstance(channel, XState):
        a14 = complex(channel.a14)
        a23 = complex(channel.a23)
        return {
            "type": "x",
            "a11": channel.a11,
            "a22": channel.a22,
            "a33": channel.a33,
            "a44": channel.a44,
            "a14_re": a14.real,
            "a14_im": a14.imag,
            "a23_re": a23.real,
            "a23_im": a23.imag,
        }
    raise ValidationError(f"cannot serialise channel of type {type(channel).__name__}")


def network_to_data(network: Network) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "nodes": list(network.nodes),
        "links": [
            {"id": l.link_id, "u": l.u, "v": l.v, "channel": channel_to_data(l.channel)}
            for l in network.links
        ],
    }


def save_network(network: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_data(network), indent=2) + "\n")
