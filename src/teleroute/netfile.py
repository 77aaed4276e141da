"""Strict JSON network files.

Top level: {"format_version": 1, "nodes": [...], "links": [...]}. Each
link is {"id", "u", "v", "channel"} and a channel literal is one of

    {"type": "pure", "theta": t}
    {"type": "bell"}
    {"type": "werner", "p_w": p, "theta": t}
    {"type": "x", "a11": ..., "a22": ..., "a33": ..., "a44": ...,
     "a14_re": 0, "a14_im": 0, "a23_re": 0, "a23_im": 0}

with the x corner parts optional and 0 by default. format_version is
the integer 1. Unknown fields and duplicate keys are rejected everywhere:
structural problems (bad JSON, nesting too deep to decode, a number out
of float range, a path that cannot be read...) raise ParseError, value
problems (bad angle, bad trace...) raise ValidationError. Serialising
and re-parsing a network reproduces it exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._frozen import Frozen, _set
from .errors import ParseError, ValidationError, brief
from .netgraph import Link, Network
from .qcore import PureSchmidtChannel, WernerGenChannel, XState

FORMAT_VERSION = 1

_CHANNEL_FIELDS = {
    "pure": ({"theta"}, set()),
    "bell": (set(), set()),
    "werner": ({"p_w", "theta"}, set()),
    "x": (
        {"a11", "a22", "a33", "a44"},
        {"a14_re", "a14_im", "a23_re", "a23_im"},
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


def _check_keys(obj: dict, required: set, optional: set, where: str) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"unknown field {brief(key)} in {where}")
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field {brief(key)} in {where}")


def _parse_structure(data):
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    _check_keys(data, {"format_version", "nodes", "links"}, set(), "network")
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
        _check_keys(raw, {"id", "u", "v", "channel"}, set(), where)
        link_id = _require_string(raw["id"], f"{where} id")
        where = f"link {brief(link_id)}"
        u = _require_string(raw["u"], f"{where} u")
        v = _require_string(raw["v"], f"{where} v")
        channel = raw["channel"]
        if not isinstance(channel, dict):
            raise ParseError(f"{where} channel must be an object")
        kind = _require_string(channel.get("type", ""), f"{where} channel type")
        if kind not in _CHANNEL_FIELDS:
            raise ParseError(f"{where}: unknown channel type {brief(kind)}")
        required, optional = _CHANNEL_FIELDS[kind]
        _check_keys(channel, required | {"type"}, optional, f"{where} channel")
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


def _built_links(entries):
    """Yields (link id, its Link or the ValidationError its channel raised)."""
    for link_id, u, v, kind, params in entries:
        try:
            yield link_id, Link(u, v, link_id, _build_channel(kind, params))
        except ValidationError as exc:
            yield link_id, exc


def _link_error(link_id: str, exc: ValidationError) -> ValidationError:
    """The error parse_network raises for a link whose channel failed to build."""
    return ValidationError(f"link {brief(link_id)}: {exc}")


def parse_network(data) -> Network:
    """Parse already-decoded JSON data into a Network."""
    nodes, entries = _parse_structure(data)
    links = []
    for link_id, built in _built_links(entries):
        if isinstance(built, ValidationError):
            raise _link_error(link_id, built) from built
        links.append(built)
    return Network(nodes, links)


class LinkReport(Frozen):
    """Per-link validation verdict for reporting."""

    __slots__ = ("link_id", "ok", "error")

    def __init__(self, link_id: str, ok: bool, error: str | None = None):
        _set(self, "link_id", link_id)
        _set(self, "ok", ok)
        _set(self, "error", error)


def _report(link_id: str, built) -> LinkReport:
    return LinkReport(link_id, True) if isinstance(built, Link) else LinkReport(link_id, False, str(built))


def link_reports(data) -> list[LinkReport]:
    """Whether each link's channel builds, as in parse_network (structure must parse)."""
    _, entries = _parse_structure(data)
    return [_report(link_id, built) for link_id, built in _built_links(entries)]


def _validation(data) -> tuple[list[LinkReport], str | None]:
    """link_reports(data), and the message of the ValidationError that
    parse_network(data) raises or None where it returns a network, from
    one structure pass that builds each channel once."""
    nodes, entries = _parse_structure(data)
    reports = []
    links = []
    error = None
    for link_id, built in _built_links(entries):
        reports.append(_report(link_id, built))
        if isinstance(built, Link):
            links.append(built)
        elif error is None:
            error = str(_link_error(link_id, built))
    if error is None:
        try:
            Network(nodes, links)
        except ValidationError as exc:
            error = str(exc)
    return reports, error


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
