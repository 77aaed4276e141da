import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from teleroute import (
    Link,
    Network,
    ParseError,
    PureSchmidtChannel,
    ValidationError,
    WernerGenChannel,
    XState,
    load_network,
    network_to_data,
    parse_network,
    random_network,
    save_network,
)
from teleroute.netfile import _checked, decode_json

from conftest import FIXTURES


def minimal(channel):
    return {
        "format_version": 1,
        "nodes": ["A", "B"],
        "links": [{"id": "e", "u": "A", "v": "B", "channel": channel}],
    }


class TestParsing:
    def test_triangle_fixture(self):
        net = load_network(FIXTURES / "triangle_pure.json")
        assert net.nodes == ("A", "B", "C")
        assert all(isinstance(l.channel, PureSchmidtChannel) for l in net.links)
        assert net.link("ac").channel.theta == pytest.approx(math.asin(0.9) / 2, abs=1e-15)

    def test_bell_literal(self):
        net = parse_network(minimal({"type": "bell"}))
        assert net.link("e").channel == PureSchmidtChannel(math.pi / 4)

    def test_werner_literal(self):
        net = parse_network(minimal({"type": "werner", "p_w": 0.8, "theta": 0.3}))
        assert net.link("e").channel == WernerGenChannel(0.8, 0.3)

    def test_x_literal_defaults_corners_to_zero(self):
        net = parse_network(minimal({"type": "x", "a11": 0.4, "a22": 0.1, "a33": 0.2, "a44": 0.3}))
        ch = net.link("e").channel
        assert ch == XState(0.4, 0.1, 0.2, 0.3, 0j, 0j)

    def test_x_literal_with_corners(self):
        net = parse_network(
            minimal(
                {
                    "type": "x",
                    "a11": 0.4,
                    "a22": 0.1,
                    "a33": 0.2,
                    "a44": 0.3,
                    "a14_re": 0.2,
                    "a14_im": -0.1,
                    "a23_re": 0.05,
                    "a23_im": 0.02,
                }
            )
        )
        ch = net.link("e").channel
        assert ch.a14 == 0.2 - 0.1j
        assert ch.a23 == 0.05 + 0.02j

    def test_integer_numbers_are_accepted(self):
        net = parse_network(minimal({"type": "pure", "theta": 0}))
        assert net.link("e").channel.theta == 0.0


class TestStructuralRejections:
    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            parse_network([1, 2])
        # and every nested container must have its JSON type
        bell = minimal({"type": "bell"})
        for data, message in (
            (bell | {"nodes": {"A": 1}}, "'nodes' must be an array"),
            (bell | {"links": "e"}, "'links' must be an array"),
            (bell | {"links": [["e", "A", "B"]]}, "link 0 must be an object"),
            (minimal("bell"), "link 'e' channel must be an object"),
        ):
            with pytest.raises(ParseError, match=message):
                parse_network(data)

    def test_unknown_top_level_field(self):
        data = minimal({"type": "bell"})
        data["comment"] = "hi"
        with pytest.raises(ParseError, match="comment"):
            parse_network(data)

    def test_missing_format_version(self):
        data = minimal({"type": "bell"})
        del data["format_version"]
        with pytest.raises(ParseError, match="format_version"):
            parse_network(data)

    def test_wrong_format_version(self):
        data = minimal({"type": "bell"})
        data["format_version"] = 2
        with pytest.raises(ParseError):
            parse_network(data)

    def test_unknown_link_field(self):
        data = minimal({"type": "bell"})
        data["links"][0]["weight"] = 3
        with pytest.raises(ParseError, match="weight"):
            parse_network(data)

    def test_unknown_channel_field(self):
        with pytest.raises(ParseError, match="phi"):
            parse_network(minimal({"type": "pure", "theta": 0.2, "phi": 0.1}))

    def test_unknown_channel_type(self):
        with pytest.raises(ParseError, match="ghz"):
            parse_network(minimal({"type": "ghz"}))

    def test_missing_channel_parameter(self):
        with pytest.raises(ParseError, match="theta"):
            parse_network(minimal({"type": "pure"}))

    @pytest.mark.parametrize(
        "data, first",
        [
            ({}, "format_version"),
            ({"format_version": 1, "nodes": [], "links": [{}]}, "id"),
            (minimal({"type": "werner"}), "p_w"),
            (minimal({"type": "x"}), "a11"),
            (minimal({}), "type"),
            (minimal({"theta": 0.3}), "type"),
        ],
    )
    def test_missing_fields_are_named_in_format_order(self, data, first):
        with pytest.raises(ParseError, match=f"missing field '{first}'"):
            parse_network(data)

    @pytest.mark.parametrize("kind", ["", 5])
    def test_channel_type_must_be_a_non_empty_string(self, kind):
        with pytest.raises(ParseError) as exc:
            parse_network(minimal({"type": kind}))
        assert str(exc.value) == f"link 'e' channel type must be a non-empty string, got {kind!r}"

    def test_bell_takes_no_parameters(self):
        with pytest.raises(ParseError):
            parse_network(minimal({"type": "bell", "theta": 0.2}))

    def test_non_numeric_parameter(self):
        with pytest.raises(ParseError):
            parse_network(minimal({"type": "pure", "theta": "big"}))

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ParseError):
            parse_network(minimal({"type": "pure", "theta": True}))

    def test_non_finite_numbers_rejected(self):
        text = json.dumps(minimal({"type": "pure", "theta": 0.0})).replace("0.0", "NaN")
        with pytest.raises(ParseError):
            parse_network(decode_json(text))

    def test_invalid_json_text(self):
        with pytest.raises(ParseError):
            parse_network(decode_json("{not json"))

    def test_bad_node_entry(self):
        data = minimal({"type": "bell"})
        data["nodes"] = ["A", 7]
        with pytest.raises(ParseError):
            parse_network(data)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_the_integer_one(self, version):
        data = minimal({"type": "bell"})
        data["format_version"] = version
        with pytest.raises(ParseError, match="format_version"):
            parse_network(data)
        with pytest.raises(ParseError, match="format_version"):
            parse_network(decode_json(json.dumps(data)))

    @pytest.mark.parametrize(
        "text",
        [
            '{"format_version": 1, "format_version": 1, "nodes": [], "links": []}',
            '{"format_version": 1, "nodes": ["A", "B"], "links": [{"id": "e", "u": "A",'
            ' "v": "B", "channel": {"type": "pure", "theta": 0.1, "theta": 0.2}}]}',
        ],
    )
    def test_duplicate_keys_rejected(self, text):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_network(decode_json(text))

    def test_integer_beyond_float_range(self):
        text = json.dumps(minimal({"type": "pure", "theta": 0}))
        text = text.replace('"theta": 0', '"theta": 1' + "0" * 400)
        with pytest.raises(ParseError, match="theta"):
            parse_network(decode_json(text))

    def test_file_must_be_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        text = json.dumps(minimal({"type": "bell"})).replace('"A"', '"\u00c5"')
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.json"):
            load_network(path)

    def test_unreadable_path_is_a_parse_error_naming_it(self, tmp_path):
        # a missing file and a directory
        for path in (tmp_path / "absent.json", tmp_path):
            with pytest.raises(ParseError) as exc:
                load_network(path)
            assert f"cannot read {str(path)!r}" in str(exc.value)
        with pytest.raises(ParseError, match="must not be empty"):
            load_network("")

    def test_nesting_too_deep_to_decode(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_network(decode_json("[" * 100_000 + "]" * 100_000))


class TestValueRejections:
    def test_bad_angle_names_the_link(self):
        with pytest.raises(ValidationError, match="'e'"):
            parse_network(minimal({"type": "pure", "theta": 2.0}))

    def test_bad_trace_names_the_link(self):
        with pytest.raises(ValidationError, match="'e'"):
            parse_network(minimal({"type": "x", "a11": 0.5, "a22": 0.0, "a33": 0.0, "a44": 0.4}))

    def test_graph_level_validation_still_applies(self):
        data = minimal({"type": "bell"})
        data["links"][0]["v"] = "A"
        with pytest.raises(ValidationError, match="self-loop"):
            parse_network(data)

    def test_link_error_keeps_the_channel_error_as_its_cause(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(minimal({"type": "pure", "theta": 2.0}))
        cause = exc.value.__cause__
        assert isinstance(cause, ValidationError)
        assert str(exc.value) == f"link 'e': {cause}"
        assert "theta" in str(cause)


class TestLinkReports:
    # the per-link verdicts of the pass that parse_network and validate share
    def test_mixed_verdicts(self):
        data = {
            "format_version": 1,
            "nodes": ["A", "B", "C"],
            "links": [
                {"id": "good", "u": "A", "v": "B", "channel": {"type": "bell"}},
                {"id": "bad", "u": "B", "v": "C", "channel": {"type": "pure", "theta": 3.0}},
            ],
        }
        verdicts, network, error = _checked(data)
        assert [link_id for link_id, _ in verdicts] == ["good", "bad"]
        assert verdicts[0][1] is None
        assert "theta" in verdicts[1][1]
        assert network is None
        assert str(error) == f"link 'bad': {verdicts[1][1]}"

    def test_structure_errors_still_raise(self):
        with pytest.raises(ParseError):
            _checked({"format_version": 1, "nodes": [], "links": [{}]})


class TestRoundTrip:
    @pytest.mark.parametrize("family", ["pure", "x", "werner"])
    def test_random_networks_round_trip_exactly(self, family):
        for seed in range(5):
            net = random_network(seed, 5, 0.6, family)
            again = parse_network(network_to_data(net))
            assert again == net

    def test_save_and_load(self, tmp_path, witness_net):
        target = tmp_path / "net.json"
        save_network(witness_net, target)
        assert load_network(target) == witness_net

    def test_witness_fixture_matches_builder(self, witness_net):
        assert load_network(FIXTURES / "witness.json") == witness_net

    def test_complex_corners_survive(self):
        x = XState(0.4, 0.1, 0.2, 0.3, 0.1 - 0.05j, 0.02 + 0.01j)
        net = Network(["A", "B"], [Link("A", "B", "xx", x)])
        again = parse_network(network_to_data(net))
        assert again.link("xx").channel == x


# every numeric field of every channel literal, each any finite float
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_CHANNEL_LITERALS = st.one_of(
    st.fixed_dictionaries({"type": st.just("pure"), "theta": _ANY_FLOAT}),
    st.just({"type": "bell"}),
    st.fixed_dictionaries({"type": st.just("werner"), "p_w": _ANY_FLOAT, "theta": _ANY_FLOAT}),
    st.fixed_dictionaries(
        {"type": st.just("x"), **{k: _ANY_FLOAT for k in ("a11", "a22", "a33", "a44")}},
        optional={k: _ANY_FLOAT for k in ("a14_re", "a14_im", "a23_re", "a23_im")},
    ),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_CHANNEL_LITERALS)
@example({"type": "x", "a11": 0.5, "a22": 0.0, "a33": 0.0, "a44": 0.5, "a14_re": 1e200})
@example({"type": "x", "a11": 0.5, "a22": 0.0, "a33": 0.0, "a44": 0.5, "a14_re": 1.7e308, "a14_im": 1.7e308})
@example({"type": "x", "a11": 0.0, "a22": 0.5, "a33": 0.5, "a44": 0.0, "a14_re": 0.99e-5})
@example({"type": "x", "a11": 0.25, "a22": 0.25, "a33": 0.25, "a44": 0.25, "a23_im": 0.25})
def test_channel_literals_parse_or_fail_cleanly(channel):
    text = json.dumps(minimal(channel))
    try:
        parsed = parse_network(decode_json(text))
    except (ParseError, ValidationError):
        parsed = None
    assert parsed is None or isinstance(parsed, Network)
    ((_, message),), network, _ = _checked(json.loads(text))
    assert (message is None) == (parsed is not None) == (network is not None)
