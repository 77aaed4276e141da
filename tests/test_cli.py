import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teleroute
from teleroute import (
    FidelityEstimate,
    ValidationError,
    check_optimal_substructure,
    load_network,
    parse_network,
    path_objective,
)
from teleroute.cli import main
from teleroute.qcore import _drift_allowance

from conftest import FIXTURES

TRIANGLE = str(FIXTURES / "triangle_pure.json")
WITNESS = str(FIXTURES / "witness.json")
SWAP_TRIANGLE = str(FIXTURES / "swap_triangle.json")
LONG_CHAIN = str(FIXTURES / "long_corner_chain.json")


def write_network(tmp_path, links, nodes=("A", "B", "C")):
    path = tmp_path / "net.json"
    data = {"format_version": 1, "nodes": list(nodes), "links": links}
    path.write_text(json.dumps(data))
    return str(path)


def pure_link(link_id, u, v, n):
    return {"id": link_id, "u": u, "v": v, "channel": {"type": "pure", "theta": math.asin(n) / 2.0}}


def phase_hole_links(**corner):
    """A direct x link with mu = 1 and the given a14 parts, and a relay
    A-C-B of two pure N = 0.9 links, the best route at fidelity 0.9525."""
    return [
        {"id": "ab", "u": "A", "v": "B", "channel": {
            "type": "x", "a11": 0.5, "a22": 0.0, "a33": 0.0, "a44": 0.5, **corner}},
        pure_link("ac", "A", "C", 0.9),
        pure_link("cb", "C", "B", 0.9),
    ]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestValidate:
    def test_good_file(self, capsys):
        code, record, _ = run_json(capsys, "validate", "--network", TRIANGLE)
        assert code == 0
        assert record["command"] == "validate"
        assert record["result"]["valid"] is True
        assert all(l["ok"] for l in record["result"]["links"])
        digest = hashlib.sha256(open(TRIANGLE, "rb").read()).hexdigest()
        assert record["input_digest"] == digest

    def test_bad_values_reported_per_link(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "nodes": ["A", "B"],
                    "links": [
                        {"id": "ok", "u": "A", "v": "B", "channel": {"type": "bell"}},
                        {"id": "broken", "u": "A", "v": "B",
                         "channel": {"type": "pure", "theta": 9.0}},
                    ],
                }
            )
        )
        code, record, _ = run_json(capsys, "validate", "--network", str(bad))
        assert code == 2
        assert record["result"]["valid"] is False
        verdicts = {l["id"]: l["ok"] for l in record["result"]["links"]}
        assert verdicts == {"ok": True, "broken": False}

    def test_structural_error_goes_to_stderr(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"format_version\": 1, \"nodes\": [], \"links\": [], \"x\": 1}")
        code, out, err = run(capsys, "validate", "--network", str(bad))
        assert code == 2
        assert out == ""
        assert "x" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "validate", "--network", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err

    def test_directory_is_one_error_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", "--network", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {str(tmp_path)!r}")
        assert "\n" not in err.rstrip("\n")

    def test_builds_each_channel_once(self, capsys, monkeypatch):
        from teleroute import netfile

        built = []
        build = netfile._build_channel

        def counted(kind, params):
            built.append(kind)
            return build(kind, params)

        monkeypatch.setattr(netfile, "_build_channel", counted)
        code, record, _ = run_json(capsys, "validate", "--network", WITNESS)
        assert code == 0
        assert len(built) == record["result"]["link_count"] == len(load_network(WITNESS).links)

    @pytest.mark.parametrize("case", ["bad-channel", "unknown-node", "duplicate-id", "valid"])
    def test_reports_what_the_library_reports(self, capsys, tmp_path, case):
        # the per-link verdicts are those of the pass parse_network runs,
        # the network error is the message of what parse_network raises
        from teleroute.netfile import _checked

        links = [pure_link("ab", "A", "B", 0.5), pure_link("bc", "B", "C", 0.5)]
        if case == "bad-channel":
            links.append({"id": "ca", "u": "C", "v": "A", "channel": {"type": "pure", "theta": 9.0}})
            links.append({"id": "cb", "u": "C", "v": "B", "channel": {"type": "werner", "p_w": 2.0, "theta": 0.1}})
        elif case == "unknown-node":
            links.append(pure_link("cz", "C", "Z", 0.5))
        elif case == "duplicate-id":
            links.append(pure_link("ab", "C", "A", 0.5))
        path = write_network(tmp_path, links)
        data = json.loads(open(path).read())
        try:
            parse_network(data)
            want_error = None
        except ValidationError as exc:
            want_error = str(exc)
        code, record, _ = run_json(capsys, "validate", "--network", path)
        assert code == (0 if case == "valid" else 2)
        result = record["result"]
        assert result["network_error"] == want_error
        assert (want_error is None) is (case == "valid")
        assert result["valid"] is (want_error is None)
        verdicts, _, _ = _checked(data)
        assert result["links"] == [
            {"id": link_id, "ok": message is None, "error": message} for link_id, message in verdicts
        ]

    def test_missing_field_message_does_not_depend_on_the_hash_seed(self, tmp_path):
        # a link that lacks every field names the first in format order,
        # whatever order the interpreter's string hashing gives sets
        path = write_network(tmp_path, [{}], nodes=("A", "B"))
        src = str(Path(teleroute.__file__).resolve().parent.parent)
        errors = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "teleroute.cli", "validate", "--network", path],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 2
            errors.add(done.stderr)
        assert errors == {"error: missing field 'id' in link 0\n"}


# files that once ended in a traceback with exit code 1, and what the
# error names instead
HOSTILE_FILES = {
    "float-overflow": (
        '{"format_version": 1, "nodes": ["A", "B"], "links": [{"id": "ab", "u": "A", "v": "B",'
        ' "channel": {"type": "pure", "theta": 1' + "0" * 400 + "}}]}",
        "too large for a float",
    ),
    "deep-nesting": ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    "too-many-digits": ('{"format_version": 1' + "0" * 5000 + "}", "digits"),
}


class TestHostileFiles:
    @pytest.mark.parametrize("command", ["validate", "route"])
    @pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
    def test_parse_error_without_traceback(self, capsys, tmp_path, name, command):
        path = tmp_path / "hostile.json"
        text, reason = HOSTILE_FILES[name]
        path.write_text(text)
        argv = [command, "--network", str(path)]
        if command == "route":
            argv += ["--src", "A", "--dst", "B"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "route"])
    def test_error_line_is_short(self, capsys, tmp_path, command):
        # a node name nested 400 lists deep decodes; the message names it
        # in a few characters instead of echoing the whole nest
        path = tmp_path / "hostile.json"
        name = "[" * 400 + '"A"' + "]" * 400
        path.write_text('{"format_version": 1, "nodes": [' + name + '], "links": []}')
        argv = [command, "--network", str(path)]
        if command == "route":
            argv += ["--src", "A", "--dst", "B"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: node name must be a non-empty string")
        assert len(err.rstrip("\n")) < 200
        assert "\n" not in err.rstrip("\n")


# x links the types reject: a corner on an empty block (eigenvalue
# -9.9e-6, though |a14|^2 is below PSD_TOL), and corners so large that
# squaring or even abs() would overflow
UNPHYSICAL_CORNERS = {
    "empty-block": {"a11": 0.0, "a22": 0.5, "a33": 0.5, "a44": 0.0, "a14_re": 0.99e-5},
    "corner-1e200": {"a11": 0.5, "a22": 0.0, "a33": 0.0, "a44": 0.5, "a14_re": 1e200},
    "corner-1.7e308": {
        "a11": 0.5, "a22": 0.0, "a33": 0.0, "a44": 0.5, "a14_re": 1.7e308, "a14_im": 1.7e308},
}


class TestUnphysicalChannels:
    @pytest.mark.parametrize("name", sorted(UNPHYSICAL_CORNERS))
    def test_validate_and_route_both_reject_the_link(self, capsys, tmp_path, name):
        path = write_network(
            tmp_path,
            [{"id": "ab", "u": "A", "v": "B", "channel": {"type": "x", **UNPHYSICAL_CORNERS[name]}}],
            nodes=("A", "B"),
        )
        code, record, err = run_json(capsys, "validate", "--network", path)
        assert code == 2
        assert record["result"]["valid"] is False
        assert record["result"]["links"][0]["ok"] is False
        assert "'ab'" in record["result"]["network_error"]
        assert "Traceback" not in err
        code, out, err = run(capsys, "route", "--network", path, "--src", "A", "--dst", "B")
        assert code == 2
        assert out == ""
        assert err.startswith("error: link 'ab'")
        assert "Traceback" not in err


class TestRoute:
    def test_auto_picks_dijkstra_on_pure_networks(self, capsys):
        code, record, _ = run_json(
            capsys, "route", "--network", TRIANGLE, "--src", "A", "--dst", "B"
        )
        assert code == 0
        result = record["result"]
        assert result["method"] == "dijkstra"
        assert result["path"]["nodes"] == ["A", "C", "B"]
        assert result["objective"]["fidelity"] == 0.93

    def test_auto_picks_exact_on_mixed_networks(self, capsys):
        code, record, _ = run_json(
            capsys, "route", "--network", WITNESS, "--src", "A", "--dst", "D"
        )
        assert code == 0
        assert record["result"]["method"] == "exact"
        assert record["result"]["objective"]["fidelity"] == 0.6625

    def test_explicit_method(self, capsys):
        code, record, _ = run_json(
            capsys, "route", "--network", TRIANGLE, "--src", "A", "--dst", "B",
            "--method", "exact",
        )
        assert code == 0
        assert record["result"]["method"] == "exact"
        assert record["result"]["objective"]["fidelity"] == 0.93

    def test_dijkstra_on_mixed_network_is_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, "route", "--network", WITNESS, "--src", "A", "--dst", "D",
            "--method", "dijkstra",
        )
        assert code == 1
        assert "not admissible" in err

    def test_auto_picks_dijkstra_on_werner_links_at_p_w_one(self, capsys, tmp_path):
        # a chain over a theta grid on [0, pi/4], ends included, and a
        # direct link: every p_w = 1 link has mu exactly 1, and the direct
        # link wins, as the chain holds the separable theta = 0 link
        quarter = math.pi / 4
        nodes = [f"N{i:02d}" for i in range(34)]
        links = [
            {"id": f"w{i:02d}", "u": nodes[i], "v": nodes[i + 1],
             "channel": {"type": "werner", "p_w": 1.0, "theta": i * quarter / 32}}
            for i in range(33)
        ]
        links.append({"id": "direct", "u": nodes[0], "v": nodes[-1],
                      "channel": {"type": "werner", "p_w": 1.0, "theta": 0.1}})
        net = write_network(tmp_path, links, nodes)
        code, record, _ = run_json(capsys, "route", "--network", net, "--src", nodes[0], "--dst", nodes[-1])
        assert code == 0
        assert record["result"]["method"] == "dijkstra"
        assert record["result"]["path"]["link_ids"] == ["direct"]

    def test_auto_picks_exact_when_a_corner_phase_breaks_the_model(self, capsys, tmp_path):
        # nu = -0.9 < 0: the direct link is not additive
        net = write_network(tmp_path, phase_hole_links(a14_re=-0.45))
        code, record, _ = run_json(capsys, "route", "--network", net, "--src", "A", "--dst", "B")
        assert code == 0
        assert record["result"]["method"] == "exact"
        assert record["result"]["path"]["nodes"] == ["A", "C", "B"]
        assert record["result"]["objective"]["fidelity"] == 0.9525

    def test_separable_only_path_is_routed_by_both_methods(self, capsys, tmp_path):
        net = write_network(tmp_path, [pure_link("dead", "A", "B", 0.0)], nodes=("A", "B"))
        results = []
        for method in ("auto", "exact"):
            code, record, _ = run_json(
                capsys, "route", "--network", net, "--src", "A", "--dst", "B", "--method", method
            )
            assert code == 0
            results.append(record["result"])
        assert [r["method"] for r in results] == ["dijkstra", "exact"]
        path = {"nodes": ["A", "B"], "link_ids": ["dead"], "hops": 1}
        assert results[0]["path"] == results[1]["path"] == path
        assert results[0]["objective"] == results[1]["objective"]
        assert results[0]["objective"]["fidelity"] == 0.75
        code, record, _ = run_json(capsys, "verify", "--network", net, "--src", "A", "--dst", "B")
        assert code == 0
        assert record["result"]["verified"] is True

    @pytest.mark.parametrize("name, dst, path, fidelity", [
        # every A-D path has a separable link: all tie at 0.75, and the fewest hops win
        ("separable_tie", "D", {"nodes": ["A", "C", "D"], "link_ids": ["ac", "cd"], "hops": 2}, 0.75),
        # ab2's raw 2 Re a14 exceeds 1, so its nu is clamped to the Bell link's 1
        ("above_one_pair", "B", {"nodes": ["A", "B"], "link_ids": ["ab1"], "hops": 1}, 1.0),
    ])
    def test_both_methods_name_the_canonical_path_of_a_tie(self, capsys, name, dst, path, fidelity):
        net = str(FIXTURES / f"{name}.json")
        for method in ("auto", "exact"):
            code, record, _ = run_json(
                capsys, "route", "--network", net, "--src", "A", "--dst", dst, "--method", method
            )
            assert code == 0
            assert record["result"]["path"] == path
            assert record["result"]["objective"]["fidelity"] == fidelity
            code, record, _ = run_json(
                capsys, "verify", "--network", net, "--src", "A", "--dst", dst, "--method", method
            )
            assert code == 0
            assert record["result"]["verified"] is True

    def test_search_budget_is_a_domain_error(self, capsys, monkeypatch):
        import teleroute.netgraph as netgraph_mod

        monkeypatch.setattr(netgraph_mod, "MAX_SEARCH_PATHS", 1)
        code, out, err = run(capsys, "route", "--network", WITNESS, "--src", "A", "--dst", "D")
        assert code == 1
        assert out == ""
        assert "visited more than 1 paths" in err

    def test_unknown_node(self, capsys):
        code, _, err = run(capsys, "route", "--network", TRIANGLE, "--src", "A", "--dst", "Z")
        assert code == 1
        assert "unknown node" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "route", "--network", TRIANGLE,
            "--src", "A", "--dst", "B",
        )
        assert code == 0
        header, values = out.strip().split("\r\n")
        cols = header.split(",")
        vals = values.split(",")
        fid = vals[cols.index("result.objective.fidelity")]
        assert fid == "0.93"


class TestVerify:
    def test_triangle_passes_both_checks(self, capsys):
        code, record, _ = run_json(
            capsys, "verify", "--network", TRIANGLE, "--src", "A", "--dst", "B"
        )
        assert code == 0
        result = record["result"]
        assert result["verified"] is True
        names = {c["name"] for c in result["checks"]}
        assert names == {"simulator-agreement", "certificate"}
        assert all(c["ok"] for c in result["checks"])

    def test_mixed_network_uses_simulator_only(self, capsys):
        code, record, _ = run_json(
            capsys, "verify", "--network", WITNESS, "--src", "A", "--dst", "D"
        )
        assert code == 0
        names = [c["name"] for c in record["result"]["checks"]]
        assert names == ["simulator-agreement"]

    def test_corner_phase_network_verifies(self, capsys, tmp_path):
        # an imaginary corner has nu = 0: the direct link is additive at
        # weight inf, so the shortest-path route and its certificate run
        net = write_network(tmp_path, phase_hole_links(a14_im=0.5))
        code, record, _ = run_json(capsys, "verify", "--network", net, "--src", "A", "--dst", "B")
        assert code == 0
        result = record["result"]
        assert result["verified"] is True
        assert result["method"] == "dijkstra"
        assert result["path"]["nodes"] == ["A", "C", "B"]
        assert [c["name"] for c in result["checks"]] == ["simulator-agreement", "certificate"]

    def test_additive_network_verifies_without_searching(self, capsys, monkeypatch):
        # the certificate is one shortest-path scan, so no search budget
        # applies to verify on an additive network, whichever method routes
        import teleroute.netgraph as netgraph_mod

        monkeypatch.setattr(netgraph_mod, "MAX_SEARCH_PATHS", 1)
        code, _, err = run(capsys, "route", "--method", "exact", "--network", TRIANGLE, "--src", "A", "--dst", "B")
        assert code == 1
        assert "visited more than 1 paths" in err
        code, record, _ = run_json(capsys, "verify", "--network", TRIANGLE, "--src", "A", "--dst", "B")
        assert code == 0
        assert [c["name"] for c in record["result"]["checks"]] == ["simulator-agreement", "certificate"]

    def test_certificate_catches_a_route_that_is_not_optimal(self, capsys, monkeypatch):
        # a shortest-path route that names the direct A-B link, not the
        # better relay through C: the simulator agrees with the closed form
        # of that path, and the certificate bounds every path above it
        import teleroute.netgraph as netgraph_mod
        from teleroute import Path, RouteResult

        def direct(network, src, dst):
            return RouteResult(Path(("A", "B"), ("ab",)), path_objective([network.link("ab").channel]), "dijkstra")

        monkeypatch.setattr(netgraph_mod, "dijkstra_route", direct)
        code, record, _ = run_json(capsys, "verify", "--network", TRIANGLE, "--src", "A", "--dst", "B")
        assert code == 3
        result = record["result"]
        assert result["verified"] is False
        simulator, certificate = result["checks"]
        assert simulator["ok"] is True
        assert certificate["name"] == "certificate"
        assert certificate["ok"] is False
        assert certificate["reference"] == 0.93
        assert certificate["difference"] == pytest.approx(0.055, abs=1e-12)

    def test_long_corner_chain_verifies(self, capsys):
        # 58 links at the largest corner a state accepts and one at 0.25:
        # the simulator reads the raw corners, 1.44e-9 past the closed
        # form over 59 hops, within the drift it allows such a chain
        code, record, _ = run_json(
            capsys, "verify", "--network", LONG_CHAIN, "--src", "C000", "--dst", "C059"
        )
        assert code == 0
        result = record["result"]
        assert result["verified"] is True
        assert result["path"]["hops"] == 59
        assert result["fidelity"] == 0.875
        agreement = result["checks"][0]
        assert agreement["name"] == "simulator-agreement"
        assert agreement["difference"] == pytest.approx(1.44e-9, rel=0.01)

    @pytest.mark.parametrize("factor,expected", [(0.99, 0), (1.01, 3)])
    def test_discrepancy_exits_three(self, capsys, monkeypatch, factor, expected):
        # the simulator reads the route's fidelity off by factor times the
        # drift it allows the route's hop count; verify judges at the same
        # allowance. verify imports the simulator when it runs, so
        # patching the simulator module reaches it
        import teleroute.telesim as telesim_mod

        monkeypatch.setattr(
            telesim_mod,
            "average_azimuthal_fidelity",
            lambda channels: FidelityEstimate(
                path_objective(channels).fidelity - factor * _drift_allowance(len(channels))
            ),
        )
        code, record, _ = run_json(
            capsys, "verify", "--network", TRIANGLE, "--src", "A", "--dst", "B"
        )
        assert code == expected
        assert record["result"]["verified"] is (expected == 0)


class TestFindViolation:
    def test_finds_and_reports(self, capsys):
        code, record, _ = run_json(capsys, "find-violation", "--seed", "42")
        assert code == 0
        result = record["result"]
        assert result["attempts_used"] >= 1
        w = result["witness"]
        assert w["fidelity_to_mid"] > w["prefix_fidelity"]
        assert w["margin"] > 1e-9
        assert "network" in result

    def test_out_file_replays(self, capsys, tmp_path):
        out_file = tmp_path / "found.json"
        code, record, _ = run_json(
            capsys, "find-violation", "--seed", "42", "--out", str(out_file)
        )
        assert code == 0
        w = record["result"]["witness"]
        net = load_network(out_file)
        replay = check_optimal_substructure(net, w["source"])
        assert replay is not None
        assert replay.mid == w["mid"]
        assert replay.ext == w["ext"]

    def test_budget_exhaustion_is_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, "find-violation", "--seed", "0", "--attempts", "2",
            "--family", "pure",
        )
        assert code == 1
        assert "no violation" in err

    def test_negative_seed_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "find-violation", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: seed must be nonnegative")
        assert "Traceback" not in err

    def test_unwritable_out_file_is_a_domain_error(self, capsys, tmp_path):
        # an empty path is a path that cannot be written, not a missing --out
        for out_file in (str(tmp_path / "missing" / "x.json"), ""):
            code, out, err = run(capsys, "find-violation", "--seed", "1", "--out", out_file)
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: cannot write {out_file!r}: ")
            assert "Traceback" not in err

    def test_node_count_past_the_limit_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "find-violation", "--nodes", "2,100000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad node range (2, 100000)")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_node_range_parsing(self, capsys):
        code, record, _ = run_json(
            capsys, "find-violation", "--seed", "1", "--nodes", "4,4", "--attempts", "100"
        )
        assert code == 0
        assert len(record["result"]["network"]["nodes"]) == 4
        code, record, _ = run_json(capsys, "find-violation", "--seed", "1", "--nodes", "5")
        assert code == 0
        assert record["arguments"]["nodes"] == [5, 5]
        assert len(record["result"]["network"]["nodes"]) == 5
        with pytest.raises(SystemExit) as exc:
            main(["find-violation", "--nodes", "1,2,3"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        errors = [line for line in out.err.splitlines() if "error:" in line]
        assert errors == [
            "teleroute find-violation: error: argument --nodes: "
            "expected LO,HI or a single integer, got '1,2,3'"
        ]

    def test_node_range_past_twelve(self, capsys):
        code, record, _ = run_json(capsys, "find-violation", "--seed", "1", "--nodes", "13,16")
        assert code == 0
        assert 13 <= len(record["result"]["network"]["nodes"]) <= 16
        assert record["result"]["witness"]["margin"] > 1e-9


class TestSwapPrepare:
    def test_full_accounting(self, capsys):
        code, record, _ = run_json(
            capsys, "swap-prepare", "--network", SWAP_TRIANGLE,
            "--src", "A", "--dst", "B", "--swap-node", "C",
        )
        assert code == 0
        result = record["result"]
        assert result["plan"]["consumed_link_ids"] == ["ac", "cb"]
        assert result["plan"]["new_negativity"] == 0.674595640392
        assert result["fidelity"]["base"] == 0.875
        assert result["fidelity"]["expected"] == 0.896824455049

    def test_conflict_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys, "swap-prepare", "--network", TRIANGLE,
            "--src", "A", "--dst", "B", "--swap-node", "C",
        )
        assert code == 1
        assert "spare" in err


class TestOutputRecord:
    def test_arguments_are_echoed(self, capsys):
        _, record, _ = run_json(
            capsys, "route", "--network", TRIANGLE, "--src", "A", "--dst", "B"
        )
        assert record["arguments"]["network"] == TRIANGLE
        assert record["arguments"]["src"] == "A"
        assert record["arguments"]["method"] == "auto"
        assert record["runtime_s"] >= 0.0

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["validate", "--network", TRIANGLE], ["network"]),
            (["route", "--network", TRIANGLE, "--src", "A", "--dst", "B"],
             ["network", "src", "dst", "method"]),
            (["verify", "--network", TRIANGLE, "--src", "A", "--dst", "B"],
             ["network", "src", "dst", "method"]),
            (["find-violation", "--seed", "42"], ["seed", "attempts", "family", "nodes"]),
            (["swap-prepare", "--network", SWAP_TRIANGLE, "--src", "A", "--dst", "B",
              "--swap-node", "C"], ["network", "src", "dst", "swap_node"]),
        ],
        ids=["validate", "route", "verify", "find-violation", "swap-prepare"],
    )
    def test_echoed_argument_keys_in_order(self, capsys, argv, keys):
        # the global --format and unset options are left out
        _, record, _ = run_json(capsys, "--format", "json", *argv)
        assert list(record["arguments"]) == keys

    def test_find_violation_echoes_its_out_file_last(self, capsys, tmp_path):
        out_file = str(tmp_path / "found.json")
        _, record, _ = run_json(capsys, "find-violation", "--seed", "42", "--out", out_file)
        assert list(record["arguments"]) == ["seed", "attempts", "family", "nodes", "out"]
        assert record["arguments"]["nodes"] == [4, 6]
        assert record["arguments"]["out"] == out_file

    def test_floats_are_rounded_to_twelve_digits(self, capsys):
        _, record, _ = run_json(
            capsys, "route", "--network", SWAP_TRIANGLE, "--src", "A", "--dst", "B"
        )
        nu = record["result"]["objective"]["nu_product"]
        assert nu == float(f"{nu:.12g}")
