"""Command line interface.

Subcommands:
  validate        check a network file and report per-link verdicts
  route           find the best path between two nodes
  verify          route, then check the closed form against the simulator and,
                  on additive networks, against a shortest-path certificate
  find-violation  search random networks for a prefix-optimality violation
  swap-prepare    propose a swap plan at a node and price its fidelity impact

Each run prints a single JSON (default) or CSV record on stdout with the
command, echoed arguments, a digest of the input file, the runtime and
the result. Floats are rounded to 12 significant digits. Exit codes:
0 success, 1 domain error (including an exact search that exceeds its
path budget, a negative seed, a find-violation --nodes range past
netgraph.MAX_RANDOM_NODES (1000) and an output file that cannot be
written), 2 parse or validation error, 3 verification discrepancy: a
check of verify that differs from the route's fidelity by more than the
drift the simulator itself allows a chain of the route's hop count
(qcore._drift_allowance). verify runs no search of its own, so it
exits 1 only where route does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import DomainError, ParseError, TelerouteError, ValidationError

# parser settings that are not echoed as arguments
_NOT_ECHOED = ("command", "format", "handler")


def _path_data(path) -> dict:
    return {"nodes": list(path.nodes), "link_ids": list(path.link_ids), "hops": path.hops}


def _routed(args, data) -> tuple:
    """Parse the network and route --src to --dst by --method, auto taking
    dijkstra exactly where the additive model applies. Returns (network,
    whether the model applies, the route, the record head that route and
    verify share)."""
    from .netfile import parse_network
    from .netgraph import additive_model_applies, dijkstra_route, exact_route

    network = parse_network(data)
    additive = additive_model_applies(network)
    method = args.method
    if method == "auto":
        method = "dijkstra" if additive else "exact"
    route = (dijkstra_route if method == "dijkstra" else exact_route)(network, args.src, args.dst)
    head = {
        "source": args.src,
        "destination": args.dst,
        "method": route.method,
        "path": _path_data(route.path),
    }
    return network, additive, route, head


# Each cmd_* handler takes the parsed arguments and the decoded network
# file (None for a command without --network), and returns (result, exit
# code). main reads and digests the file. A handler imports the modules
# it runs, so no command loads the modules of another.


def cmd_validate(args, data) -> tuple:
    from .netfile import _checked

    verdicts, _, error = _checked(data)
    result = {
        "valid": error is None,
        "link_count": len(verdicts),
        "links": [
            {"id": link_id, "ok": message is None, "error": message} for link_id, message in verdicts
        ],
        "network_error": None if error is None else str(error),
    }
    return result, 0 if error is None else 2


def cmd_route(args, data) -> tuple:
    _, _, route, head = _routed(args, data)
    objective = route.objective
    head["objective"] = {
        "mu_product": objective.mu_product,
        "nu_product": objective.nu_product,
        "fidelity": objective.fidelity,
    }
    return head, 0


def cmd_verify(args, data) -> tuple:
    from .netgraph import _certified_bound, path_channels
    from .qcore import _drift_allowance
    from .telesim import average_azimuthal_fidelity

    network, additive, route, head = _routed(args, data)
    fidelity = route.objective.fidelity
    simulated = average_azimuthal_fidelity(path_channels(network, route.path)).value
    references = [("simulator-agreement", simulated)]
    if additive:
        references.append(("certificate", _certified_bound(network, args.src, args.dst)))
    allowance = _drift_allowance(route.path.hops)
    checks = []
    for name, reference in references:
        difference = abs(reference - fidelity)
        checks.append({"name": name, "reference": reference, "difference": difference, "ok": difference <= allowance})
    verified = all(c["ok"] for c in checks)
    head["fidelity"] = fidelity
    head["checks"] = checks
    head["verified"] = verified
    return head, 0 if verified else 3


def cmd_find_violation(args, data) -> tuple:
    from .netfile import network_to_data, save_network
    from .netgraph import find_violation

    network, witness, attempts_used = find_violation(args.seed, args.attempts, args.family, args.nodes)
    result = {
        "seed": args.seed,
        "attempts_used": attempts_used,
        "family": args.family,
        "witness": {
            "source": witness.source,
            "mid": witness.mid,
            "ext": witness.ext,
            "best_to_mid": _path_data(witness.best_to_mid),
            "best_to_ext": _path_data(witness.best_to_ext),
            "fidelity_to_mid": witness.mid_objective.fidelity,
            "prefix_fidelity": witness.prefix_objective.fidelity,
            "fidelity_to_ext": witness.ext_objective.fidelity,
            "margin": witness.margin,
        },
    }
    if args.out is not None:
        try:
            save_network(network, args.out)
        except OSError as exc:
            raise DomainError(f"cannot write {args.out!r}: {exc}") from exc
        result["network_file"] = args.out
    else:
        result["network"] = network_to_data(network)
    return result, 0


def cmd_swap_prepare(args, data) -> tuple:
    from .netfile import parse_network
    from .swapprep import preparation_expected_fidelity, propose_plan

    network = parse_network(data)
    plan = propose_plan(network, args.src, args.dst, args.swap_node)
    assessment = preparation_expected_fidelity(network, args.src, args.dst, plan)
    result = {
        "source": args.src,
        "destination": args.dst,
        "swap_node": plan.swap_node,
        "plan": {
            "consumed_link_ids": list(plan.consumed_link_ids),
            "endpoints": list(plan.endpoints),
            "new_negativity": plan.new_negativity,
            "success_probability": plan.success_probability,
            "success_link_id": assessment.success_link_id,
        },
        "fidelity": {
            "base": assessment.base_fidelity,
            "success": assessment.success_fidelity,
            "failure": assessment.failure_fidelity,
            "expected": assessment.expected_fidelity,
        },
    }
    return result, 0


def _parse_node_range(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO,HI or a single integer, got {text!r}")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="teleroute", description=__doc__.split("\n\n")[0])
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network(p):
        p.add_argument("--network", required=True, help="path to a network JSON file")

    def add_endpoints(p):
        p.add_argument("--src", required=True, help="source node")
        p.add_argument("--dst", required=True, help="destination node")

    p = sub.add_parser("validate", help="validate a network file")
    add_network(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("route", help="find the best path between two nodes")
    add_network(p)
    add_endpoints(p)
    p.add_argument("--method", choices=("auto", "dijkstra", "exact"), default="auto")
    p.set_defaults(handler=cmd_route)

    p = sub.add_parser("verify", help="route, then check against the simulator and a certificate")
    add_network(p)
    add_endpoints(p)
    p.add_argument("--method", choices=("auto", "dijkstra", "exact"), default="auto")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("find-violation", help="search for a prefix-optimality violation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=1000)
    p.add_argument("--family", choices=("pure", "x", "werner"), default="x")
    p.add_argument("--nodes", type=_parse_node_range, default=(4, 6), help="node count range LO,HI")
    p.add_argument("--out", help="write the found network to this file")
    p.set_defaults(handler=cmd_find_violation)

    p = sub.add_parser("swap-prepare", help="propose and price a swap plan")
    add_network(p)
    add_endpoints(p)
    p.add_argument("--swap-node", required=True, dest="swap_node", help="node performing the swap")
    p.set_defaults(handler=cmd_swap_prepare)

    return parser


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _flatten(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, out)
    else:
        out.append((prefix, value))


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, indent=2))
        return
    import csv
    import io

    cells: list = []
    _flatten("", record, cells)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([key for key, _ in cells])
    writer.writerow(["" if v is None else ("true" if v is True else ("false" if v is False else v)) for _, v in cells])
    sys.stdout.write(buf.getvalue())


def _echo_args(args) -> dict:
    """The command's own options in parser order, unset ones left out."""
    return {
        name: value
        for name, value in vars(args).items()
        if name not in _NOT_ECHOED and value is not None
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    data = input_digest = None
    try:
        if "network" in args:
            import hashlib

            from .netfile import _read_file

            data, raw = _read_file(args.network)
            input_digest = hashlib.sha256(raw).hexdigest()
        result, exit_code = args.handler(args, data)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TelerouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "command": args.command,
        "arguments": _echo_args(args),
        "runtime_s": time.perf_counter() - start,
    }
    if input_digest is not None:
        record["input_digest"] = input_digest
    record["result"] = result
    _emit(_round_floats(record), args.format)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
