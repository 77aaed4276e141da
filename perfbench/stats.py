"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import statistics


def median_ms(summary: dict, name: str, op_ids=None) -> float:
    """Median duration of the spans called `name` in a tracer summary,
    optionally only those under the given operation ids."""
    return statistics.median(
        ms for ms, op_id in summary[name]["each"] if op_ids is None or op_id in op_ids
    )


def calls_per_op(summary: dict, name: str, op_ids) -> float:
    """Mean number of `name` spans per operation over op_ids."""
    calls = sum(1 for _, op_id in summary.get(name, {"each": ()})["each"] if op_id in op_ids)
    return calls / len(op_ids)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def distribution(values) -> dict:
    values = sorted(values)
    return {
        "count": len(values),
        "min": values[0],
        "median": statistics.median(values),
        "p90": p90(values),
        "max": values[-1],
        "histogram": {str(v): values.count(v) for v in sorted(set(values))},
    }
