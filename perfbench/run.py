"""Seeded benchmark for teleroute.

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --seed 1    # the two listed workloads

Workloads: cli-oneshot, additive-verify, exact-search (see README.md in
this directory). Each is a closed loop with one client. A run builds its
inputs from --seed, then repeats whole passes over the same fixed
operation list until --seconds of passes have run (and at least MIN_OPS
operations and MIN_PASSES passes ran), checking every answer. The set-up
is repeated and timed at SETUP_REPEATS points spread over the run.

--trace 0 prints the end-to-end metrics. --trace 1 runs one traced pass
of each workload and prints every per-layer metric, then
OVERHEAD_PAIRS untraced and traced passes of the named workload for the
tracing overhead. The last line of
stdout is one JSON object; the full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from stats import p90
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 8
MIN_OPS = 100
MIN_PASSES = 3
MAX_ERRORS = 20
OVERHEAD_PAIRS = 3
NAMES = ("cli-oneshot", "additive-verify", "exact-search")
# the workloads BENCHMARK.json lists: what --workload listed (the default) runs
LISTED = ("cli-oneshot", "exact-search")
SHORT = {"cli-oneshot": "cli", "additive-verify": "additive", "exact-search": "exact"}
# functions called many times per operation: counted, never spanned
COUNTED = (("qcore", "as_x_state"), ("qcore", "negativity"), ("fidmodel", "link_weights"))
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("listed", "all"), default="listed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "teleroute" / "__init__.py").is_file():
        print(f"error: no teleroute package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload in ("listed", "all"):
        return run_many(LISTED if args.workload == "listed" else NAMES, args)

    sys.path.insert(0, str(ROOT / "src"))
    load_before = os.getloadavg()
    t0 = perf_counter()
    import teleroute
    import teleroute.cli  # noqa: F401  (every module, as the CLI loads them)

    import_s = perf_counter() - t0
    if not Path(teleroute.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: teleroute resolved outside {ROOT}: {teleroute.__file__}", file=sys.stderr)
        return 2
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "import_s": import_s,
    }
    if args.trace:
        result = traced(args, report)
    else:
        result = untraced(args, report, import_s)
    report["environment"].update(loadavg_before=load_before, loadavg_after=os.getloadavg())
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"  record         {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def make(name: str, seed: int):
    if name == "cli-oneshot":
        from cli_oneshot import CliOneshot as cls
    elif name == "additive-verify":
        from additive_verify import AdditiveVerify as cls
    else:
        from exact_search import ExactSearch as cls
    return cls(seed, OUT)


def untraced(args, report, import_s) -> dict:
    wl = make(args.workload, args.seed)
    wl.prepare()
    setups = [timed_setup(wl)]
    wl.reference()
    first, ms, ok, errors, wall = timed(wl, args.seconds, setups)
    passes, ops = len(ms), len(ms) * len(wl.ops)
    failed = ops - sum(sum(o) for o in ok)
    latencies = [t for pass_ms in ms for t in pass_ms]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": (ops - failed) / wall,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": p90(latencies),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    digest = digest_of(first)
    report.update(
        setup_repeats_s=setups,
        passes=passes,
        ops=ops,
        failed=failed,
        fail_ratio=failed / ops,
        timed_wall_s=wall,
        result_digest=digest,
        metrics=metrics,
        by_kind=by_kind(wl, ms),
        sizes=wl.sizes(first),
        failures=errors,
    )
    print(f"perfbench {wl.name} seed={args.seed} trace=0")
    print(f"  ops            {ops} in {passes} passes of {len(wl.ops)}, {failed} failed, {wall:.1f} s wall")
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "op_ms_p50":
            extra = f"  ({len(latencies)} samples, one per operation run)"
        elif name == "op_ms_p90":
            extra = f"  ({sum(t > metrics[name] for t in latencies)} samples above)"
        print(f"  {name:<14} {metrics[name]:.6g} {unit}{extra}")
    print(f"  fail_ratio     {failed / ops:.6g}")
    print(f"  result_digest  {digest}")
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END.items()},
    }


def run_op(wl, op):
    """Run and check one operation. Returns (ms, ok, answer, error)."""
    t0 = perf_counter()
    try:
        answer = wl.run(op)
    except Exception as exc:  # a failing operation is counted; the run goes on
        return (perf_counter() - t0) * 1e3, False, None, repr(exc)
    ms = (perf_counter() - t0) * 1e3
    try:
        ok = bool(wl.check(op, answer))
    except Exception as exc:  # an unreadable answer is a wrong answer
        return ms, False, answer, f"check raised {exc!r}"
    return ms, ok, answer, None if ok else f"wrong answer for {op!r}"


def one_pass(wl, tracer=None, first=None):
    """One pass over wl.ops. With a tracer, each op gets a root span."""
    records = []
    for op_id, op in enumerate(wl.ops):
        if tracer is None:
            ms, ok, answer, error = run_op(wl, op)
        else:
            tracer.op_id = op_id
            with tracer.span("op." + wl.kind(op)):
                ms, ok, answer, error = run_op(wl, op)
        canon = wl.canon(op, answer) if ok else None
        if ok and first is not None and canon != first[op_id]["canon"]:
            ok, error = False, f"answer for {op!r} changed between passes"
        records.append({"op": op, "op_id": op_id, "op_ms": ms, "ok": ok, "answer": answer,
                        "canon": canon, "error": error})
    return records


def timed_setup(wl) -> float:
    t0 = perf_counter()
    wl.setup()
    took = perf_counter() - t0
    gc.collect()
    return took


def timed(wl, seconds, setups):
    """SETUP_REPEATS rounds of whole passes, until `seconds` of passes
    have run, MIN_OPS ops ran and there were MIN_PASSES passes.

    Every round after the first starts by setting the workload up again
    and appends that set-up's time to `setups`. Spread over the run, the
    set-ups meet the same speed of a shared host as the passes do. The
    inputs are rebuilt from the same seed, so the answers do not change.

    Returns the first pass's records, then per pass the latencies (ms)
    and correctness flags, the first MAX_ERRORS error messages and the
    wall time of the passes. Later passes keep only their latencies and
    flags, so memory does not grow with the number of passes.
    """
    first = None
    ms, ok, errors = [], [], []
    wall = 0.0

    def run_pass():
        nonlocal first, wall
        start = perf_counter()
        records = one_pass(wl, first=first)
        wall += perf_counter() - start
        first = first or records
        ms.append(array("d", (r["op_ms"] for r in records)))
        ok.append(bytes(r["ok"] for r in records))
        errors.extend([r["error"] for r in records if not r["ok"]][: MAX_ERRORS - len(errors)])

    for round_no in range(1, SETUP_REPEATS + 1):
        if round_no > 1:
            setups.append(timed_setup(wl))
        while wall < seconds * round_no / SETUP_REPEATS:
            run_pass()
    while len(ms) * len(wl.ops) < MIN_OPS or len(ms) < MIN_PASSES:
        run_pass()
    return first, ms, ok, errors, wall


def digest_of(records) -> str:
    text = json.dumps([r["canon"] for r in records], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def by_kind(wl, ms) -> dict:
    kinds: dict[str, list] = {}
    for latencies in ms:
        for op, t in zip(wl.ops, latencies):
            kinds.setdefault(wl.kind(op), []).append(t)
    return {
        k: {"ops": len(v), "ms_total": sum(v), "ms_p50": statistics.median(v), "ms_max": max(v)}
        for k, v in kinds.items()
    }


def traced(args, report) -> dict:
    wls = {name: make(name, args.seed) for name in NAMES}
    for wl in wls.values():
        wl.prepare()
        wl.setup()
        wl.reference()
    target = wls[args.workload]

    metrics: dict[str, float] = {}
    digests = {}
    details = {}
    spans = []
    attempted = failed = 0
    traced_target = None
    for name, wl in wls.items():
        in_process = name != "cli-oneshot"
        tracer, records = traced_pass(wl, in_process)
        summary = tracer.summary()
        probes = Tracer()
        wl.layer_probes(probes)
        metrics.update(wl.layer_metrics(summary, tracer.counts, records, probes.summary()))
        short = SHORT[name]
        if in_process:
            for home, attr in COUNTED:
                metrics[f"{home}.{attr}_calls_per_op.{short}"] = tracer.counts[f"{home}.{attr}"] / len(records)
            for layer, self_ms in layer_self_ms(summary).items():
                metrics[f"{layer}.self_ms_per_op.{short}"] = self_ms / len(records)
        if wl is target:
            traced_target = records
        attempted += len(records)
        failed += sum(not r["ok"] for r in records)
        digests[name] = digest_of(records)
        details[name] = {
            "counts": dict(tracer.counts),
            "spans": {k: {f: v[f] for f in ("calls", "total_ms", "self_ms")} for k, v in summary.items()},
            "probes": {k: {f: v[f] for f in ("calls", "total_ms")} for k, v in probes.summary().items()},
            "sizes": wl.sizes(records),
            "failures": [r["error"] for r in records if not r["ok"]][:MAX_ERRORS],
        }
        spans += [[name] + s for s in tracer.spans]

    # untraced and traced passes of the named workload, in alternation, so
    # both meet the same speed of a shared host
    plain_ms, traced_ms = [], [sum(r["op_ms"] for r in traced_target)]
    for i in range(2 * OVERHEAD_PAIRS - 1):
        if i % 2 == 0:
            gc.collect()
            records = one_pass(target)
            plain_ms.append(sum(r["op_ms"] for r in records))
        else:
            records = traced_pass(target, args.workload != "cli-oneshot")[1]
            traced_ms.append(sum(r["op_ms"] for r in records))
        attempted += len(records)
        failed += sum(not r["ok"] for r in records)
    plain, traced_median = statistics.median(plain_ms), statistics.median(traced_ms)
    metrics["trace.overhead_pct"] = 100.0 * (traced_median - plain) / plain
    report.update(per_layer=metrics, digests=digests, layers=details,
                  overhead={"untraced_pass_ms": plain_ms, "traced_pass_ms": traced_ms})
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["workload", "name", "start", "end", "parent", "op_id"], "spans": spans}
    ) + "\n")

    print(f"perfbench trace seed={args.seed} (overhead measured on {args.workload})")
    for name in sorted(metrics):
        print(f"  {name:<48} {metrics[name]:.6g} {unit_of(name)}")
    for name, digest in digests.items():
        print(f"  result_digest.{name:<33} {digest}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }


def traced_pass(wl, in_process):
    """One pass with spans on wl's trace targets and, in process, the
    COUNTED functions counted. Returns (tracer, records)."""
    tracer = Tracer()
    wl.trace_targets(tracer)
    if in_process:
        for home, attr in COUNTED:
            tracer.count_on(home, attr)
    gc.collect()
    try:
        records = one_pass(wl, tracer)
    finally:
        tracer.restore()
    return tracer, records


def layer_self_ms(summary) -> dict:
    """Self time per layer; spans named op.* are the benchmark's own code."""
    out: dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(".")[0]
        layer = "bench" if layer == "op" else layer
        out[layer] = out.get(layer, 0.0) + row["self_ms"]
    return out


def unit_of(name: str) -> str:
    if "_calls_per_" in name or name.endswith("_attempts"):
        return "count"
    if name.endswith("_pct"):
        return "%"
    return "ms"


def environment() -> dict:
    import numpy

    import teleroute

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "teleroute": teleroute.__version__,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def run_many(names, args) -> int:
    """Each workload in its own child process, one after another."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
