"""Check that the machine-independent numbers of the traced run repeat.

    python3 perfbench/check_counts.py --seeds 1 7

For each seed, runs `run.py --trace 1` twice and compares every count
metric (`*_calls_per_op*`, `*_calls_per_plan`, `*_attempts`) and every
result digest for exact equality. Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNT = re.compile(r"_calls_per_|_attempts$")


def traced(seed: int) -> tuple[dict, list[str]]:
    # a traced run covers every workload, whichever one it names
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "exact-search", "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if COUNT.search(k)}
    digests = sorted(" ".join(line.split()) for line in lines if line.strip().startswith("result_digest."))
    return counts, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args(argv)
    ok = True
    for seed in args.seeds:
        (c1, d1), (c2, d2) = traced(seed), traced(seed)
        same = c1 == c2 and d1 == d2
        ok &= same
        print(f"seed {seed}: {len(c1)} counts and {len(d1)} digests {'repeat' if same else 'DIFFER'}")
        for key in sorted(c1):
            mark = "" if c1[key] == c2.get(key) else f"  != {c2.get(key)}"
            print(f"  {key:<48} {c1[key]}{mark}")
        for a, b in zip(d1, d2):
            print(f"  {a}" + ("" if a == b else f"  != {b}"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
