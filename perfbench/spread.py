"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload solve-cold --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed (``first-seed`` ... ``first-seed + runs - 1``)
with tracing off and prints, per end-to-end metric, every value, the
median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound in BENCHMARK.json.  The last line is the summary as JSON, with
the same two figures for every value on the runs' ``detail:`` lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def median_spread(values):
    """Median and (q3 - q1) / median; the spread is 0 for a zero median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    details: dict[str, list] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        for name, m in json.loads(lines[-2][len("detail: "):])[
                "metrics"].items():
            details.setdefault(name, []).append(m["value"])
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    summary = {"workload": args.workload, "runs": args.runs,
               "seconds": seconds, "failed": failed, "metrics": {},
               "detail": {name: median_spread(v)
                          for name, v in sorted(details.items())}}
    for m in spec["end_to_end"]:
        med, spread = median_spread(values[m["name"]])
        summary["metrics"][m["name"]] = {"median": med, "spread": spread,
                                         "bound": m["bound"]}
        print("%-16s median %-12.6g spread %.3f  bound %.2f%s"
              % (m["name"], med, spread, m["bound"],
                 "" if spread < m["bound"] / 3 else "  (above bound/3)"))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
