"""Stability check of the end-to-end benchmark on one commit.

Usage (from the repository root)::

    python benchmarks/e2e/stability.py [--runs 5] [--write]

Runs two sets of ``--runs`` runs of every workload (seeds ``11 .. 11+runs-1``
in both sets, each run ``run_seconds`` long) and reports, per (workload,
metric), each set's median and the spread (q3 - q1) / median.  It fails when
the two medians differ by more than the metric's bound in ``BENCHMARK.json``,
or when a spread other than ``setup_s``'s exceeds the bound.  A spread above
a third of the bound is flagged: lengthen that workload's pass, do not widen
the bound.

``--write`` also makes one traced run per workload and stores the medians,
quartiles and the top layers by self time in ``results.json`` beside this
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import (
    DEFAULT_SEED,
    END_TO_END,
    HERE,
    ROOT,
    RUN_SECONDS,
    SPEC,
    WORKLOAD_NAMES,
    git_commit,
    run_child,
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--write", action="store_true", help="store results.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(DEFAULT_SEED, DEFAULT_SEED + args.runs))
    values: dict[tuple[int, str, str], list[float]] = {}
    ok = True
    for s in (0, 1):
        for name in WORKLOAD_NAMES:
            for seed in seeds:
                res = run_child(name, seed, RUN_SECONDS, False)
                if res is None or not res["correct"]:
                    print(f"{name} seed={seed}: run failed or incorrect", file=sys.stderr)
                    return 1
                for metric, val in res["metrics"].items():
                    values.setdefault((s, name, metric), []).append(val)

    doc: dict = {"commit": git_commit(), "seeds": seeds, "seconds": RUN_SECONDS, "results": {}}
    print(f"{'workload':15s} {'metric':12s} {'median A':>12s} {'median B':>12s} "
          f"{'diff':>7s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}")
    for name in WORKLOAD_NAMES:
        for metric in END_TO_END:
            a, b = values[(0, name, metric)], values[(1, name, metric)]
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
            bound = bounds[metric]
            diff = abs(mb - ma) / ma
            spreads = ((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            flag = ""
            if diff > bound or (metric != "setup_s" and max(spreads) > bound):
                flag, ok = "FAIL", False
            elif metric != "setup_s" and max(spreads) > bound / 3:
                flag = "wide"
            print(f"{name:15s} {metric:12s} {ma:12.5g} {mb:12.5g} {diff:7.2%} "
                  f"{spreads[0]:8.2%} {spreads[1]:8.2%} {bound:6.2f} {flag}")
            doc["results"].setdefault(name, {})[metric] = {
                "unit": END_TO_END[metric],
                "sets": [
                    {"median": ma, "q1": qa1, "q3": qa3},
                    {"median": mb, "q1": qb1, "q3": qb3},
                ],
            }
    if args.write:
        doc["trace"] = {}
        for name in WORKLOAD_NAMES:
            res = run_child(name, DEFAULT_SEED, RUN_SECONDS, True)
            if res is None or not res["correct"]:
                print(f"{name}: traced run failed", file=sys.stderr)
                return 1
            doc["trace"][name] = {
                "top_layers": res["top_layers"],
                "pass0_top_layers": res["cold_top_layers"],
                "overhead_frac": res["metrics"]["trace.overhead_frac"],
                "unattributed_frac": res["metrics"]["trace.unattributed_frac"],
            }
        out = HERE / "results.json"
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {Path(out).relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
