#!/usr/bin/env python3
"""Measures how steady the benchmark is.

    python3 perfbench/spread.py [--workloads suite,tccd_hot] [--out FILE]

Runs run.py once per seed 1..10 on each workload, untraced, at
BENCHMARK.json's run_seconds.  For every end-to-end metric it prints the
median, the quartiles as statistics.quantiles(values, n=4) gives them, and
the spread: the distance between the quartiles as a share of the median.

A spread passes when it is within the metric's bound; it is "steady" below
a third of the bound and "within" up to the bound.  setup_s is printed and
ranked like the others but never fails the run: its spread is not gated,
only its median's drift against the parent commit is.  The exit code is 1
when any other spread exceeds its bound.  --out appends every run's
result, with its notes (sample counts, host steal, daemon counters), as
one JSON line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)
UNGATED = ("setup_s",)


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = (0.0, None)
    failed = False
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit("run failed: %s seed %d" % (workload, seed))
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("incorrect run: %s seed %d" % (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if args.out:
                notes = [line.strip()[len("note: "):]
                         for line in done.stdout.split("\n")
                         if line.strip().startswith("note: ")]
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result,
                                        "notes": notes}) + "\n")
        print("%s (%d runs)" % (workload, len(SEEDS)))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if spread < bound / 3:
                status = "steady"
            elif spread <= bound:
                status = "within"
            else:
                status = "WIDE"
            if name in UNGATED:
                status += " (not gated)"
            elif spread > bound:
                failed = True
            worst = max(worst, (spread / bound, "%s %s" % (workload, name)))
            print("  %-20s median %14.6f  q1 %14.6f  q3 %14.6f  spread %6.2f%%"
                  "  bound %5.1f%%  %s" % (name, med, q1, q3, 100 * spread,
                                           100 * bound, status))
    print("worst spread / bound: %.3f (%s)" % worst)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
