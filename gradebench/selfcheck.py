#!/usr/bin/env python3
"""Steadiness self-check for the grading benchmark.

    python3 gradebench/selfcheck.py [--runs 10]

Run it from the root of the repository. For every workload it makes two
sets of `--runs` runs of `run.py`, each run with its own seed and the
`run_seconds` of BENCHMARK.json, and prints
for every end-to-end metric each set's median and quartiles, normalised
(ref-seconds) beside raw (host seconds). It then says whether the two
sets agree within the bounds in BENCHMARK.json:

- each set's spread, (q3 - q1) / median, is within the metric's bound
  (setup_s is exempt, as in the acceptance rule);
- the second set's median is not worse than the first's by more than
  the bound;
- every run was correct and no op failed.

A spread over the bound is marked `!`; one over a third of the bound,
the steadiness the benchmark aims for, is marked `~`. It also reports,
per workload, whether normalising narrowed the spread of each host-time
metric. The output starts with the host's provenance.
Exits 0 when every workload agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SET_SEEDS = (1000, 2000)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {out.returncode}")
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    return lines[0]["provenance"], lines[-2]["detail"], lines[-1]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    all_agree = True
    printed_provenance = False
    for workload in workloads:
        sets = []
        for base in SET_SEEDS:
            runs = []
            for i in range(args.runs):
                provenance, detail, result = run_once(workload, base + i, seconds)
                if not printed_provenance:
                    print("provenance:", json.dumps(provenance))
                    printed_provenance = True
                runs.append((detail, result))
            sets.append(runs)

        print(f"\n== {workload}: {len(SET_SEEDS)} sets x {args.runs} runs x {seconds:g} s")
        print(f"{'metric':<20} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
              f" | {'raw median':>12} {'raw q1':>12} {'raw q3':>12} {'spread':>8}")
        agree = all(r["correct"] and r["failed"] == 0 for runs in sets for _, r in runs)
        if not agree:
            print("  a run was incorrect or had failed ops")
        narrowed = []
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            medians = []
            for k, runs in enumerate(sets):
                norm = [r["metrics"][name]["value"] for _, r in runs]
                raw = [d["raw"][name] for d, _ in runs]
                q1, q2, q3 = quartiles(norm)
                r1, r2, r3 = quartiles(raw)
                s, raw_s = spread(norm), spread(raw)
                medians.append(q2)
                ok = name == "setup_s" or s <= bound
                agree &= ok
                mark = "!" if not ok else "~" if s > bound / 3 else " "
                print(f"{name:<20} {'AB'[k]:>3} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>7.2%}"
                      f"{mark}| {r2:>12.6g} {r1:>12.6g} {r3:>12.6g} {raw_s:>7.2%}")
                if m["unit"] != "MiB":
                    narrowed.append(s <= raw_s)
            drift = worse_by(medians[0], medians[1], better)
            ok = drift <= bound
            agree &= ok
            print(f"{'':<20} B vs A: {drift:+.2%} worse (bound {bound:.0%}){'' if ok else '  FAIL'}")
        print(f"normalised spread no wider than raw: {sum(narrowed)} of {len(narrowed)} metric-sets")
        print(f"{workload}: {'sets agree within bounds' if agree else 'sets DISAGREE'}")
        all_agree &= agree
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()
