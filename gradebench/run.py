#!/usr/bin/env python3
"""Runs one workload of the grading benchmark.

    python3 gradebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `gradebench`
package (into $CARGO_TARGET_DIR, default `.bench_build`), pins itself and
the benchmark to one CPU, so the reference kernel and the measured work
share a core, and runs the workload. It prints a provenance line, the
benchmark's detail line and, last, the result line, after checking that
the result names exactly the metrics BENCHMARK.json lists, with their
units. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# How long the benchmark may run past its measuring time (set-ups,
# reference digests, spot checks, the memory probe).
GRACE_S = 120


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu():
    """Pins this process (and so every child) to the last CPU it may use."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(cpu):
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "rustc": command_output(["rustc", "-V"]),
    }


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"the benchmark's last line is not JSON ({e}): {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    table = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        fail(f"metrics {got} do not match BENCHMARK.json {want}")
    if result["attempted"] < 1:
        fail("no op was attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("building the benchmark failed")

    cpu = pin_to_one_cpu()
    cmd = [
        os.path.join(target, "release", "gradebench"), "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", os.path.join(target, "gradebench-work"),
    ]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"the benchmark exited with {run.returncode}")
    check_result(lines[-1], spec, args.trace == 1)

    print(json.dumps({"provenance": provenance(cpu)}))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
