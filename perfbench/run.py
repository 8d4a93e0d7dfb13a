#!/usr/bin/env python3
"""The repository benchmark: builds fsup and its workload program from source, runs one
workload, checks its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload rendezvous|echo|lifecycle --seed N \
        --seconds S --trace 0|1

Run it from the repository root. --trace 0 prints the end-to-end metrics; --trace 1 prints
the per-layer metrics of a separate traced run. The metric names and units are the ones in
BENCHMARK.json; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rendezvous", "echo", "lifecycle")
# setup_s is the median over this many launches: SETUP_LAUNCHES - 1 set-up-only launches
# plus the measured one.
SETUP_LAUNCHES = 15
BUILD_TIMEOUT_S = 850
SETUP_TIMEOUT_S = 30


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(d if os.path.isabs(d) else os.path.join(ROOT, d), "perfbench")


def build():
    if not all(os.path.isfile(os.path.join(ROOT, f))
               for f in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"))):
        fail("fsup sources not found next to perfbench/; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "fsup_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no fsup_perfbench")
    return binary


def launch(cmd, timeout):
    """Runs one workload process; returns its parsed last stdout line."""
    # The library's default configuration: no FSUP_* variable reaches the workload.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FSUP_")}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, env=env, check=False)
    except subprocess.TimeoutExpired:
        fail("workload timed out: " + " ".join(cmd))
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("workload failed with code %d: %s" % (r.returncode, " ".join(cmd)))
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload printed no result: " + " ".join(cmd))


def setup_seconds(res):
    """Program start (before static initialisers) to ready-to-measure, less the time spent
    generating the seeded inputs. Process creation and loading are left out: they are the
    same for any program and would hide the library's share."""
    return (res["ready_ns"] - res["start_ns"] - res["input_ns"]) / 1e9


def load_catalog():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not 0 < args.seconds <= 600:
        fail("--seconds must be in (0, 600]")
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 bits")
    end_to_end, per_layer = load_catalog()
    binary = build()

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace]
    setup_s = []
    for _ in range(SETUP_LAUNCHES - 1 if args.trace == "0" else 0):
        setup_s.append(setup_seconds(launch(base + ["--setup-only"], SETUP_TIMEOUT_S)))
    res = launch(base, args.seconds + 150)
    setup_s.append(setup_seconds(res))

    produced = dict(res["metrics"])
    if args.trace == "0":
        produced["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
        catalog = end_to_end
    else:
        catalog = per_layer
    metrics = {}
    correct = bool(res["correct"])
    for name, unit in catalog:
        m = produced.get(name)
        if m is None or m["unit"] != unit or m["value"] is None or not math.isfinite(m["value"]):
            print("perfbench: metric %s missing or malformed: %r" % (name, m), file=sys.stderr)
            correct = False
            continue
        metrics[name] = {"value": m["value"], "unit": unit}
    extra = sorted(set(produced) - {n for n, _ in catalog})
    if extra:
        print("perfbench: metrics not in BENCHMARK.json: " + ", ".join(extra), file=sys.stderr)
        correct = False

    attempted, failed = int(res["attempted"]), int(res["failed"])
    for check in res.get("checks_failed", []):
        print("perfbench: check failed: " + check, file=sys.stderr)
    print("workload %s seed %d trace %s" % (args.workload, args.seed, args.trace))
    for name, m in metrics.items():
        print("  %-34s %18.6f %s" % (name, m["value"], m["unit"]))
    print("  %-34s %18.6f %s" % ("failed_frac", failed / attempted if attempted else 1.0,
                                  "frac"))
    for name, v in res.get("notes", {}).items():
        print("  (%s %.6g)" % (name, v))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
