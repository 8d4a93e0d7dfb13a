#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Runs every workload briefly (RUN_SECONDS each), untraced and traced, through
perfbench/run.py and asserts that each run prints every metric BENCHMARK.json names for its
mode, with its unit, on a human-readable line and in the final JSON line, that the outputs
checked correct and that failed_frac is 0. Then checks that run.py refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and perfbench/. Exits 0
when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rendezvous", "echo", "lifecycle")
RUN_SECONDS = 1.0


def run_one(workload, trace, catalog):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=900, check=False)
    out = r.stdout.decode().strip().splitlines()
    errors = []
    if r.returncode != 0 or not out:
        return ["exit code %d, stderr: %s" % (r.returncode, r.stderr.decode()[-500:])]
    result = json.loads(out[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("outputs not correct")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("attempted %s failed %s" % (result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    if set(metrics) != {name for name, _ in catalog}:
        errors.append("metric set differs from BENCHMARK.json: %s" %
                      sorted(set(metrics) ^ {name for name, _ in catalog}))
    table = {}
    for line in out[:-1]:
        parts = line.split()
        if len(parts) == 3:
            table[parts[0]] = (parts[1], parts[2])
    for name, unit in catalog:
        m = metrics.get(name)
        if m is None or m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errors.append("metric %s: %r" % (name, m))
        if table.get(name, (None, None))[1] != unit:
            errors.append("metric %s not printed with unit %s" % (name, unit))
    if "failed_frac" not in table or float(table["failed_frac"][0]) != 0.0:
        errors.append("failed_frac line: %r" % (table.get("failed_frac"),))
    return errors


def check_bare_directory():
    """run.py must fail, printing no result, without the library sources next to it."""
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "echo", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
                       check=False)
    shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if r.returncode == 0:
        errors.append("run.py exited 0 without the library sources")
    if r.stdout.strip():
        errors.append("run.py printed a result without the library sources")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    catalogs = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors = run_one(workload, trace, catalogs[trace])
            print("%s %s trace %d%s" % ("FAIL" if errors else "ok  ", workload, trace,
                                        "".join("\n    " + e for e in errors)))
            failures += bool(errors)
    errors = check_bare_directory()
    print("%s refuses to run without sources%s" % ("FAIL" if errors else "ok  ",
                                                   "".join("\n    " + e for e in errors)))
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
