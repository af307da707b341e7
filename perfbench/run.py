#!/usr/bin/env python3
"""Entry point of the SCAN layer-attributed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark (perfbench/CMakeLists.txt, Release, which compiles the
platform from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload. The last
line of standard output is the JSON result; build output goes to standard
error. The exit code is the benchmark's: non-zero when a correctness check
fails or the sources are missing.

--self-test runs every workload of BENCHMARK.json once at a tiny size, with
tracing off and on, and checks that the metric names and units printed
match BENCHMARK.json exactly.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_to_stderr(cmd):
    sys.stderr.flush()
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: '%s' failed with code %d"
                 % (" ".join(cmd), result.returncode))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: platform sources not found at %s"
                 % os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_to_stderr(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_to_stderr(["cmake", "--build", out, "--target", "perfbench",
                   "-j", jobs])
    return os.path.join(out, "perfbench")


def workload_args(binary, workload, seed, seconds, trace):
    return [binary, "--workload=%s" % workload, "--seed=%d" % seed,
            "--seconds=%s" % seconds, "--trace=%d" % trace,
            "--out-dir=%s" % build_dir()]


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = workload_args(binary, workload, 1, 0.001, trace) + ["--tiny"]
            result = subprocess.run(cmd, capture_output=True, text=True,
                                    timeout=170)
            where = "%s trace=%d" % (workload, trace)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (where, result.returncode,
                                                     result.stderr))
                continue
            line = json.loads(lines[-1])
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(line)))
            if line.get("correct") is not True:
                problems.append("%s: correct is not true" % where)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            units = sorted(n for n in got if n in expected[trace]
                           and got[n] != expected[trace][n])
            for label, names in (("missing", missing), ("extra", extra),
                                 ("unit mismatch", units)):
                if names:
                    problems.append("%s: %s metrics %s" % (where, label, names))
            print("self-test %-26s %d metrics" % (where, len(got)))
    for p in problems:
        print("SELF-TEST FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.self_test:
        return self_test(binary)
    sys.stdout.flush()
    result = subprocess.run(workload_args(binary, args.workload, args.seed,
                                          args.seconds, args.trace))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
