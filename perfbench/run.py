#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures and builds perfbench/ (a CMake
package that compiles the compiler sources next to it) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), runs the harness self-tests, then
runs one workload. Build output goes to stderr; the benchmark's report goes
to stdout, whose last line is the JSON result. Exits non-zero, printing no
result, when the build, the self-tests or the run fail.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-cold", "serve-mixed", "run-vm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout the whole group (a
    build's compiler processes too) is killed and waited for."""
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                                text=True, start_new_session=True)
    except OSError as err:
        fail("%s: %s" % (" ".join(cmd), err))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s: timed out after %d s" % (" ".join(cmd), timeout))
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return out


def call(cmd, timeout):
    run(cmd, timeout, sys.stderr)


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    call(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
          "perfbench_selftest"], BUILD_TIMEOUT_S)
    call([os.path.join(build_dir, "perfbench_selftest")], 60)


def with_units(measured, trace):
    """Gives every metric BENCHMARK.json lists for this mode its unit.
    A per-layer metric the workload did not measure is a layer it
    bypasses and reads 0; a missing end-to-end metric or a name the file
    does not list is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in spec}
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(unknown)))
    metrics = {}
    for m in spec:
        if m["name"] not in measured and not trace:
            fail("end-to-end metric %s was not reported" % m["name"])
        metrics[m["name"]] = {"value": measured.get(m["name"], 0),
                              "unit": m["unit"]}
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "trace-%s-seed%d.json"
                             % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "%g" % args.seconds,
           "--trace", args.trace, "--trace-out", trace_out]
    out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1])
    result["metrics"] = with_units(result.get("metrics", {}),
                                   args.trace == "1")
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
