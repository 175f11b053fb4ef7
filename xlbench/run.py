#!/usr/bin/env python3
"""Build and run one run of the repository benchmark.

    python3 xlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 xlbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (Release) under $CARGO_TARGET_DIR (default .bench_build); later
calls rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the benchmark's result object. A traced run (--trace 1) writes
its spans as Chrome trace-event JSON under <build dir>/traces/.

--selftest builds and runs the unit tests of the statistics helpers (C++
and the Python spread helpers in spread.py).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(target):
    """Configure (once) and build `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("xlbench: no CrossLight sources next to the benchmark; "
                 "run from a full checkout")
    bdir = os.path.join(build_root(), "xlbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return bdir


def run_child(cmd):
    """Run `cmd` with stdout passed through; kill it on timeout."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("xlbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            bdir = build("xlbench_stats_test")
            code = run_child([os.path.join(bdir, "xlbench_stats_test")])
            unit = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_spread"],
                                  cwd=HERE)
            return code or unit.returncode
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        bdir = build("xlbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print("xlbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [os.path.join(bdir, "xlbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run_child(cmd)


if __name__ == "__main__":
    sys.exit(main())
