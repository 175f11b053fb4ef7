#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 xlbench/spread.py [--workloads cnn-accuracy,serve-open] [--seeds 1-10]
                              [--trace 0] [--save out.json] [--compare base.json]

Runs seed-major (every workload for seed 1, then for seed 2, ...) so slow
drifts of the machine spread over all workloads. For every workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
End-to-end spreads are compared with the metric's bound in BENCHMARK.json
(setup_s is exempt). --compare takes an earlier --save file and reports each
metric's median change against it, signed so that positive is worse.

Exit status is non-zero when a run failed or a spread exceeded its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def iqr_share(values):
    """(q3 - q1) / median of `values` (at least two), as the contract defines it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, new, better):
    """Share by which `new` is worse than `base`; negative when it is better."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def parse_seeds(text):
    """'1-10' or '1,4,9' -> list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",") if x]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = parse_seeds(args.seeds)

    values = {w: {} for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            result = run_once(w, seed, bench["run_seconds"], args.trace)
            if result is None:
                print("run FAILED: %s seed %d" % (w, seed))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print("ran %s seed %d" % (w, seed), flush=True)

    base = {}
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)["medians"]
    medians = {}
    for w in workloads:
        print("\n== %s (%d seeds)" % (w, len(seeds)))
        medians[w] = {}
        for name, vals in values[w].items():
            spec = specs.get(name, {})
            med = statistics.median(vals)
            medians[w][name] = med
            line = "%-28s median %14.6g" % (name, med)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = iqr_share(vals)
                line += "  q1 %12.6g  q3 %12.6g  spread %6.3f" % (q1, q3, spread)
                bound = spec.get("bound")
                if bound is not None and name != "setup_s":
                    verdict = "ok" if spread <= bound / 3 else (
                        "WIDE" if spread <= bound else "OVER")
                    line += " / bound %.2f %s" % (bound, verdict)
                    ok = ok and spread <= bound
            if name in base.get(w, {}) and "better" in spec:
                change = worse_by(base[w][name], med, spec["better"])
                line += "  vs base %+.3f%s" % (
                    change, " REGRESSED" if "bound" in spec and change > spec["bound"] else "")
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seeds": seeds, "medians": medians, "values": values}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
