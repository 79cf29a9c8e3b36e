"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3,4,5] [--trace 0]

Runs perfbench/run.sh once per seed for BENCHMARK.json's run_seconds and
prints, per metric, the median and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound.  Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, ok = {}, True
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        t0 = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.time() - t0
        if out.returncode != 0:
            sys.exit("seed %s: exit %d\n%s" % (seed, out.returncode, out.stderr))
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        # the raw (unscaled) times and the host reference loop, for comparison
        for line in lines:
            if line.startswith("host "):
                for tok in line.split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        key = "raw." + k if k in ("setup_s", "ns_per_op", "latency_p50_ms", "latency_p99_ms") else k
                        values.setdefault(key, []).append(float(v))
        ok &= res["correct"]
        print("seed %s: %.1fs correct=%s attempted=%d failed=%d %s" % (
            seed, elapsed, res["correct"], res["attempted"], res["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items()
                     if args.trace == "0")), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        b = bounds.get(k)
        flag = "" if b is None else ("  bound %.2f%s" % (b, "  OVER" if spread > b else
                                                          ("  >1/3" if spread > b / 3 else "")))
        print("%-36s median %-14.6g spread %6.2f%%%s" % (k, med, 100 * spread, flag))
    if not ok:
        sys.exit("some run reported correct=false")


if __name__ == "__main__":
    main()
