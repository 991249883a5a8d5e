#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarizes the results.

  python3 bench/series.py run --out runs.jsonl --workloads commute,metro-hmm \\
      --seeds 101-110 [--trace] [--seconds 20] [CHECKOUT ...]
  python3 bench/series.py summary runs.jsonl [more.jsonl ...]

`run` invokes `bash bench/run.sh` in each checkout directory (default: the
current one) once per workload and seed, and appends one JSON line per
run to --out. Given two checkouts, the parent first and then the change,
it alternates them within each pair and swaps which side goes first from
one pair to the next. Checkouts are labelled by their directory names,
which must differ.

`summary` prints, per checkout, workload and metric, the median, the
quartiles and the spread (quartile distance over median). Given two
checkouts it also compares them pair by pair: the change wins a pair when
its value is better in the direction BENCHMARK.json gives, and a gain is
claimed only when the change wins at least nine tenths of the pairs and
the medians differ by more than the parent's quartile distance.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args):
    dirs = args.checkouts or ["."]
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for i, seed in enumerate(seeds(args.seeds)):
                order = dirs if i % 2 == 0 else dirs[::-1]
                for d in order:
                    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
                    t0 = time.time()
                    p = subprocess.run(cmd, cwd=d, capture_output=True, text=True)
                    lines = p.stdout.strip().splitlines()
                    rec = {"checkout": os.path.basename(os.path.abspath(d)), "workload": workload,
                           "seed": seed, "trace": args.trace, "exit": p.returncode,
                           "wall_s": round(time.time() - t0, 1),
                           "result": json.loads(lines[-1]) if lines else None}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(f"{rec['checkout']} {workload} seed {seed}: exit {p.returncode}, {rec['wall_s']}s",
                          file=sys.stderr)


def better(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(args):
    recs = [json.loads(line) for path in args.files for line in open(path) if line.strip()]
    direction = better(args.benchmark)
    groups, seen = {}, {}
    for r in recs:
        if r["result"] is None or not r["result"]["correct"]:
            print(f"failed run: {r['checkout']} {r['workload']} seed {r['seed']} exit {r['exit']}")
            continue
        # A pair is the same seed's n-th run on each side.
        run_key = (r["checkout"], r["workload"], r["trace"], r["seed"])
        seen[run_key] = seen.get(run_key, 0) + 1
        for name, m in r["result"]["metrics"].items():
            key = (r["workload"], r["trace"], name)
            groups.setdefault(key, {}).setdefault(r["checkout"], {})[(r["seed"], seen[run_key])] = m["value"]
    checkouts = list(dict.fromkeys(r["checkout"] for r in recs))  # parent first
    print(f"{'workload':12} {'metric':28} {'checkout':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for (workload, trace, name), by in sorted(groups.items()):
        for c in checkouts:
            vs = list(by.get(c, {}).values())
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:12} {name:28} {c:12} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}")
        if len(checkouts) == 2 and name in direction:
            parent, change = (by.get(c, {}) for c in checkouts)
            common = sorted(set(parent) & set(change))
            if len(common) < 2:
                continue
            sign = 1 if direction[name] == "higher" else -1
            wins = sum(sign * (change[s] - parent[s]) > 0 for s in common)
            pq1, pmed, pq3 = statistics.quantiles([parent[s] for s in common], n=4)
            cmed = statistics.median([change[s] for s in common])
            gain = wins >= 0.9 * len(common) and abs(cmed - pmed) > pq3 - pq1
            print(f"{'':12} {'':28} {checkouts[1]} wins {wins}/{len(common)} pairs against {checkouts[0]}; "
                  f"median change {(cmed - pmed) / pmed:+.3f}; gain {'claimed' if gain else 'not shown'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--seconds", type=int, default=20)
    r.add_argument("--trace", action="store_true")
    r.add_argument("checkouts", nargs="*")
    s = sub.add_parser("summary")
    s.add_argument("--benchmark", default="BENCHMARK.json")
    s.add_argument("files", nargs="+")
    args = ap.parse_args()
    run(args) if args.cmd == "run" else summary(args)


if __name__ == "__main__":
    main()
