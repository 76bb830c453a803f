#!/usr/bin/env python3
"""Run the end-to-end benchmark on a set of seeds and report its spread.

    python3 perfbench/spread.py run SEEDS OUT.json [WORKLOAD,...]
    python3 perfbench/spread.py report SET_A.json [SET_B.json]

`run` runs every workload of BENCHMARK.json (or the ones named) once per
seed (`101-110` or `1,5,9`) with `--trace 0` and `run_seconds`, and writes
each run's metrics to OUT.json as it goes. `report` prints, per workload,
every run's figures as a markdown table with the median and the spread of
each metric (first to third quartile over the median, as
`statistics.quantiles(values, n=4)` gives them), and, given two sets, how
much worse the second set's median is than the first's, next to the
metric's bound. This is how `RUNS.md` was made.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(seeds, out_path, workloads):
    bench = load_bench()
    names = workloads or [w["name"] for w in bench["workloads"]]
    res = {}
    for w in names:
        rows = res.setdefault(w, [])
        for seed in seeds:
            t = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"spread: {w} seed {seed} exited {p.returncode}:\n{p.stderr[-3000:]}")
            d = json.loads(p.stdout.strip().splitlines()[-1])
            rows.append({"seed": seed, "wall": time.time() - t, "attempted": d["attempted"],
                         "failed": d["failed"], **{k: v["value"] for k, v in d["metrics"].items()}})
            print(w, seed, {k: round(v["value"], 4) for k, v in d["metrics"].items()}, flush=True)
            with open(out_path, "w") as f:
                json.dump(res, f, indent=1)


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def report(paths):
    bench = load_bench()
    metrics = bench["end_to_end"]
    sets = []
    for p in paths:
        with open(p) as f:
            sets.append(json.load(f))
    for w in (x["name"] for x in bench["workloads"]):
        if not all(w in s for s in sets):
            continue
        print(f"### `{w}`\n")
        for i, runs in enumerate(s[w] for s in sets):
            print(f"Set {'AB'[i]}: seeds {runs[0]['seed']}-{runs[-1]['seed']}, "
                  f"{sum(r['attempted'] for r in runs)} attempted, {sum(r['failed'] for r in runs)} failed, "
                  f"longest run {max(r['wall'] for r in runs):.1f} s.\n")
            print("| seed | " + " | ".join(m["name"] for m in metrics) + " |")
            print("|---|" + "---|" * len(metrics))
            for r in runs:
                print(f"| {r['seed']} | " + " | ".join(fmt(r[m["name"]]) for m in metrics) + " |")
            col = lambda m: [r[m["name"]] for r in runs]
            print("| median | " + " | ".join(fmt(statistics.median(col(m))) for m in metrics) + " |")
            print("| spread | " + " | ".join(f"{spread(col(m)):.3f}" for m in metrics) + " |\n")
        two = len(sets) == 2
        print("| metric | bound | " + " | ".join(f"spread {'AB'[i]}" for i in range(len(sets)))
              + (" | median B/A | B worse by |" if two else " |"))
        print("|---|---|" + "---|" * len(sets) + ("---|---|" if two else ""))
        for m in metrics:
            vals = [[r[m["name"]] for r in s[w]] for s in sets]
            line = f"| `{m['name']}` | {m['bound']} | " + " | ".join(f"{spread(v):.3f}" for v in vals)
            if two:
                a, b = statistics.median(vals[0]), statistics.median(vals[1])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                line += f" | {b / a:.3f} | {max(worse, 0.0):.3f}"
            print(line + " |")
        print()


def main():
    args = sys.argv[1:]
    if len(args) in (3, 4) and args[0] == "run":
        run(parse_seeds(args[1]), args[2], args[3].split(",") if len(args) == 4 else None)
    elif len(args) in (2, 3) and args[0] == "report":
        report(args[1:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
