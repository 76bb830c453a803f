#!/usr/bin/env python3
"""Smoke check of the benchmark harness itself, at a tiny input size.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that:
  * an end-to-end run and a traced run each print a result line with
    exactly the declared metrics, each with its declared unit, every
    operation passing;
  * two runs at the same seed pass the same correctness digest;
  * a forced correctness mismatch (--break-gate) fails the run: non-zero
    exit and no result line.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check(cond, msg):
    if not cond:
        sys.exit(f"smoke: FAILED: {msg}")


def result(out, what):
    check(out.returncode == 0, f"{what} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    check(lines and lines[0].startswith("host {"), f"{what}: no host fingerprint line")
    host = json.loads(lines[0][len("host "):])
    for key in ("nproc", "threads", "cpu", "rustc", "git_sha", "kdprof_timing"):
        check(key in host, f"{what}: host line lacks {key}")
    return host, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for wl in (w["name"] for w in bench["workloads"]):
        digests = []
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            what = f"{wl} --trace {trace}"
            out = run(wl, trace)
            host, res = result(out, what)
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(res)}")
            check(res["correct"] is True and res["attempted"] >= 1 and res["failed"] == 0,
                  f"{what}: correct/attempted/failed = {res['correct']}/{res['attempted']}/{res['failed']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == want, f"{what}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                  f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
            if trace == 0:
                check(host["kdprof_timing"] is False, f"{what}: kdprof span timing is compiled in")
                check(all(m["value"] > 0 for m in res["metrics"].values()),
                      f"{what}: an end-to-end metric reads 0")
            digests += re.findall(r"gate: digest=([0-9a-f]+)", out.stderr)
        check(len(set(digests)) <= 1, f"{wl}: digests differ across runs at one seed: {digests}")
        broken = run(wl, 0, "--break-gate")
        check(broken.returncode != 0, f"{wl}: a forced mismatch still exited 0")
        check('"metrics"' not in broken.stdout, f"{wl}: a forced mismatch still printed a result")
        print(f"smoke: {wl} ok")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
