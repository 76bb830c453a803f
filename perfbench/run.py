#!/usr/bin/env python3
"""Build and run the end-to-end benchmark, one workload per process.

    python3 perfbench/run.py --workload learn|serve|stream --seed N \
        --seconds S --trace 0|1 [--scale full|tiny] [--break-gate]

Run it from the repository root. It builds `perfbench/` (its own cargo
workspace, path dependencies on `crates/`) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the binary, which
prints a `host` fingerprint line and, last, one JSON result line. The exit
code is the binary's; a failed build or correctness gate exits non-zero
without a result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def probe(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print(f"perfbench: no KDSelector sources next to {HERE}", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = probe(["rustc", "--version"])
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    env["PERFBENCH_GIT_SHA"] = probe(["git", "rev-parse", "HEAD"]) if has_git else "unknown"
    # One malloc arena: with glibc's per-thread arenas, serve's peak RSS
    # moved 18-23 MB between runs of the same code; with one, under 1%.
    env["MALLOC_ARENA_MAX"] = "1"
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
