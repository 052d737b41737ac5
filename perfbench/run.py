#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload reorder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the benchmark (a Go module of its own in this directory) and the
localitylab binary the serve workload starts, with every Go cache inside
.bench_build, then runs the benchmark with the given arguments. Exits
non-zero, printing no result, when either build fails.
"""
import os
import subprocess
import sys

BUILD = ".bench_build"
# A run ends within 180 s; the benchmark stops itself at 170 s.
RUN_TIMEOUT_S = 178


def main():
    build = os.path.abspath(BUILD)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(build, exist_ok=True)
    bench = os.path.join(build, "perfbench")
    for cmd, cwd in (
        (["go", "build", "-o", bench, "."], "perfbench"),
        (["go", "build", "-o", os.path.join(build, "localitylab"), "./cmd/localitylab"], "."),
    ):
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return 2
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)} in {cwd}", file=sys.stderr)
            return 2
    try:
        return subprocess.run([bench] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
