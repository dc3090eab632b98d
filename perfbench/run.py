#!/usr/bin/env python3
"""Build and run the sublineardp benchmark (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary. The build keeps its Go
cache, module cache and binary under .bench_build/ in the current directory
(CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
Exits 2 without a result when the sublineardp module is not beside this
directory or the build fails.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    module_dir = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(module_dir, "go.mod")):
        print("perfbench: the sublineardp module (go.mod) is not beside perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build_dir, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
