#!/usr/bin/env python3
"""Build and run the DGR end-to-end benchmark.

    python3 benchmark/run.py --workload congested --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `dgr` CLI and the benchmark
harness (benchmark/Cargo.toml) in release mode into $CARGO_TARGET_DIR
(default: .bench_build), then runs the harness with the given arguments.
The last line of standard output is the JSON result. Exits non-zero, without
a result, if either build fails.
"""

import argparse
import os
import subprocess
import sys

# A run must finish well inside three minutes; a hung run is killed.
HARNESS_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["congested", "uncongested_9l", "dgrd_small"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not (build(target, os.path.join(ROOT, "Cargo.toml"), ["--bin", "dgr"])
            and build(target, os.path.join(HERE, "Cargo.toml"), [])):
        print("error: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "dgr-e2e-bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--dgr-bin", os.path.join(release, "dgr"),
               "--work-dir", os.path.join(target, "e2e-work")]
    try:
        return subprocess.run(harness, cwd=ROOT, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: harness exceeded %d s" % HARNESS_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
