#!/usr/bin/env python3
"""Builds the server binary and the benchmark binary, then runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload small-http --seed 1 --seconds 20 --trace 0

Build output goes to stderr; the benchmark binary's last stdout line is the result
JSON. Set CARGO_TARGET_DIR to choose the build directory (default
`.bench_build`).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target_dir, "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "lddp-cli")
    build(target_dir, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target_dir, "release")
    bench = os.path.join(release, "lddp-perfbench")
    cli = os.path.join(release, "lddp-cli")
    out_dir = os.path.join(HERE, "out")
    done = subprocess.run([bench, "--cli", cli, "--out-dir", out_dir, *sys.argv[1:]], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
