#!/usr/bin/env python3
"""Builds `anc` and the benchmark in release mode, then runs one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. Cargo's output goes to standard
error; the benchmark prints its metrics, and as its last line of standard
output one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Build output lands in `$CARGO_TARGET_DIR` (default `.bench_build`), scratch
files in `.bench_work`; neither the workspace manifest nor its lockfile is
touched (both builds run with `--locked`).
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "anc-cli", "--bin", "anc"],
        ["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--locked", *args]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("servebench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join("crates", "cli", "Cargo.toml")):
        sys.exit("servebench: run this from the root of the anc repository")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "servebench"),
        *sys.argv[1:],
        "--anc", os.path.join(release, "anc"),
        "--work", os.path.abspath(".bench_work"),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
