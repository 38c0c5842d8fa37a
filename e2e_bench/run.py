#!/usr/bin/env python3
"""Build and run the SiEVE end-to-end benchmark.

Usage (from the root of a source checkout):

    python3 e2e_bench/run.py --workload live_encode --seed 1 --seconds 25 --trace 0

Builds the library and the benchmark program into .bench_build (or
$CARGO_TARGET_DIR when set, relative to the checkout) with CMake, then runs
the program with the same arguments. Its last stdout line is the result
JSON. Exits non-zero, printing no result, when the checkout has no sources
to build or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("e2e_bench: no SiEVE sources next to the benchmark; "
                 "run it from a full source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result stream.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2e_bench: build failed: " + " ".join(cmd))


def main():
    out = build_dir()
    build(out)
    binary = os.path.join(out, "e2e_bench")
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", os.path.join(out, "work")]
    done = subprocess.run([binary] + args, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
