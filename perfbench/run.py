#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark.

    python3 perfbench/run.py --workload compile|exec|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, the confccd daemon
and the perfbench program from source under .bench_build/ (build output goes
to stderr), runs the workload in a scratch directory that is removed
afterwards, and passes the program's report through: the last line of
standard output is the JSON result. `--workload all` runs the three
workloads in turn and prints each result line.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("compile", "exec", "serve")


def build(build_dir):
    for src in ("CMakeLists.txt", "src", "bench", "tools"):
        if not os.path.exists(src):
            sys.exit(f"perfbench: no repository sources here (missing {src}); "
                     "run from the root of a checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "confccd"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_workload(args, build_dir, workload):
    work = os.path.join(".bench_build", f"work-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work,
           "--confccd", os.path.join(build_dir, "repo", "confccd"),
           "--spans", os.path.join(".bench_build", f"spans-{workload}.json")]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(".bench_build", "perfbench")
    build(build_dir)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        sys.stdout.flush()
        rc = run_workload(args, build_dir, workload)
        if rc != 0:
            sys.exit(rc)


if __name__ == "__main__":
    main()
