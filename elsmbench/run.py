#!/usr/bin/env python3
"""Build and run the eLSM benchmark program.

Run from the repository root:

    python3 elsmbench/run.py --workload hot-get --seed 1 --seconds 10 --trace 0
    python3 elsmbench/run.py --selftest

The program (elsmbench/elsmbench.cc) is compiled together with elsm_core from
the repository's sources into $CARGO_TARGET_DIR/elsmbench (default
.bench_build/elsmbench). Stores live under .bench_work/ for the duration of
a run and are removed at exit; a traced run (--trace 1) leaves its spans in
.bench_trace/<workload>-<seed>.tsv. The last line of stdout is the program's
JSON result; build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys


def build(root):
    src = os.path.join(root, "elsmbench")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "elsmbench")
    out = os.path.join(root, out) if not os.path.isabs(out) else out
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "elsmbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            print("elsmbench: run from the repository root (missing %s)"
                  % needed, file=sys.stderr)
            return 2
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        print("elsmbench: build failed: %s" % e, file=sys.stderr)
        return 1

    name = "selftest" if args.selftest else args.workload
    workdir = os.path.join(root, ".bench_work", "%s-%d" % (name, os.getpid()))
    cmd = [binary, "--workdir", workdir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            trace_dir = os.path.join(root, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                trace_dir, "%s-%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still has its stores there


if __name__ == "__main__":
    sys.exit(main())
