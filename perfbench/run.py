#!/usr/bin/env python3
"""End-to-end benchmark of the GOOD server and rule engine.

Run from the root of the source tree:

    python3 perfbench/run.py --workload commit_heavy --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the database libraries, the good_server example and
the driver) in Release under $CARGO_TARGET_DIR (default .bench_build),
then runs one workload. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced in-process run with
--trace 1 (its spans go to <build dir>/traces/). The driver's
human-readable summary goes to stderr. The exit code is non-zero when
the build fails or any answer is wrong.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("commit_heavy", "query_heavy", "rules_fixpoint")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that takes longer than this is reported as a failure.
RUN_TIMEOUT_S = 170


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench_driver", "good_server_bin"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    for needed in ("src/CMakeLists.txt", "examples/good_server.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found: run from a GOOD source tree",
                  file=sys.stderr)
            return 2

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    work = os.path.join(build_root, f"work-{os.getpid()}")
    trace_file = os.path.join(build_root, "traces",
                              f"{args.workload}-seed{args.seed}.json")
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--trace-file", trace_file]
    # Own process group, so a timeout also takes down the server the
    # driver spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        try:  # whatever the driver left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
