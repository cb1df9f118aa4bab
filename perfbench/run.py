#!/usr/bin/env python3
"""Builds and runs the serving benchmark for one workload.

    python3 perfbench/run.py --workload lj-index --seed 7 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the cod
library and perfbench/serving_bench.cc (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.

--trace 0 runs the workload once and prints its end-to-end metrics.
--trace 1 runs it twice, each in its own process and for half of --seconds,
so that both fit in the time one call may take: untraced, then with layer
spans recorded. It prints the per-layer metrics of the traced run plus
overhead.<metric> = traced minus untraced for every end-to-end metric.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it holds the run's provenance. Build logs
and progress go to stderr. Exit status is 0 only when the build, the run and
every answer-correctness gate succeeded.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lj-index", "cora-churn")
# Each invocation of this script must end within 180 s; a traced call runs
# the workload twice.
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds serving_bench; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "serving_bench", "-j", "3"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "serving_bench")


def commit_id():
    """HEAD of a git checkout rooted here, else $GIT_COMMIT, else unknown."""
    # Stop git from searching above the working directory.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False, env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return os.environ.get("GIT_COMMIT", "unknown")


def run_child(binary, args, seconds, commit, trace, work_dir, deadline):
    """Runs one workload process; returns its parsed RESULT object or None."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir, "--commit", commit]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("serving_bench timed out")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if result is None:
        log("serving_bench exited %d without a result" % proc.returncode)
    elif proc.returncode != 0:
        log("serving_bench exited %d" % proc.returncode)
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work_dir = os.path.join(build_root, "runs", "%s-%d" % (args.workload,
                                                           os.getpid()))
    commit = commit_id()
    seconds = args.seconds / 2 if args.trace else args.seconds
    runs = [run_child(binary, args, seconds, commit, False, work_dir, deadline)]
    if args.trace:
        runs.append(
            run_child(binary, args, seconds, commit, True, work_dir, deadline))
    if any(r is None for r in runs):
        return 1

    final = runs[-1]
    if args.trace:
        metrics = dict(final["layers"])
        for name, m in runs[0]["metrics"].items():
            metrics["overhead." + name] = {
                "value": final["metrics"][name]["value"] - m["value"],
                "unit": m["unit"]}
    else:
        metrics = final["metrics"]
    correct = all(r["correct"] for r in runs)
    print("provenance " + json.dumps(final["provenance"]))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
