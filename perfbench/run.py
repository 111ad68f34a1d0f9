#!/usr/bin/env python3
"""Campaign-engine benchmark: one command for every workload.

    python3 perfbench/run.py --workload table2_1t|defense_2t|service_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the perfbench binary and
campaign_server from source (Release) under .bench_build/perfbench, runs
one workload in a fresh run directory under .bench_build/run, and
prints its output; the last line is the result JSON
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero when the
source tree is missing, the build fails, or any correctness check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
WORKLOADS = ("table2_1t", "defense_2t", "service_mixed")
DEFAULT_SEED = 20200613
DEFAULT_SECONDS = 25  # BENCHMARK.json's run_seconds
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and (re)builds the two binaries; output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no source tree next to perfbench/ (need CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "campaign_server", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                die("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "robotack", "examples", "campaign_server"))


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "pins.json")) as f:
        pin = json.load(f).get(workload)
    return pin["digest"] if pin and pin["seed"] == seed else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary, server = build()
    run_dir = os.path.join(WORK, "run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--commit", commit()]
    digest = pinned_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, perfbench's clock too
    proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)], cwd=run_dir,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        try:  # anything perfbench left behind in its process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if proc.returncode not in (0, 1) or not ok:
        sys.stdout.write(out)
        die(f"perfbench exited with {proc.returncode} and no result", 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
