#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the SPFE library.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload <survey_1s|table1|survey_ks> \\
        --seed <n> --seconds <s> --trace <0|1>

The first call compiles ../src and the perfbench binary with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
calls only rebuild what changed. It then runs the binary (perfbench/main.cpp
describes what one run measures), prints its human-readable lines, one
"context" line and, as the last line of stdout, the binary's result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; the names are checked against BENCHMARK.json. The context
line records what makes a noisy period recognisable afterwards: the source
revision, CPU model, online CPUs, the pinned thread count, the load average
and the share of CPU time stolen by the hypervisor during the run (from
/proc/stat). Each result is also appended, with its context, to
results.jsonl in the build directory.

Seed 9001 is held out: no workload was tuned on it, so a later claim can be
checked on it as well as on the seeds it was developed with.

The exit code is 0 only when the build succeeded and every query of the run
matched the plaintext oracle; a tree without the library sources fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log in %s)" % log_path)
    return build_dir


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    # user nice system idle iowait irq softirq steal (guest time is already
    # included in user and nice).
    values = [int(v) for v in fields[:8]]
    return sum(values), values[7]


def source_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def source_digest():
    """SHA-256 over the library and benchmark sources (for trees without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s" % os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build_dir = build()

    load_before = os.getloadavg()
    total0, steal0 = cpu_times()
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("perfbench did not finish within %d s" % BINARY_TIMEOUT_S)
    total1, steal1 = cpu_times()
    load_after = os.getloadavg()

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("perfbench exited with %d and printed no result" % proc.returncode)

    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        sys.stdout.write(out)
        fail("perfbench metrics %s differ from BENCHMARK.json %s" % (sorted(result["metrics"]),
                                                                  sorted(expected)))

    header = lines[0].split()
    threads = next((int(f.split("=")[1]) for f in header if f.startswith("threads=")), None)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": source_revision(), "source_sha256": source_digest(),
        "cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)), "threads": threads,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
        "unix_time": time.time(),
    }
    with open(os.path.join(build_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"context": context, "result": result}) + "\n")

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print("context " + json.dumps(context))
    print(lines[-1])
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
