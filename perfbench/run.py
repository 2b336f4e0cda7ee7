#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the library sources in
src/ plus the dws_bench driver) into .bench_build/; later calls reuse that
build. The full result document, with the host fingerprint, sample counts
and (for --trace 1) the recorded spans, is written to
.bench_build/results/.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dws_bench")
WORKLOADS = ("solo-cholesky", "corun-fft-mergesort", "sim-fig4")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; waits for it even on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def build(deadline):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        deadline - time.monotonic())
        if rc != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_logged(["cmake", "--build", BUILD, "--target", "dws_bench",
                     "-j", jobs], deadline - time.monotonic())
    return rc == 0


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over src/ and perfbench/: names the measured code without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "runtime", "scheduler.hpp")):
        log("perfbench: the library sources (src/) are not in this checkout")
        return 2
    start = time.monotonic()
    if not build(start + BUILD_TIMEOUT_S):
        log("perfbench: build failed")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: dws_bench timed out")
        return 1
    try:
        doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("perfbench: dws_bench printed no result (exit %d)" % proc.returncode)
        return 1

    doc["host"]["git_commit"] = git_commit()
    doc["host"]["source_digest"] = source_digest()
    doc["host"]["seed"] = args.seed
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    out_path = os.path.join(results, "%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1)

    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in doc["metrics"].items()}
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in metrics.items()}
    correct = proc.returncode == 0 and doc["failed"] == 0 and got == want
    if got != want:
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(want.items())))
    for why in doc["failures"]:
        log("perfbench: failed: " + why)

    print(json.dumps({"host": doc["host"], "samples": doc["samples"],
                      "result_file": os.path.relpath(out_path, ROOT)}))
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
