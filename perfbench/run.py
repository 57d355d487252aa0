#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-default --seed 1 --seconds 20 --trace 0

Builds the harness and the repository's libraries from source into
.bench_build/ (a no-op when up to date), runs the workload, checks that
the result names exactly the metrics BENCHMARK.json declares for the
mode (end-to-end with --trace 0, per-layer with --trace 1), and prints
the harness output with the result object last. With --trace 1 a
Chrome trace-event file is written to .bench_build/traces/.

Extra flags: --smoke (tiny sizes), --corrupt-golden (flip one recorded
digest, to see the checker fail), --record-goldens (recompute
perfbench/goldens.txt).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
GOLDENS = os.path.join("perfbench", "goldens.txt")
HARNESS_TIMEOUT_S = 170

# Settings that would change what the harness measures: a shared cache
# directory or a disabled store, the I/O chaos shim, test hooks.
SCRUBBED_ENV = ("TG_CACHE", "TG_CACHE_DIR", "TG_CACHE_MEM_MB",
                "TG_IO_FAULTS", "TG_SHARD_TEST_DIE", "TG_SERVE_SOCKET")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the harness target (stderr only)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


SOURCES = ("src", "CMakeLists.txt")


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def revision():
    """Git commit, with the source digest appended when the sources have
    uncommitted changes; the digest alone outside a git checkout."""
    if os.path.isdir(".git") and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--"]
                                + list(SOURCES),
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            rev = head.stdout.strip()
            if status.stdout.strip():
                rev += "-dirty-" + source_digest()
            return rev
    return "src-" + source_digest()


def load_spec():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(trace):
    return {m["name"]: m["unit"]
            for m in load_spec()["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, wrong))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-golden", action="store_true")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found in %s" % ROOT)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    build()

    cmd = [HARNESS]
    if args.record_goldens:
        cmd += ["--record-goldens", GOLDENS]
    else:
        if not args.workload:
            fail("--workload is required")
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--goldens", GOLDENS, "--revision", revision(),
                "--work-dir", os.path.join(".bench_build", "work")]
        if args.smoke:
            cmd.append("--smoke")
        if args.corrupt_golden:
            cmd.append("--corrupt-golden")
        if args.trace:
            os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                ".bench_build", "traces",
                "%s-seed%d.json" % (args.workload, args.seed))]

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=None if args.record_goldens
                              else HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("harness exited with %d" % proc.returncode)
    if args.record_goldens:
        sys.stdout.write(proc.stdout)
        return
    validate(lines[-1], args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
