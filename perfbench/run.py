#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Every call configures `perfbench/` (which compiles the engine's modules
from `src/`) as a Release build with no extra compiler flags, in
`.bench_build/`, or in `$CARGO_TARGET_DIR` when that is set, and builds
it; a build tree configured otherwise is reset to that, and later calls
only rebuild what changed. Build output goes to stderr.

Standard output is three JSON lines: the host the run measured on, the
driver's report (every metric with its unit and sample count, plus the
run's facts and first failures), and last the result object
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run,
whose spans go to `.bench_build/spans/<workload>.csv`.

Exits non-zero if the build fails, the engine sources are missing, the
run does not finish, the binary reports a build type other than
Release, or any output check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(configured)
    return path if path.is_absolute() else ROOT / path


def build(out):
    if not (ROOT / "src" / "engine" / "minidb.h").is_file():
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS="],
             ["cmake", "--build", str(out), "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over src/ and perfbench/ sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(report):
    """The host and build the run measured; the build type is the one
    the binary was compiled with, as its report states."""
    return {"host": {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "build_type": report.get("build_type"),
        "release_build": report.get("release_build") is True,
        "compiler": report.get("compiler"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "device_latency": "none simulated; in-memory disk and log",
        "network": "loopback TCP",
    }}


def run_checked(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    if not build(out):
        return 2
    if args.self_test:
        code, stdout = run_checked([str(out / "perfbench_tests")])
        sys.stdout.write(stdout)
        return code

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--span-out", str(spans / (args.workload + ".csv"))]
    code, stdout = run_checked(cmd)
    lines = stdout.strip().splitlines()
    if not lines:
        print("perfbench: the run printed no result", file=sys.stderr)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: the last line is not a result object",
              file=sys.stderr)
        return code or 1
    report = {}
    if len(lines) > 1:
        try:
            report = json.loads(lines[0]).get("report", {})
        except json.JSONDecodeError:
            pass
    host = host_record(report)
    print(json.dumps(host))
    for line in lines:
        print(line)
    if code == 0 and not result.get("correct"):
        code = 1
    if code == 0 and not host["host"]["release_build"]:
        print("perfbench: not a Release build (%s); its figures are not "
              "comparable" % host["host"]["build_type"], file=sys.stderr)
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
