#!/usr/bin/env python3
"""The repository benchmark: builds qf_perfbench from this checkout, runs
one workload, checks its answers, and prints its metrics.

    python3 perfbench/run.py --workload mine_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # the benchmark's own tests

Run it from the root of a checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"), with --trace 1 the per-layer ones. Earlier lines carry
provenance and details (tail percentiles and sample counts, per-kind
medians, the host-speed kernel). The build lives in .bench_build/perfbench
and each run's raw record in .bench_build/runs/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
BINARY = BUILD / "qf_perfbench"
WORKLOADS = ("mine_mix", "served_append", "spill_reopen")

sys.path.insert(0, str(HERE))
import analyze  # noqa: E402


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to stderr.
    Returns True when this was the checkout's first build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ beside perfbench/: run from the root of a full checkout")
    first = not BINARY.is_file()
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "qf_perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=850)
    return first


def source_digest():
    """sha256 over the engine and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_driver(workload, seed, seconds, trace, tiny, timeout):
    RUNS.mkdir(parents=True, exist_ok=True)
    out = RUNS / "{}-{}-{}{}.json".format(workload, seed, trace,
                                          "-tiny" if tiny else "")
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        fail("qf_perfbench exited with {}".format(proc.returncode))
    with open(out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    started = time.monotonic()
    try:
        first_build = build()
    except (subprocess.SubprocessError, OSError) as e:
        fail("build failed: {}".format(e))
    if args.smoke:
        import smoke
        sys.exit(smoke.main(run_driver))
    if args.workload is None:
        parser.error("--workload is required")
    # A run ends within 180 s; a checkout's first (building) run within 900 s.
    budget = (880 if first_build else 175) - (time.monotonic() - started)
    try:
        record = run_driver(args.workload, args.seed, args.seconds, args.trace,
                            args.tiny, timeout=max(budget, 10))
    except subprocess.TimeoutExpired:
        fail("qf_perfbench did not finish in time")
    provenance = dict(record["provenance"], git_sha=git_sha(),
                      source_sha256=source_digest(), workload=args.workload,
                      seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"provenance": provenance}))
    line, detail = analyze.result(record, args.trace == 1)
    detail["kernel_ms"] = record["kernel_ms"]
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
