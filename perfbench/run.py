#!/usr/bin/env python3
"""Launch-to-summary serving benchmark for speedqm's sharded server.

Usage (from the repository root):

  python3 perfbench/run.py --workload steady|churn|cold-start
                           [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --record SEED[,SEED...]

The first form builds the library and perfbench/driver.cpp with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the repository root, runs the
driver, checks the per-pool summary digests against perfbench/expected.json
and prints one JSON result as the last line of stdout: end-to-end metrics
with --trace 0, per-layer metrics of the traced replay with --trace 1.
Spans of the traced run go to <build dir>/trace/.

--record serves every workload once per seed and stores the digests in
perfbench/expected.json; run it only when a change is meant to alter
serving results.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("steady", "churn", "cold-start")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               check=True, timeout=BUILD_TIMEOUT_S)
            except (subprocess.SubprocessError, OSError) as exc:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                fail(f"build failed ({exc}):\n{tail}")
    return out / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace, spans=None):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def load_expected():
    path = BENCH / "expected.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def record(driver, seeds):
    expected = load_expected()
    for workload in WORKLOADS:
        for seed in seeds:
            _, result = run_driver(driver, workload, seed, 0, 0)
            if result["failed"]:
                fail(f"{workload} seed {seed}: runs disagree, not recording")
            expected.setdefault(workload, {})[str(seed)] = result["digests"]
            print(f"{workload} seed {seed}: recorded", flush=True)
    ordered = {w: dict(sorted(expected[w].items(), key=lambda kv: int(kv[0])))
               for w in WORKLOADS if w in expected}
    (BENCH / "expected.json").write_text(json.dumps(ordered, indent=1) + "\n")


def main():
    meta = json.loads((BENCH / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=meta["default_seed"])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="comma-separated seeds to record")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    if not args.record and not args.workload:
        parser.error("--workload is required")

    driver = build()
    if args.record:
        record(driver, [int(s) for s in args.record.split(",")])
        return

    spans = None
    if args.trace:
        spans = build_dir() / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
    lines, result = run_driver(driver, args.workload, args.seed, args.seconds,
                               args.trace, spans)
    for line in lines:
        print(line)

    # The traced run serves pool 0 only; compare what was served.
    digests = result["digests"]
    recorded = load_expected().get(args.workload, {}).get(str(args.seed))
    matches = recorded is None or recorded[:len(digests)] == digests
    attempted = result["attempted"]
    failed = result["failed"] if matches else attempted
    if not matches:
        print(f"digest mismatch for {args.workload} seed {args.seed}: "
              f"got {digests}, recorded {recorded}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
