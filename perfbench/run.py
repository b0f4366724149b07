#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload synth-alloc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --regen-reference

The first call configures and builds perfbench/ (the library sources under
src/ plus cpp/) into .bench_build/perfbench; later calls only rebuild
what changed.  Build output goes to standard error, so the last line of
standard output is the benchmark's one-line JSON result.  --regen-reference
rewrites perfbench/reference_digests.txt from the default seed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rrf_perfbench"
REFERENCE = HERE / "reference_digests.txt"
WORKLOADS = ("synth-alloc", "paper-ops")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeFiles" / "Makefile.cmake").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rrf_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def run_benchmark(args, tmpdir):
    """Runs rrf_perfbench; returns (exit code, captured stdout or None)."""
    command = [str(BINARY), *args, "--reference", str(REFERENCE),
               "--tmpdir", str(tmpdir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: rrf_perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return done.returncode, done.stdout


def regen_reference():
    lines = ["# Per-window snapshot digests of each workload at the default seed.",
             "# Regenerate with: python3 perfbench/run.py --regen-reference"]
    for workload in WORKLOADS:
        code, out = run_benchmark(["--workload", workload, "--seed",
                                str(DEFAULT_SEED), "--emit-digests"],
                               BUILD / f"tmp-{os.getpid()}")
        if code != 0 or not out:
            sys.exit(f"perfbench: digest run of {workload} failed")
        lines.append(out.strip().splitlines()[-1])
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {REFERENCE}")


def main():
    # A SIGTERM becomes SystemExit, so subprocess.run kills and waits for the
    # build step or rrf_perfbench it is running and the temp dir is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args()
    if not args.regen_reference and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.regen_reference:
        regen_reference()
        return 0
    code, out = run_benchmark(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", args.trace],
                           BUILD / f"tmp-{os.getpid()}")
    if code != 0 or not out:
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
