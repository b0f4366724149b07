#!/usr/bin/env python3
"""Numeric CLI flags parse whole-token; out-of-range values are usage errors.

Usage:
  cli_flags_test.py RRF_SIM_CLI RRF_ALLOC_CLI CASE
  cli_flags_test.py --list

Each rejecting CASE must exit 2 (the usage error) with a message naming
the offending flag, or the engine's precondition, on stderr; nothing may
run, wrap silently or abort.  The `sim_accepts_whole_tokens` case is the
control: well-formed values of the same flags still run to exit 0.  ctest
registers one test per case.
"""

import subprocess
import sys

SIM = ["--policy", "rrf", "--synthetic", "2,4,2"]

# case -> (tool, argv, text stderr must contain); tool "sim" or "alloc".
REJECT = {
    "sim_duration_junk": ("sim", SIM + ["--duration", "20junk"], "--duration"),
    "sim_alpha_nan": ("sim", SIM + ["--alpha", "nan"], "--alpha"),
    "sim_window_empty": ("sim", SIM + ["--window", ""], "--window"),
    "sim_negative_hosts": ("sim", ["--hosts", "-1"], "--hosts"),
    "sim_negative_shards": ("sim", SIM + ["--shards", "-2"], "--shards"),
    "sim_fractional_seed": ("sim", SIM + ["--seed", "1.5"], "--seed"),
    "sim_fill_without_pool": ("sim", ["--fill", "--hosts", "0"], "--fill"),
    "sim_serve_ops_junk": ("sim", SIM + ["--serve-ops", "94x0"], "--serve-ops"),
    "sim_serve_metrics_range": (
        "sim", SIM + ["--serve-metrics", "70000"], "--serve-metrics"),
    "sim_serve_hold_junk": (
        "sim", SIM + ["--serve-hold", "5s"], "--serve-hold"),
    "sim_synthetic_negative": (
        "sim", ["--synthetic", "2,-4,2"], "--synthetic"),
    # Values that parse but the engine rejects: usage errors, not aborts.
    "sim_window_zero": ("sim", SIM + ["--window", "0"], "bad window/duration"),
    "sim_negative_duration": (
        "sim", SIM + ["--duration", "-5"], "bad window/duration"),
    "sim_duration_below_window": (
        "sim", SIM + ["--duration", "2", "--window", "5"],
        "bad window/duration"),
    "alloc_serve_ops_junk": (
        "alloc", ["--capacity", "3000,3000", "--serve-ops", "12ab", "in.csv"],
        "--serve-ops"),
    "alloc_serve_hold_junk": (
        "alloc", ["--capacity", "3000,3000", "--serve-hold", "1e", "in.csv"],
        "--serve-hold"),
    "alloc_negative_serve_ops": (
        "alloc", ["--capacity", "3000,3000", "--serve-ops", "-1", "in.csv"],
        "--serve-ops"),
}

ACCEPT = {
    "sim_accepts_whole_tokens": (
        "sim", SIM + ["--duration", "20", "--window", "5", "--alpha", "1.0",
                      "--hosts", "1", "--seed", "7", "--shards", "1"]),
}


def main() -> int:
    if sys.argv[1:] == ["--list"]:
        print(";".join(list(REJECT) + list(ACCEPT)))
        return 0
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    tools = {"sim": sys.argv[1], "alloc": sys.argv[2]}
    case = sys.argv[3]
    if case in REJECT:
        tool, args, needle = REJECT[case]
        expected = 2
    elif case in ACCEPT:
        tool, args = ACCEPT[case]
        needle, expected = None, 0
    else:
        print(f"unknown case {case}", file=sys.stderr)
        return 2
    proc = subprocess.run([tools[tool]] + args, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != expected:
        print(f"{case}: exit {proc.returncode}, want {expected}\n"
              f"stderr: {proc.stderr}", file=sys.stderr)
        return 1
    if needle is not None and needle not in proc.stderr:
        print(f"{case}: stderr does not name {needle}: {proc.stderr!r}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
