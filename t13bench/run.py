#!/usr/bin/env python3
"""T13 end-to-end Typecoin benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 t13bench/run.py --workload transfer4 --seed 1 --seconds 35 --trace 0
    python3 t13bench/run.py --workload catchup --seed 1 --seconds 35 --trace 1
    python3 t13bench/run.py --selftest          # unit checks + smoke runs

The first call configures and builds t13bench (and the libraries under
src/) into $CARGO_TARGET_DIR/t13bench, or .bench_build/t13bench when the
variable is unset. Later calls rebuild only what changed.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
benchmark's own report (every metric with unit and sample count, and a
context line). A build failure, a failed output check or a malformed
result exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("transfer4", "deep_ledger", "catchup")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"t13bench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "t13bench")


def build():
    """Configure (once) and build t13bench; returns its path or None."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "t13bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(out, "t13bench")
    return exe if os.path.exists(exe) else None


def describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # An exported checkout: never describe a parent repo.
    try:
        p = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def valid_result(line, traced):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if r["correct"] is not True or r["failed"] != 0 or r["attempted"] < 1:
        return False
    metrics = r["metrics"]
    if not metrics:
        return False
    for m in metrics.values():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            return False
    # An untraced pass must report every end-to-end metric it promises.
    return traced or "setup_s" in metrics


def run(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--describe", describe()]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = p.stdout.rstrip("\n").splitlines()
    if p.returncode != 0 or not lines:
        # t13bench printed its failed checks on stderr; echo the report
        # but never a result line.
        for line in lines:
            if not line.startswith("{"):
                print(line)
        log(f"{args.workload} failed (exit {p.returncode})")
        return 1
    if not valid_result(lines[-1], args.trace != 0):
        for line in lines[:-1]:
            print(line)
        log("malformed result line: " + lines[-1][:200])
        return 1
    print("\n".join(lines), flush=True)
    return 0


def selftest(exe):
    failures = 0
    if subprocess.run([exe, "--selftest"]).returncode:
        failures += 1
    for w in WORKLOADS:
        p = subprocess.run([exe, "--workload", w, "--seed", "1", "--smoke"],
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
        ok = p.returncode == 0 and valid_result(p.stdout.splitlines()[-1], False)
        print(f"smoke {w}: {'ok' if ok else 'FAILED'}")
        failures += not ok
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="percentile/ratio unit checks and a smoke run of "
                         "every workload")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Typecoin sources next to the benchmark (src/ is missing)")
        return 2
    exe = build()
    if exe is None:
        return 2
    return selftest(exe) if args.selftest else run(exe, args)


if __name__ == "__main__":
    sys.exit(main())
