#!/usr/bin/env python3
"""Build and run the paper-scale P3S benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the driver
under perfbench/driver/) as a Release build in $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only rebuild what changed.
The driver's stdout is passed through; its last line is the JSON result.

--self-check runs the oracle's self-check (a subscriber's endpoint is
unregistered, so the run must report failures) and a short traced run (whose
wire traffic and deliveries must equal those of the untraced twin).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; progress goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-G", "Unix Makefiles",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "p3s_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "p3s_perfbench")


def source_sha256():
    """Digest of the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    """HEAD's commit id read from .git, or "unknown" outside a git clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run the driver; return (exit code, stdout, parsed last line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit(), "--source-sha256", source_sha256()]
    if trace:
        spans = os.path.join(os.path.dirname(binary), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, proc.stdout, result


def self_check(binary):
    ok = True
    code, out, res = run(binary, "paper_broadcast", 1, 1, 0, ["--sabotage"])
    sys.stderr.write(out)
    if code != 0 or res is None or res["failed"] == 0 or res["correct"]:
        print("self-check FAILED: the sabotaged run reported no failure")
        ok = False
    else:
        print(f"self-check: sabotaged run failed {res['failed']} of "
              f"{res['attempted']} operations, as it must")
    code, out, res = run(binary, "subscription_churn", 1, 3, 1)
    sys.stderr.write(out)
    if code != 0 or res is None or not res["correct"] or res["failed"]:
        print("self-check FAILED: traced run is not identical on the wire")
        ok = False
    else:
        print("self-check: traced run matches its untraced twin on the wire")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and None in (args.workload, args.seed,
                                        args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_check:
        return self_check(binary)

    try:
        code, out, result = run(binary, args.workload, args.seed,
                                args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if code != 0 or result is None:
        sys.stderr.write(out)
        print(f"perfbench: driver failed (exit {code})", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
