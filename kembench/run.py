#!/usr/bin/env python3
"""Build and run the Saber KEM benchmark (see kembench/README.md).

    python3 kembench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The first run builds the `kembench`
binary (CMake Release, -O3 -march=native) from kembench/ and src/ into
.bench_build/; later runs rebuild only what changed. Build output goes to
stderr. Standard output is the binary's: a provenance line, then the result
line {"correct", "attempted", "failed", "metrics"} last. A traced run
(--trace 1) also writes its spans to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("single_op", "batch_server", "checked_batch", "hw_sim")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "kembench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"kembench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "saber" / "kem.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "kembench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return BUILD / "kembench"


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the relative path and bytes of every file the build reads."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*") if p.is_file()]
    for p in sorted(files):
        rel = p.relative_to(ROOT).as_posix()
        if "__pycache__" in rel:
            continue
        h.update(rel.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--iterations", type=int, default=0,
                    help="run exactly this many loop iterations instead of --seconds")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.iterations < 0:
        fail("--seed and --iterations must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--iterations", str(args.iterations),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace == "1":
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
