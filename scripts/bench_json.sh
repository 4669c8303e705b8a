#!/usr/bin/env bash
# Run the software-performance benchmarks with google-benchmark's JSON
# reporter and distill them into checked-in result files at the repo root:
#   BENCH_throughput.json  - transform caching + batched KEM (bench_throughput)
#   BENCH_sw_mult.json     - software multiplier comparison (bench_sw_mult)
#   BENCH_fault.json       - fault detection/recovery rates and checking
#                            overhead (bench_fault_campaign, which emits the
#                            JSON itself - it is not a google-benchmark binary)
# Each file opens with a "provenance" block: the git sha (and whether the
# tree had uncommitted changes), the compiler, its version and the
# CMAKE_CXX_FLAGS* the build dir was configured with (its CMakeCache.txt),
# nproc, and the repetitions per row.
#
# The google-benchmark binaries run every row REPETITIONS times.
# A row reports the median of its repetitions and their spread: the
# interquartile range (`*_iqr`) and the coefficient of variation
# (`*_cv`, sample stddev / mean) of real time and of items_per_second.
# bench_fault_campaign runs once: its rates are exact counts, and it repeats
# every timed section itself (median and quartiles); the provenance names
# the repetitions of each timed section.
#
# Usage: scripts/bench_json.sh [build-dir]   (default: build-release)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-release}"
# Five repetitions give a median and quartiles per row at ~5 min on 4 CPUs.
REPETITIONS=5
if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found; configure with:" >&2
  echo "  cmake --preset release && cmake --build --preset release" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The provenance shared by every file; each file adds its "repetitions".
python3 - "$BUILD_DIR/CMakeCache.txt" >"$TMP/provenance.json" <<'EOF'
import json, os, subprocess, sys

def run(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None

cache = {}
for line in open(sys.argv[1]):
    key, sep, value = line.rstrip("\n").partition("=")
    name, colon, kind = key.partition(":")
    if sep and colon and kind != "INTERNAL" and not line.startswith(("//", "#")):
        cache[name] = value
compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
version = run(compiler, "--version")
sha = run("git", "rev-parse", "HEAD")
status = run("git", "status", "--porcelain", "--untracked-files=no")
json.dump({
    "git_sha": sha.strip() if sha else "unknown",
    "git_dirty": bool(status.strip()) if status is not None else None,
    "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    "compiler": compiler,
    "compiler_version": version.splitlines()[0] if version else "unknown",
    "cxx_flags": {k: v for k, v in sorted(cache.items()) if k.startswith("CMAKE_CXX_FLAGS")},
    "nproc": os.cpu_count(),
}, sys.stdout)
EOF

distill() {
  # $1 = raw google-benchmark JSON, $2 = output file.
  python3 - "$1" "$2" "$TMP/provenance.json" <<'EOF'
import json, statistics, sys

raw = json.load(open(sys.argv[1]))
provenance = json.load(open(sys.argv[3]))

# The per-repetition rows of each benchmark, in first-seen order
# (google-benchmark's own aggregates are recomputed here with the IQR).
rows = {}
for b in raw["benchmarks"]:
    if b.get("run_type", "iteration") == "iteration":
        rows.setdefault(b.get("run_name", b["name"]), []).append(b)
provenance["repetitions"] = min((len(r) for r in rows.values()), default=0)

def spread(values):
    """Median, interquartile range and coefficient of variation."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    mean = statistics.fmean(values)
    return median, q3 - q1, statistics.stdev(values) / mean if mean else 0.0

out = {
    "provenance": provenance,
    "context": {
        k: raw["context"].get(k)
        for k in ("host_name", "num_cpus", "mhz_per_cpu", "library_version")
        if k in raw["context"]
    },
    "benchmarks": [],
}
for name, reps in rows.items():
    real, real_iqr, real_cv = spread([b["real_time"] for b in reps])
    entry = {
        "name": name,
        "repetitions": len(reps),
        "real_time_ns": round(real, 1),
        "real_time_iqr_ns": round(real_iqr, 1),
        "real_time_cv": round(real_cv, 4),
        "cpu_time_ns": round(statistics.median(b["cpu_time"] for b in reps), 1),
    }
    if "items_per_second" in reps[0]:
        ips, ips_iqr, ips_cv = spread([b["items_per_second"] for b in reps])
        entry["items_per_second"] = round(ips, 1)
        entry["items_per_second_iqr"] = round(ips_iqr, 1)
        entry["items_per_second_cv"] = round(ips_cv, 4)
    if "pool_threads" in reps[0]:
        entry["pool_threads"] = int(reps[0]["pool_threads"])
    if "coeff_mults" in reps[0]:
        entry["coeff_mults"] = round(reps[0]["coeff_mults"], 1)
    out["benchmarks"].append(entry)

json.dump(out, open(sys.argv[2], "w"), indent=2)
open(sys.argv[2], "a").write("\n")
print(f"wrote {sys.argv[2]} ({len(out['benchmarks'])} benchmarks, "
      f"{provenance['repetitions']} repetitions)")
EOF
}

"$BUILD_DIR/bench/bench_throughput" --benchmark_repetitions="$REPETITIONS" \
  --benchmark_format=json --benchmark_out="$TMP/throughput.json" \
  --benchmark_out_format=json >/dev/null
distill "$TMP/throughput.json" BENCH_throughput.json

"$BUILD_DIR/bench/bench_sw_mult" --benchmark_repetitions="$REPETITIONS" \
  --benchmark_format=json --benchmark_out="$TMP/sw_mult.json" \
  --benchmark_out_format=json >/dev/null
distill "$TMP/sw_mult.json" BENCH_sw_mult.json

"$BUILD_DIR/bench/bench_fault_campaign" --json "$TMP/fault.json" >/dev/null
# The campaign writes its own layout; put the provenance block in front.
python3 - "$TMP/fault.json" BENCH_fault.json "$TMP/provenance.json" <<'EOF'
import json, sys

provenance = json.load(open(sys.argv[3]))
body = open(sys.argv[1]).read()
if not body.startswith("{\n"):
    sys.exit("error: unexpected bench_fault_campaign output")
reps = json.loads(body)["repetitions"]
provenance["repetitions"] = {
    section: reps
    for section in ("checking_overhead", "inner_product_overhead",
                    "supervised_prepare", "kem_decaps_overhead")
}
text = '{\n  "provenance": ' + json.dumps(provenance) + ",\n" + body[2:]
json.loads(text)  # still one valid document
open(sys.argv[2], "w").write(text)
print(f"wrote {sys.argv[2]}")
EOF
