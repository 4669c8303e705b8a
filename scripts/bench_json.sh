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
# Usage: scripts/bench_json.sh [build-dir]   (default: build-release)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-release}"
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
import json, sys

raw = json.load(open(sys.argv[1]))
provenance = json.load(open(sys.argv[3]))
provenance["repetitions"] = max((b.get("repetitions", 1) for b in raw["benchmarks"]),
                                default=1)
out = {
    "provenance": provenance,
    "context": {
        k: raw["context"].get(k)
        for k in ("host_name", "num_cpus", "mhz_per_cpu", "library_version")
        if k in raw["context"]
    },
    "benchmarks": [],
}
for b in raw["benchmarks"]:
    if b.get("run_type") == "aggregate":
        continue
    entry = {
        "name": b["name"],
        "real_time_ns": round(b["real_time"], 1),
        "cpu_time_ns": round(b["cpu_time"], 1),
    }
    if "items_per_second" in b:
        entry["items_per_second"] = round(b["items_per_second"], 1)
    if "pool_threads" in b:
        entry["pool_threads"] = int(b["pool_threads"])
    if "coeff_mults" in b:
        entry["coeff_mults"] = round(b["coeff_mults"], 1)
    out["benchmarks"].append(entry)

json.dump(out, open(sys.argv[2], "w"), indent=2)
open(sys.argv[2], "a").write("\n")
print(f"wrote {sys.argv[2]} ({len(out['benchmarks'])} benchmarks)")
EOF
}

"$BUILD_DIR/bench/bench_throughput" \
  --benchmark_format=json --benchmark_out="$TMP/throughput.json" \
  --benchmark_out_format=json >/dev/null
distill "$TMP/throughput.json" BENCH_throughput.json

"$BUILD_DIR/bench/bench_sw_mult" \
  --benchmark_format=json --benchmark_out="$TMP/sw_mult.json" \
  --benchmark_out_format=json >/dev/null
distill "$TMP/sw_mult.json" BENCH_sw_mult.json

"$BUILD_DIR/bench/bench_fault_campaign" --json "$TMP/fault.json" >/dev/null
# The campaign writes its own layout; put the provenance block in front.
python3 - "$TMP/fault.json" BENCH_fault.json "$TMP/provenance.json" <<'EOF'
import json, sys

provenance = json.load(open(sys.argv[3]))
provenance["repetitions"] = 1
body = open(sys.argv[1]).read()
if not body.startswith("{\n"):
    sys.exit("error: unexpected bench_fault_campaign output")
text = '{\n  "provenance": ' + json.dumps(provenance) + ",\n" + body[2:]
json.loads(text)  # still one valid document
open(sys.argv[2], "w").write(text)
print(f"wrote {sys.argv[2]}")
EOF
