#!/usr/bin/env bash
# Build, test, and regenerate every experiment output of the reproduction.
# Results land in test_output.txt / bench_output.txt at the repository root,
# plus table1.csv for external plotting and BENCH_*.json timing summaries.
# Benchmarks run from the optimized (-O3 -march=native) release preset so the
# checked-in numbers reflect real performance.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release

# Static-analysis gate first (cheap, fails fast): clang-tidy when installed,
# plus the secret-flow lint backing the runtime taint audit (`ctest -L ct`).
scripts/static_analysis.sh 2>&1 | tee test_output.txt

ctest --test-dir build-release 2>&1 | tee -a test_output.txt

# The repository benchmark's exact-count self-test: the checked_batch faults
# still fire, and every one is recovered.
python3 kembench/selftest.py 2>&1 | tee -a test_output.txt

# Deeper randomized conformance sweep than the tier-1 default (4 iters): every
# backend and every architecture core against schoolbook, failing iterations
# report their replay seed.
SABER_CONFORMANCE_ITERS=24 ctest --test-dir build-release -L conformance \
  2>&1 | tee -a test_output.txt

# Run the suite a second time under address+undefined sanitizers: the
# robustness layer's exception/zeroization paths are exactly where lifetime
# bugs would hide.
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan
ctest --test-dir build-asan 2>&1 | tee -a test_output.txt

# Conformance fuzz under the sanitizers as well (smaller budget: sanitized
# NTT/Toom multiplies are ~10x slower).
SABER_CONFORMANCE_ITERS=6 ctest --test-dir build-asan -L conformance \
  2>&1 | tee -a test_output.txt

# Smoke the fault campaign under the sanitizers too (small trial counts):
# the detect / retry / failover machinery and the architecture fault hooks
# all execute, and the run fails on any silent corruption.
./build-asan/bench/bench_fault_campaign --smoke 2>&1 | tee -a test_output.txt

# Third sanitizer pass, ThreadSanitizer, over the threaded suites: the
# thread pool, the batch KEM pipeline, the supervisor failover machinery and
# the shared-instance fault-monitor polling. Any data-race report fails the
# run (TSan exits nonzero).
cmake --preset tsan
cmake --build --preset tsan
ctest --test-dir build-tsan -L robust 2>&1 | tee -a test_output.txt
./build-tsan/tests/common_test --gtest_filter='ThreadPool*' 2>&1 | tee -a test_output.txt
./build-tsan/tests/batch_test 2>&1 | tee -a test_output.txt

{
  for b in build-release/bench/*; do
    echo "===================================================================="
    echo "== $b"
    echo "===================================================================="
    "$b"
    echo
  done
} 2>&1 | tee bench_output.txt

./build-release/bench/bench_table1 --csv > table1.csv
scripts/bench_json.sh build-release
echo "Wrote test_output.txt, bench_output.txt, table1.csv, BENCH_*.json"
