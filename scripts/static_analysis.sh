#!/usr/bin/env bash
# Static-analysis gate: clang-tidy (when installed) + a textual secret-flow
# lint that backstops the runtime taint audit (ctest -L ct).
#
# The lint forbids, anywhere outside the runtime-audited files, source lines
# that apply variable-time operators to secret-named identifiers:
#
#   1. `secret… /` or `secret… %`   division/modulo on secret data compiles
#      to data-dependent-latency instructions on most cores;
#   2. `table[…secret…]`            indexing BY a secret value is a classic
#      cache side channel (indexing INTO a secret array, `secret[i]`, is
#      fine and not matched).
#
# Audited files are exempt: everything under src/ct/ (the analyzer names the
# operators it traps) and the flow/sampler kernels, whose secret arithmetic
# runs under ct::Tainted in ct_audit_test and is proven trap-free there. A
# self-test first checks the patterns fire on known-bad lines, so an empty
# result means "scanned and clean", not "pattern rotted".
#
# A third stage keeps SIMD intrinsics in one file: `<immintrin.h>`,
# `<x86intrin.h>` or an `_mm*` call anywhere in src/ outside
# src/common/bits.hpp fails the gate. The kernels are word-generic templates
# over the wrapped vector words that file defines (u64xN, i64x8, u32x16);
# an intrinsic elsewhere would fork a kernel into a second body.
#
# clang-tidy is optional (not in the base image): when absent the tidy stage
# is skipped with a notice and the lint still gates. Point CLANG_TIDY at a
# specific binary to override discovery.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

# --- stage 1: clang-tidy over compile_commands.json ------------------------

tidy="${CLANG_TIDY:-clang-tidy}"
if command -v "$tidy" >/dev/null 2>&1; then
  build_dir=""
  for d in build build-release build-asan build-tsan; do
    if [ -f "$d/compile_commands.json" ]; then build_dir="$d"; break; fi
  done
  if [ -z "$build_dir" ]; then
    echo "static_analysis: no compile_commands.json found; configure a preset first" >&2
    status=1
  else
    echo "== clang-tidy ($build_dir) =="
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    if ! "$tidy" -p "$build_dir" --quiet "${sources[@]}"; then
      status=1
    fi
  fi
else
  echo "static_analysis: clang-tidy not installed; skipping tidy stage (lint still gates)"
fi

# --- stage 2: secret-flow grep lint ----------------------------------------

# Identifier stems treated as secret. `sk` alone is excluded from the
# division pattern operand side only via the word boundary; sk_, secret*,
# coins* all count.
divmod_re='\b(secret|coins|sk)[A-Za-z0-9_]*[[:space:]]*[%/][^/*]'
index_re='[A-Za-z0-9_]\[[^][]*\b(secret|coins)[A-Za-z0-9_]*\b[^][]*\]'

# Runtime-audited files: their secret arithmetic executes under ct::Tainted
# in ct_audit_test (zero violations required), so the textual lint defers to
# the stronger runtime check there.
audited_re='^src/ct/|^src/saber/flows\.hpp|^src/saber/gen\.hpp|^src/common/ctops\.hpp'

# Self-test: the patterns must fire on known-bad lines or the lint is dead.
selftest=$(mktemp)
cat > "$selftest" <<'EOF'
int a = secret_byte % 3;
int b = coins / 7;
int c = table[secret_idx];
EOF
if [ "$(grep -cE "$divmod_re" "$selftest")" != 2 ] ||
   [ "$(grep -cE "$index_re" "$selftest")" != 1 ]; then
  echo "static_analysis: secret-lint self-test failed — patterns no longer fire" >&2
  rm -f "$selftest"
  exit 1
fi
rm -f "$selftest"

echo "== secret-flow lint =="
hits=$( { grep -rnE "$divmod_re" src --include='*.hpp' --include='*.cpp';
          grep -rnE "$index_re"  src --include='*.hpp' --include='*.cpp'; } \
        | grep -vE "$audited_re" || true)
if [ -n "$hits" ]; then
  echo "variable-time operator on a secret-named identifier outside audited files:" >&2
  echo "$hits" >&2
  echo "(fix it, or route the kernel through the src/ct audit and list it in audited_re)" >&2
  status=1
else
  echo "clean: no secret-named identifier feeds /, % or a table index outside audited files"
fi

# --- stage 3: intrinsics only in common/bits.hpp ----------------------------

intrin_re='<(immintrin|x86intrin)\.h>|\b_mm[0-9]*_'
intrin_home='^src/common/bits\.hpp:'

# Self-test: three known-bad lines fire, a look-alike identifier does not.
selftest=$(mktemp)
cat > "$selftest" <<'EOF'
#include <immintrin.h>
#include <x86intrin.h>
  return _mm512_maskz_mul_epu32(0xFF, a, b);
  const auto n = comm_mm_count;
EOF
if [ "$(grep -cE "$intrin_re" "$selftest")" != 3 ]; then
  echo "static_analysis: intrinsics-lint self-test failed — pattern no longer fires" >&2
  rm -f "$selftest"
  exit 1
fi
rm -f "$selftest"

echo "== intrinsics lint =="
hits=$(grep -rnE "$intrin_re" src --include='*.hpp' --include='*.cpp' \
       | grep -vE "$intrin_home" || true)
if [ -n "$hits" ]; then
  echo "SIMD intrinsics outside src/common/bits.hpp:" >&2
  echo "$hits" >&2
  echo "(wrap the instruction in a vector word helper there; kernels stay word-generic)" >&2
  status=1
else
  echo "clean: intrinsics appear only in src/common/bits.hpp"
fi

exit "$status"
