// Schoolbook negacyclic multiplication (Algorithm 1 of the paper): the
// functional reference against which every other algorithm and every
// cycle-accurate hardware model is checked.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

#include "mult/multiplier.hpp"

namespace saber::mult {

/// Word-generic accumulating signed integer linear convolution,
/// acc += a * b with acc.size() == a.size() + b.size() - 1. Purely
/// multiply-accumulate with loop-counter indexing — constant-time in the data
/// by construction. (W comes from `acc`.)
template <typename W>
void schoolbook_acc_g(std::span<const std::type_identity_t<W>> a,
                      std::span<const std::type_identity_t<W>> b, std::span<W> acc) {
  const std::size_t n = a.size(), m = b.size();
  SABER_REQUIRE(n >= 1 && m >= 1 && acc.size() == n + m - 1, "output length mismatch");
  // Rows in pairs: one pass over acc adds row i's term and row i+1's
  // (shifted one place), so each acc word is loaded and stored once per
  // pair. Every product a_i * b_j is still formed and added exactly once.
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc[i] += a[i] * b[0];
    for (std::size_t j = 1; j < m; ++j) {
      acc[i + j] += a[i] * b[j];
      acc[i + j] += a[i + 1] * b[j - 1];
    }
    acc[i + m] += a[i + 1] * b[m - 1];
  }
  if (i < n) {
    for (std::size_t j = 0; j < m; ++j) acc[i + j] += a[i] * b[j];
  }
}

/// Non-accumulating form: out = a * b.
template <typename W>
void schoolbook_conv_g(std::span<const std::type_identity_t<W>> a,
                       std::span<const std::type_identity_t<W>> b, std::span<W> out) {
  std::ranges::fill(out, W{0});
  schoolbook_acc_g<W>(a, b, out);
}

/// Shape of a lane-sliced batch: `leaves` independent len x len linear
/// convolutions, one per lane, stored lane-major (word c * lanes + j is
/// coefficient c of product j; accumulators have 2 len - 1 rows). Lanes past
/// `leaves` are padding that stays zero.
struct LaneShape {
  std::size_t len = 0;
  std::size_t lanes = 0;
  std::size_t leaves = 0;
};

/// How lane_conv_acc_g reads and multiplies a lane word W: operands are
/// `Lane` values, accumulators `Elem` values. A scalar word is one lane and
/// multiplies plainly; plain i64 reads i32 operand lanes, any other scalar
/// (ct::Tainted<i64>, the analysis tests' op-counting word) its own type.
/// i64x8 spans eight lanes: a sign-extending load of eight i32, one vpmuldq.
template <typename W>
struct LaneAccess {
  using Elem = W;
  using Lane = std::conditional_t<std::is_same_v<W, i64>, i32, W>;
  static constexpr std::size_t kWidth = 1;
  static W load(const Elem* p) { return *p; }
  // Bytewise, as i64x8::widen: i32 lanes may be packed in i64 words.
  static W widen(const Lane* p) {
    Lane x;
    std::memcpy(&x, p, sizeof x);
    return W(x);
  }
  static void store(Elem* p, const W& w) { *p = w; }
  static W mul(const W& a, const W& b) { return a * b; }
};
template <>
struct LaneAccess<i64x8> {
  using Elem = i64;
  using Lane = i32;
  static constexpr std::size_t kWidth = 8;
  static i64x8 load(const Elem* p) { return i64x8::load(p); }
  static i64x8 widen(const Lane* p) { return i64x8::widen(p); }
  static void store(Elem* p, const i64x8& w) { w.store(p); }
  static i64x8 mul(const i64x8& a, const i64x8& b) { return mul_lo32(a, b); }
};
template <typename W>
using lane_elem_t = typename LaneAccess<W>::Elem;
template <typename W>
using lane_t = typename LaneAccess<W>::Lane;

/// The production lane word: eight lanes in one vpmuldq under AVX-512F,
/// plain i64 lanes elsewhere. Without AVX-512 GCC splits the 64-byte word
/// through the stack, and the scalar word is faster (-O3 -mavx2 and plain
/// -O3; EXPERIMENTS.md E-lane).
#ifdef __AVX512F__
using LaneWord = i64x8;
#else
using LaneWord = i64;
#endif

/// Longest leaf lane_conv_acc_g takes: Karatsuba's two-level leaves of N.
inline constexpr std::size_t kLaneLenMax = ring::kN / 4;

/// Lane-sliced schoolbook, acc += a * b for all sh.leaves products at once,
/// one per lane: no shifts, no scatter, no recursion. Operand lanes hold i32
/// values (exact i32 x i32 -> i64 products), read in place and widened once
/// per lane group into two columns of at most kLaneLenMax words (8 KB of
/// stack under i64x8). Each output sums its products from zero, then adds
/// into `acc`: n^2 mults and n^2 + 2n - 1 adds per product, a leaf of
/// analysis::karatsuba_ops. Scalar words skip the pad lanes. Public loop
/// bounds: constant-time in the data for any word type.
template <typename W>
void lane_conv_acc_g(const LaneShape& sh, std::span<lane_elem_t<W>> acc,
                     std::span<const lane_t<W>> a, std::span<const lane_t<W>> b) {
  using LA = LaneAccess<W>;
  const std::size_t len = sh.len, lanes = sh.lanes;
  SABER_REQUIRE(len >= 1 && len <= kLaneLenMax && lanes % LA::kWidth == 0 &&
                    sh.leaves <= lanes && a.size() == len * lanes &&
                    b.size() == a.size() && acc.size() == (2 * len - 1) * lanes,
                "operands not in this lane shape");
  std::array<W, kLaneLenMax> wa, wb;
  for (std::size_t g = 0; g < sh.leaves; g += LA::kWidth) {
    for (std::size_t c = 0; c < len; ++c) {
      wa[c] = LA::widen(a.data() + c * lanes + g);
      wb[c] = LA::widen(b.data() + c * lanes + g);
    }
    for (std::size_t k = 0; k < 2 * len - 1; ++k) {
      const std::size_t lo = k < len ? 0 : k - len + 1, hi = k < len ? k : len - 1;
      // Two independent sums, the first seeded with the output word: one
      // add per product plus one, as a single sum from zero would take.
      auto* out = &acc[k * lanes + g];
      W even = LA::load(out), odd{};
      std::size_t i = lo;
      for (; i + 1 <= hi; i += 2) {
        even += LA::mul(wa[i], wb[k - i]);
        odd += LA::mul(wa[i + 1], wb[k - i - 1]);
      }
      if (i == hi) even += LA::mul(wa[i], wb[k - i]);
      LA::store(out, even + odd);
    }
  }
}

class SchoolbookMultiplier final : public PolyMultiplier {
 public:
  std::string_view name() const override { return "schoolbook"; }
};

}  // namespace saber::mult
