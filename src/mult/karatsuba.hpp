// Recursive Karatsuba linear convolution with configurable recursion depth.
//
// Depth 8 on 256-coefficient operands reaches 1-coefficient base cases — the
// "parallel 8-level Karatsuba" configuration of Zhu et al. [11] that the
// paper compares against in §5.2. Smaller depths model the hybrid
// Karatsuba/schoolbook trade-offs used by software implementations [6].
//
// Evaluation (karatsuba_split_g) and recombination (karatsuba_merge_g) are
// stages of their own, shared with Toom-Cook, which runs them in prepare and
// finalize. Between them the leaves sit side by side in i32 lanes, so every
// leaf product of one call is one lane-sliced schoolbook (lane_conv_acc_g)
// of i32 x i32 -> i64 widening multiplies; depths 0 and 1, with too few
// leaves to fill a vector word, run a row-paired schoolbook per leaf.
#pragma once

#include <algorithm>
#include <array>
#include <type_traits>

#include "mult/multiplier.hpp"
#include "mult/schoolbook.hpp"

namespace saber::mult {

/// Splits karatsuba_acc_g makes on n-coefficient operands at depth `levels`:
/// it halves while the length is even, above 1 and depth remains.
constexpr unsigned karatsuba_splits(std::size_t n, unsigned levels) {
  unsigned s = 0;
  for (; s < levels && n > 1 && n % 2 == 0; ++s) n /= 2;
  return s;
}

// Public x public at qbits 16 (centered |a| <= 2^15) at any depth on N
// coefficients stays inside the i32 lanes through every pre-add level (each
// doubles the bound): the karatsuba-<depth> backends and the karatsuba_hw core.
static_assert(((i64{1} << 15) << karatsuba_splits(ring::kN, 32)) < (i64{1} << 31),
              "Karatsuba operands at qbits 16 overflow the i32 lanes");

constexpr std::size_t pow3(unsigned e) { return e == 0 ? 1 : 3 * pow3(e - 1); }

/// Karatsuba evaluation as a stage of its own: the 3^levels leaf operands of
/// x (levels >= 1, x.size() divisible by 2^levels) in split order (low half,
/// high half, their sum; recursively), coefficient c of leaf j at
/// out[c * stride + j * lstride]: lane-major with lstride 1, leaf-major with
/// stride 1. A split node of n coefficients costs n/2 pre-adds, one
/// operand's share of analysis::karatsuba_ops. Out may be narrower than W
/// where the caller bounds the leaves (i32 lanes).
template <typename W, typename Out = W>
void karatsuba_split_g(std::span<const W> x, unsigned levels, std::span<Out> out,
                       std::size_t stride, std::size_t lstride = 1) {
  using O = ct::raw_t<Out>;
  const std::size_t h = x.size() / 2, third = pow3(levels - 1) * lstride;
  if (levels == 1) {  // the three leaves, written in place
    for (std::size_t c = 0; c < h; ++c) {
      out[c * stride] = ct::cast<O>(x[c]);
      out[c * stride + lstride] = ct::cast<O>(x[h + c]);
      out[c * stride + 2 * lstride] = ct::cast<O>(x[c] + x[h + c]);
    }
    return;
  }
  std::array<W, ring::kN / 2> sum;
  for (std::size_t i = 0; i < h; ++i) sum[i] = x[i] + x[h + i];
  karatsuba_split_g<W, Out>(x.first(h), levels - 1, out, stride, lstride);
  karatsuba_split_g<W, Out>(x.subspan(h), levels - 1, out.subspan(third), stride,
                            lstride);
  karatsuba_split_g<W, Out>(std::span<const W>(sum).first(h), levels - 1,
                            out.subspan(2 * third), stride, lstride);
}

/// Scratch words karatsuba_merge_g takes for n-coefficient operands split
/// `levels` times: three (n-1)-word sub-products per split node above the
/// leaves, one node per level at a time.
constexpr std::size_t karatsuba_merge_words(std::size_t n, unsigned levels) {
  return levels <= 1 ? 0 : 3 * (n - 1) + karatsuba_merge_words(n / 2, levels - 1);
}

/// Karatsuba recombination: out += the product whose 3^levels leaf products
/// sit as karatsuba_split_g left their operands (coefficient k of leaf j at
/// prods[k * stride + j * lstride]); out.size() is 2n - 1 for n-coefficient
/// operands, levels >= 1, and `scratch` holds karatsuba_merge_words(n,
/// levels) words. A split node of n coefficients costs 5(n - 1) adds.
template <typename W>
void karatsuba_merge_g(std::span<const W> prods, std::size_t stride, unsigned levels,
                       std::span<W> out, std::span<W> scratch, std::size_t lstride = 1) {
  const std::size_t n = (out.size() + 1) / 2, h = n / 2, m = n - 1;
  // z0 = lo*lo, z2 = hi*hi, zm = sum*sum: a node's leaves directly, or its
  // children merged into the front of `scratch`.
  std::array<std::span<const W>, 3> z;
  for (std::size_t c = 0; c < 3; ++c) {
    z[c] = prods.subspan(c * pow3(levels - 1) * lstride);
    if (levels > 1) {
      const auto zc = scratch.subspan(c * m, m);
      std::ranges::fill(zc, W{0});
      karatsuba_merge_g<W>(z[c], stride, levels - 1, zc, scratch.subspan(3 * m), lstride);
      z[c] = zc;
    }
  }
  const std::size_t zs = levels > 1 ? 1 : stride;
  for (std::size_t i = 0; i < m; ++i) {
    out[i] += z[0][i * zs];
    out[i + h] += z[2][i * zs] - z[0][i * zs] - z[1][i * zs];
    out[i + 2 * h] += z[1][i * zs];
  }
}

/// Fewer leaves than this (depths 0 and 1: one or three) run one row-paired
/// schoolbook each, leaf-major, rather than fill three of eight lanes.
inline constexpr std::size_t kKaratsubaLaneLeaves = LaneAccess<i64x8>::kWidth;

/// Words karatsuba_acc_g's lane-sliced path takes at its deepest split on n
/// <= N coefficients, for the operand leaves (`prods` false) or their
/// products: 3^s leaves padded to whole i64x8 words, len or 2 len - 1 rows.
constexpr std::size_t karatsuba_lane_words(bool prods) {
  std::size_t most = 0;
  for (unsigned s = 2; s <= 8; ++s) {
    const std::size_t len = ring::kN >> s, lanes = (pow3(s) + 7) / 8 * 8;
    most = std::max(most, (prods ? 2 * len - 1 : len) * lanes);
  }
  return most;
}

/// Word-generic accumulating Karatsuba linear convolution, acc += a * b,
/// splitting `levels` times (or until operands shrink to an odd length):
/// split both operands into leaves, multiply every leaf, merge. From
/// kKaratsubaLaneLeaves leaves on, the leaves sit lane-major in i32 lanes
/// and multiply in one lane-sliced schoolbook; fewer run a row-paired
/// schoolbook each. Under plain i64 every coefficient must lie in [-2^r,
/// 2^r) with r = 31 - karatsuba_splits(n, levels); a violation throws
/// ContractViolation (one branch per call on the OR of branch-free
/// per-coefficient tests). Tainted words skip the check, which would branch
/// on secret data. Stack per call under i64: the lane path's arrays are
/// sized for depth 8 on N coefficients (2 x 6568 i32 operand lanes, 6576
/// i64 products, 1503 i64 merge scratch: about 114 KB, all of it touched at
/// depth 8, about 43 KB at depth 4); the leaf-major path about 16 KB.
template <typename W>
void karatsuba_acc_g(std::span<const W> a, std::span<const W> b, std::span<W> acc,
                     unsigned levels) {
  // Plain i64 runs the production lane word, any other word itself.
  using V = std::conditional_t<std::is_same_v<W, i64>, LaneWord, W>;
  using L = lane_t<V>;
  constexpr std::size_t width = LaneAccess<V>::kWidth;
  const std::size_t n = a.size();
  SABER_REQUIRE(n >= 1 && n <= ring::kN && b.size() == n,
                "operands must have equal length in [1, N]");
  SABER_REQUIRE(acc.size() == 2 * n - 1, "output length mismatch");
  const unsigned s = karatsuba_splits(n, levels);
  if constexpr (std::is_same_v<W, i64>) {
    // x fits iff x + 2^room lies in [0, 2^(room+1)); u64 wraps, so any
    // out-of-range x leaves a bit at or above room + 1.
    const unsigned room = 31 - s;
    u64 over = 0;
    for (std::size_t i = 0; i < n; ++i) {
      over |= (static_cast<u64>(a[i]) + (u64{1} << room)) >> (room + 1);
      over |= (static_cast<u64>(b[i]) + (u64{1} << room)) >> (room + 1);
    }
    SABER_REQUIRE(over == 0, "Karatsuba operand exceeds its i32 lane");
  }
  const std::size_t len = n >> s, leaves = pow3(s);
  if (leaves < kKaratsubaLaneLeaves) {
    // Leaf-major: each leaf product sums from zero, then adds into its
    // zeroed slot for the merge (or into acc when a and b are the one leaf).
    std::array<W, 3 * ring::kN / 2> la, lb;
    std::array<W, 3 * (ring::kN - 1)> prods{};
    std::array<W, 2 * ring::kN - 1> tmp;
    const std::size_t pl = 2 * len - 1;
    if (s == 1) {
      karatsuba_split_g<W>(a, 1, std::span<W>(la), 1, len);
      karatsuba_split_g<W>(b, 1, std::span<W>(lb), 1, len);
    }
    for (std::size_t j = 0; j < leaves; ++j) {
      schoolbook_conv_g<W>(s ? std::span<const W>(la).subspan(j * len, len) : a,
                           s ? std::span<const W>(lb).subspan(j * len, len) : b,
                           std::span<W>(tmp).first(pl));
      const auto dst = s ? std::span<W>(prods).subspan(j * pl, pl) : acc;
      for (std::size_t k = 0; k < pl; ++k) dst[k] += tmp[k];
    }
    if (s == 1) karatsuba_merge_g<W>(prods, 1, 1, acc, {}, pl);
    return;
  }
  const LaneShape sh{len, (leaves + width - 1) / width * width, leaves};
  std::array<L, karatsuba_lane_words(false)> la, lb;
  std::array<W, karatsuba_lane_words(true)> prods;
  std::array<W, karatsuba_merge_words(ring::kN, 8)> scratch;
  const auto ta = std::span<L>(la).first(len * sh.lanes);
  const auto tb = std::span<L>(lb).first(len * sh.lanes);
  const auto tp = std::span<W>(prods).first((2 * len - 1) * sh.lanes);
  std::ranges::fill(ta, L{0});
  std::ranges::fill(tb, L{0});
  std::ranges::fill(tp, W{0});
  karatsuba_split_g<W, L>(a, s, ta, sh.lanes);
  karatsuba_split_g<W, L>(b, s, tb, sh.lanes);
  lane_conv_acc_g<V>(sh, tp, ta, tb);
  karatsuba_merge_g<W>(tp, sh.lanes, s, acc, scratch);
}

class KaratsubaMultiplier final : public PolyMultiplier {
 public:
  /// `levels`: number of splitting levels before falling back to schoolbook.
  explicit KaratsubaMultiplier(unsigned levels = 8);

  std::string_view name() const override { return name_; }
  unsigned levels() const { return levels_; }

 protected:
  /// Split-transform hook: karatsuba_acc_g straight into the accumulator
  /// (keeps the batched path subquadratic).
  void conv_accumulate(std::span<const i64> a, std::span<const i64> s,
                       std::span<i64> acc) const override;

 private:
  unsigned levels_;
  std::string name_;
};

}  // namespace saber::mult
