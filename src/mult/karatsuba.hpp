// Recursive Karatsuba linear convolution with configurable recursion depth.
//
// Depth 8 on 256-coefficient operands reaches 1-coefficient base cases — the
// "parallel 8-level Karatsuba" configuration of Zhu et al. [11] that the
// paper compares against in §5.2. Smaller depths model the hybrid
// Karatsuba/schoolbook trade-offs used by software implementations [6].
//
// The body runs heap-free over a fixed stack arena and multiplies in narrow
// lanes: the operands are narrowed once on entry to i32 and every product is
// an exact i32 x i32 -> i64 widening multiply into i64 accumulators.
#pragma once

#include <algorithm>
#include <array>

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

/// Do operands with |coefficient| <= bound stay inside the i32 lanes through
/// every pre-add level (each level sums two halves, doubling the bound)?
constexpr bool karatsuba_lanes_hold(i64 bound, std::size_t n, unsigned levels) {
  return (bound << karatsuba_splits(n, levels)) < (i64{1} << 31);
}

// Public x public at qbits 16 (centered |a| <= 2^15) at any depth on N
// coefficients: the karatsuba-<depth> backends and the karatsuba_hw core.
static_assert(karatsuba_lanes_hold(i64{1} << 15, ring::kN, 32),
              "Karatsuba operands at qbits 16 overflow the i32 lanes");

/// Leaves shorter than this multiply straight into their output (product
/// scanning); longer ones run the vectorized schoolbook over scratch, which
/// is faster from four coefficients on (-O3 -march=native, AVX-512).
inline constexpr std::size_t kKaratsubaScanLeaf = 4;

/// Accumulator words the recursion on n-coefficient operands carves from the
/// arena at any depth: a long leaf's 2n-1 product, or a split node's three
/// (n-1)-word sub-products plus the deepest child's own scratch. A short leaf
/// needs none.
constexpr std::size_t karatsuba_acc_scratch(std::size_t n) {
  const std::size_t leaf = n < kKaratsubaScanLeaf ? 0 : 2 * n - 1;
  if (n <= 1 || n % 2 != 0) return leaf;
  return std::max(leaf, 3 * (n - 1) + karatsuba_acc_scratch(n / 2));
}

/// Lane words for n-coefficient operands: the two narrowed operands plus the
/// pre-added halves of every split level.
constexpr std::size_t karatsuba_lane_scratch(std::size_t n) {
  std::size_t words = 2 * n;
  for (; n > 1 && n % 2 == 0; n /= 2) words += n;
  return words;
}

namespace detail {

/// Operand lane of accumulator word W: i32 under i64, plain or tainted. Any
/// other word (the op-counting word of the analysis tests) runs as itself.
template <typename W>
struct karatsuba_lane {
  using type = W;
};
template <>
struct karatsuba_lane<i64> {
  using type = i32;
};
template <>
struct karatsuba_lane<ct::Tainted<i64>> {
  using type = ct::Tainted<i32>;
};
template <typename W>
using karatsuba_lane_t = typename karatsuba_lane<W>::type;

/// `out` must be zero-initialized by the caller; results are accumulated so
/// the recombination can write into overlapping regions. Every node carves
/// its pre-added halves off the front of `lanes` and its three sub-products
/// off the front of `accs`, and hands the rest to its children. The recursion
/// shape depends only on operand lengths and `levels` — public values — so
/// the kernel is constant-time in the data for any word type.
template <typename W, typename L>
void karatsuba_rec_g(std::span<const L> a, std::span<const L> b, std::span<W> out,
                     unsigned levels, std::span<L> lanes, std::span<W> accs) {
  const std::size_t n = a.size();
  if (levels == 0 || n <= 1 || n % 2 != 0) {
    // Either way a leaf costs n^2 mults and n^2 + 2n - 1 adds, as
    // analysis::karatsuba_ops counts it: every output coefficient sums its
    // products from zero, then adds into `out` once.
    if (n < kKaratsubaScanLeaf) {
      for (std::size_t k = 0; k < 2 * n - 1; ++k) {
        const std::size_t lo = k < n ? 0 : k - n + 1, hi = k < n ? k : n - 1;
        W sum{0};
        for (std::size_t i = lo; i <= hi; ++i) sum += widening_mul<W>(a[i], b[k - i]);
        out[k] += sum;
      }
    } else {
      const auto tmp = accs.first(2 * n - 1);
      schoolbook_conv_g<W, L>(a, b, tmp);
      for (std::size_t i = 0; i < tmp.size(); ++i) out[i] += tmp[i];
    }
    return;
  }

  const std::size_t h = n / 2, m = n - 1;  // half length, sub-product length
  const auto a0 = a.first(h), a1 = a.subspan(h);
  const auto b0 = b.first(h), b1 = b.subspan(h);
  const auto as = lanes.first(h), bs = lanes.subspan(h, h);
  const auto z0 = accs.first(m), z2 = accs.subspan(m, m), zm = accs.subspan(2 * m, m);

  // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2.
  std::ranges::fill(accs.first(3 * m), W{0});
  lanes = lanes.subspan(n);
  accs = accs.subspan(3 * m);
  karatsuba_rec_g<W, L>(a0, b0, z0, levels - 1, lanes, accs);
  karatsuba_rec_g<W, L>(a1, b1, z2, levels - 1, lanes, accs);

  for (std::size_t i = 0; i < h; ++i) {
    as[i] = a0[i] + a1[i];
    bs[i] = b0[i] + b1[i];
  }
  karatsuba_rec_g<W, L>(as, bs, zm, levels - 1, lanes, accs);

  for (std::size_t i = 0; i < m; ++i) {
    const W z1 = zm[i] - z0[i] - z2[i];
    out[i] += z0[i];
    out[i + h] += z1;
    out[i + 2 * h] += z2[i];
  }
}

}  // namespace detail

/// Word-generic accumulating Karatsuba linear convolution, acc += a * b,
/// splitting `levels` times (or until operands shrink to an odd length).
/// Operands narrow to i32 lanes, so under plain i64 every coefficient must
/// lie in [-2^r, 2^r) with r = 31 - karatsuba_splits(n, levels); a violation
/// throws ContractViolation (one branch per call on the OR of branch-free
/// per-coefficient tests). Tainted words skip the check, which would branch
/// on secret data.
template <typename W>
void karatsuba_acc_g(std::span<const W> a, std::span<const W> b, std::span<W> acc,
                     unsigned levels) {
  using L = detail::karatsuba_lane_t<W>;
  // Sized for the longest operands the library multiplies; each node fills
  // the words it carves before reading them.
  constexpr std::size_t kMaxLen = ring::kN;
  std::array<L, karatsuba_lane_scratch(kMaxLen)> lanes;
  std::array<W, karatsuba_acc_scratch(kMaxLen)> accs;

  const std::size_t n = a.size();
  SABER_REQUIRE(n >= 1 && b.size() == n, "operands must have equal, nonzero length");
  SABER_REQUIRE(acc.size() == 2 * n - 1, "output length mismatch");
  SABER_REQUIRE(karatsuba_lane_scratch(n) <= lanes.size() &&
                    karatsuba_acc_scratch(n) <= accs.size(),
                "operands longer than the Karatsuba arena");

  const auto na = std::span<L>(lanes).first(n), nb = std::span<L>(lanes).subspan(n, n);
  if constexpr (std::is_same_v<L, W>) {
    std::ranges::copy(a, na.begin());
    std::ranges::copy(b, nb.begin());
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      na[i] = ct::cast<i32>(a[i]);
      nb[i] = ct::cast<i32>(b[i]);
    }
  }
  if constexpr (std::is_same_v<W, i64>) {
    // x fits iff x + 2^room lies in [0, 2^(room+1)); u64 wraps, so any
    // out-of-range x leaves a bit at or above room + 1.
    const unsigned room = 31 - karatsuba_splits(n, levels);
    u64 over = 0;
    for (std::size_t i = 0; i < n; ++i) {
      over |= (static_cast<u64>(a[i]) + (u64{1} << room)) >> (room + 1);
      over |= (static_cast<u64>(b[i]) + (u64{1} << room)) >> (room + 1);
    }
    SABER_REQUIRE(over == 0, "Karatsuba operand exceeds its i32 lane");
  }
  detail::karatsuba_rec_g<W, L>(na, nb, acc, levels,
                                std::span<L>(lanes).subspan(2 * n), std::span<W>(accs));
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
