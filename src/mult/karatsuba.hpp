// Recursive Karatsuba linear convolution with configurable recursion depth.
//
// Depth 8 on 256-coefficient operands reaches 1-coefficient base cases — the
// "parallel 8-level Karatsuba" configuration of Zhu et al. [11] that the
// paper compares against in §5.2. Smaller depths model the hybrid
// Karatsuba/schoolbook trade-offs used by software implementations [6].
#pragma once

#include <vector>

#include "mult/multiplier.hpp"
#include "mult/schoolbook.hpp"

namespace saber::mult {

namespace detail {

// out must be zero-initialized by the caller; results are accumulated so the
// recombination can write into overlapping regions without scratch copies.
// The recursion shape depends only on operand lengths and `levels` — public
// values — so the kernel is constant-time in the data for any word type.
template <typename W>
void karatsuba_rec_g(std::span<const W> a, std::span<const W> b, std::span<W> out,
                     unsigned levels) {
  const std::size_t n = a.size();
  SABER_REQUIRE(b.size() == n, "operands must have equal length");
  if (levels == 0 || n == 1 || n % 2 != 0) {
    std::vector<W> tmp(2 * n - 1);
    schoolbook_conv_g(std::span<const W>(a), std::span<const W>(b), std::span<W>(tmp));
    for (std::size_t i = 0; i < tmp.size(); ++i) out[i] += tmp[i];
    return;
  }

  const std::size_t h = n / 2;
  const auto a0 = a.first(h), a1 = a.subspan(h);
  const auto b0 = b.first(h), b1 = b.subspan(h);

  // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2.
  std::vector<W> z0(2 * h - 1, W{0}), z2(2 * h - 1, W{0}), zm(2 * h - 1, W{0});
  karatsuba_rec_g<W>(a0, b0, z0, levels - 1);
  karatsuba_rec_g<W>(a1, b1, z2, levels - 1);

  std::vector<W> as(h), bs(h);
  for (std::size_t i = 0; i < h; ++i) {
    as[i] = a0[i] + a1[i];
    bs[i] = b0[i] + b1[i];
  }
  karatsuba_rec_g<W>(as, bs, zm, levels - 1);

  for (std::size_t i = 0; i < 2 * h - 1; ++i) {
    const W z1 = zm[i] - z0[i] - z2[i];
    out[i] += z0[i];
    out[i + h] += z1;
    out[i + 2 * h] += z2[i];
  }
}

}  // namespace detail

/// Word-generic accumulating Karatsuba linear convolution, acc += a * b,
/// splitting `levels` times (or until operands shrink to a single
/// coefficient).
template <typename W>
void karatsuba_acc_g(std::span<const W> a, std::span<const W> b, std::span<W> acc,
                     unsigned levels) {
  SABER_REQUIRE(acc.size() == a.size() + b.size() - 1, "output length mismatch");
  detail::karatsuba_rec_g<W>(a, b, acc, levels);
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
