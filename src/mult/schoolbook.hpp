// Schoolbook negacyclic multiplication (Algorithm 1 of the paper): the
// functional reference against which every other algorithm and every
// cycle-accurate hardware model is checked.
#pragma once

#include <algorithm>
#include <type_traits>

#include "mult/multiplier.hpp"

namespace saber::mult {

/// Exact product of two operand lanes in the accumulator word W: an
/// i32 x i32 -> i64 widening multiply when the lanes are narrower than W (plain
/// or tainted), the plain product otherwise.
template <typename W, typename L>
constexpr W widening_mul(const L& x, const L& y) {
  if constexpr (std::is_same_v<L, W>) {
    return x * y;
  } else {
    return ct::cast<ct::raw_t<W>>(x) * ct::cast<ct::raw_t<W>>(y);
  }
}

/// Word-generic accumulating signed integer linear convolution,
/// acc += a * b with acc.size() == a.size() + b.size() - 1. The operands may
/// be narrower lanes L of the accumulator word W (see widening_mul). Purely
/// multiply-accumulate with loop-counter indexing — constant-time in the data
/// by construction. (L is never deduced: W comes from `acc`.)
template <typename W, typename L = W>
void schoolbook_acc_g(std::span<const std::type_identity_t<L>> a,
                      std::span<const std::type_identity_t<L>> b, std::span<W> acc) {
  const std::size_t n = a.size(), m = b.size();
  SABER_REQUIRE(n >= 1 && m >= 1 && acc.size() == n + m - 1, "output length mismatch");
  // Rows in pairs: one pass over acc adds row i's term and row i+1's
  // (shifted one place), so each acc word is loaded and stored once per
  // pair. Every product a_i * b_j is still formed and added exactly once.
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc[i] += widening_mul<W>(a[i], b[0]);
    for (std::size_t j = 1; j < m; ++j) {
      acc[i + j] += widening_mul<W>(a[i], b[j]);
      acc[i + j] += widening_mul<W>(a[i + 1], b[j - 1]);
    }
    acc[i + m] += widening_mul<W>(a[i + 1], b[m - 1]);
  }
  if (i < n) {
    for (std::size_t j = 0; j < m; ++j) acc[i + j] += widening_mul<W>(a[i], b[j]);
  }
}

/// Non-accumulating form: out = a * b.
template <typename W, typename L = W>
void schoolbook_conv_g(std::span<const std::type_identity_t<L>> a,
                       std::span<const std::type_identity_t<L>> b, std::span<W> out) {
  std::ranges::fill(out, W{0});
  schoolbook_acc_g<W, L>(a, b, out);
}

class SchoolbookMultiplier final : public PolyMultiplier {
 public:
  std::string_view name() const override { return "schoolbook"; }
};

}  // namespace saber::mult
