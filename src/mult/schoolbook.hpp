// Schoolbook negacyclic multiplication (Algorithm 1 of the paper): the
// functional reference against which every other algorithm and every
// cycle-accurate hardware model is checked.
#pragma once

#include <algorithm>

#include "mult/multiplier.hpp"

namespace saber::mult {

/// Word-generic accumulating signed integer linear convolution,
/// acc += a * b with acc.size() == a.size() + b.size() - 1. Purely
/// multiply-accumulate with loop-counter indexing — constant-time in the data
/// by construction.
template <typename W>
void schoolbook_acc_g(std::span<const W> a, std::span<const W> b, std::span<W> acc) {
  SABER_REQUIRE(acc.size() == a.size() + b.size() - 1, "output length mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      acc[i + j] += a[i] * b[j];
    }
  }
}

/// Non-accumulating form: out = a * b.
template <typename W>
void schoolbook_conv_g(std::span<const W> a, std::span<const W> b, std::span<W> out) {
  std::ranges::fill(out, W{0});
  schoolbook_acc_g(a, b, out);
}

class SchoolbookMultiplier final : public PolyMultiplier {
 public:
  std::string_view name() const override { return "schoolbook"; }
};

}  // namespace saber::mult
