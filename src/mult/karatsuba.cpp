#include "mult/karatsuba.hpp"

#include "common/check.hpp"

namespace saber::mult {

void karatsuba_conv(std::span<const i64> a, std::span<const i64> b, std::span<i64> out,
                    unsigned levels, OpCounts& ops) {
  std::ranges::fill(out, 0);
  karatsuba_acc_g(a, b, out, levels, ops);
}

KaratsubaMultiplier::KaratsubaMultiplier(unsigned levels)
    : levels_(levels), name_("karatsuba-" + std::to_string(levels)) {}

void KaratsubaMultiplier::conv_accumulate(std::span<const i64> a, std::span<const i64> s,
                                          std::span<i64> acc) const {
  karatsuba_acc_g(a, s, acc, levels_, ops_);
}

}  // namespace saber::mult
