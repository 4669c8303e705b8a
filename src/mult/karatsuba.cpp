#include "mult/karatsuba.hpp"

namespace saber::mult {

KaratsubaMultiplier::KaratsubaMultiplier(unsigned levels)
    : levels_(levels), name_("karatsuba-" + std::to_string(levels)) {}

void KaratsubaMultiplier::conv_accumulate(std::span<const i64> a, std::span<const i64> s,
                                          std::span<i64> acc) const {
  karatsuba_acc_g(a, s, acc, levels_);
}

}  // namespace saber::mult
