#include "mult/schoolbook.hpp"

#include "common/check.hpp"

namespace saber::mult {

void schoolbook_conv(std::span<const i64> a, std::span<const i64> b, std::span<i64> out,
                     OpCounts& ops) {
  schoolbook_conv_g(a, b, out, ops);
}

}  // namespace saber::mult
