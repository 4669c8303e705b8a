// §5.1 comparisons (experiment E5): the lightweight multiplier against
// software and co-processor implementations, plus algorithm-level operation
// counts for the software multiplication strategies.
#pragma once

#include <cstddef>
#include <string>

#include "mult/multiplier.hpp"

namespace saber::analysis {

/// Coefficient-level operation counts of one product.
struct OpCounts {
  u64 coeff_mults = 0;  ///< word x word multiplications
  u64 coeff_adds = 0;   ///< word additions/subtractions

  friend bool operator==(const OpCounts&, const OpCounts&) = default;
};

/// Operations of karatsuba_acc_g on two n-coefficient operands split
/// `levels` times: the recursion C(n, L). A base case (L = 0, n = 1 or n odd)
/// costs n^2 mults and n^2 + 2n - 1 adds (the schoolbook convolution and its
/// add into the output); a split node costs 3 C(n/2, L - 1) plus n adds for
/// the operand sums and 5 (n - 1) for the recombination.
OpCounts karatsuba_ops(std::size_t n, unsigned levels);

/// Operations of one public x public `multiply` on `m` at qbits 13, as a
/// closed form in the public lengths (the kernels' loop shapes never depend
/// on the data): schoolbook N^2; Karatsuba C(N, levels); Toom-Cook two
/// evaluations, one C(part, 32) limb product per point and the
/// interpolation; NTT the two-prime multiply_witness path. The Karatsuba
/// depth and the Toom order are read off the instance. Throws
/// ContractViolation for any other backend.
OpCounts product_ops(const mult::PolyMultiplier& m);

/// Software/coprocessor comparison table: our LW cycles (measured) next to
/// the literature numbers the paper quotes ([6] M4 Toom-Cook, [14] M4 NTT,
/// RISQ-V [9]), with the area/power context of §5.1.
std::string render_lightweight_comparison();

/// Operation counts (product_ops) of the software multiplication algorithms
/// for one 256-coefficient multiplication, with the wall-clock measured on
/// this host (complements bench_sw_mult's google-benchmark timings).
std::string render_algorithm_ops();

}  // namespace saber::analysis
