#include "mult/multiplier.hpp"

#include "common/check.hpp"
#include "mult/schoolbook.hpp"

namespace saber::mult {

// Default split-transform path, shared by every convolution algorithm: the
// "transform" is the centered coefficient lift, the accumulator is the raw
// signed linear convolution of length 2N-1, and finalize is the negacyclic
// fold. This already amortizes the per-term Poly copies, lifts and masking of
// the naive per-product loop; Toom-Cook and NTT override the whole API to
// cache their genuinely expensive transforms as well.

ring::Poly PolyMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                    unsigned qbits) const {
  return reduce_witness<ring::kN>(std::span<const i64>(multiply_witness(a, b, qbits)),
                                  qbits);
}

std::vector<i64> PolyMultiplier::multiply_witness(const ring::Poly& a,
                                                  const ring::Poly& b,
                                                  unsigned qbits) const {
  auto acc = make_accumulator();
  pointwise_accumulate(acc, prepare_public(a, qbits), prepare_public(b, qbits));
  return finalize_witness(acc);
}

Transformed PolyMultiplier::prepare_public(const ring::Poly& a, unsigned qbits) const {
  return centered_lift(a, qbits);
}

// Small signed secrets embed into Z directly: qbits is unused.
Transformed PolyMultiplier::prepare_secret(const ring::SecretPoly& s, unsigned) const {
  return lift_secret(s);
}

Transformed PolyMultiplier::make_accumulator() const {
  return Transformed(2 * ring::kN - 1, 0);
}

void PolyMultiplier::pointwise_accumulate(Transformed& acc, const Transformed& a,
                                          const Transformed& s) const {
  conv_accumulate(a, s, acc);
}

ring::Poly PolyMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  return fold_negacyclic<ring::kN>(std::span<const i64>(acc), qbits);
}

std::vector<i64> PolyMultiplier::finalize_witness(const Transformed& acc) const {
  // Convolution-domain accumulator: the accumulator IS the exact signed
  // linear convolution, so the witness is a copy.
  SABER_REQUIRE(acc.size() == 2 * ring::kN - 1,
                "convolution witness: accumulator length mismatch");
  return acc;
}

std::size_t PolyMultiplier::max_accumulated_terms() const {
  // Convolution-domain accumulator: one product contributes at most
  // N * (q/2) * |s|_max <= 2^8 * 2^15 * 2^7 = 2^30 per coefficient, and the
  // negacyclic fold subtracts two accumulated coefficients (2^31 per term).
  // 2^30 terms stay below 2^61, two bits inside i64.
  return std::size_t{1} << 30;
}

void PolyMultiplier::conv_accumulate(std::span<const i64> a, std::span<const i64> s,
                                     std::span<i64> acc) const {
  schoolbook_acc_g(a, s, acc);
}

}  // namespace saber::mult
