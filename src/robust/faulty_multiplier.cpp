#include "robust/faulty_multiplier.hpp"

#include "common/check.hpp"
#include "multipliers/memory_map.hpp"

namespace saber::robust {

FaultyPolyMultiplier::FaultyPolyMultiplier(std::unique_ptr<mult::PolyMultiplier> inner,
                                           std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector)) {
  SABER_REQUIRE(static_cast<bool>(inner_), "inner multiplier required");
  SABER_REQUIRE(static_cast<bool>(injector_), "fault injector required");
  name_ = "faulty(" + std::string(inner_->name()) + ")";
}

ring::Poly FaultyPolyMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                          unsigned qbits) const {
  auto p = inner_->multiply(a, b, qbits);
  injector_->corrupt_product(p, qbits);
  return p;
}

std::vector<i64> FaultyPolyMultiplier::multiply_witness(const ring::Poly& a,
                                                        const ring::Poly& b,
                                                        unsigned qbits) const {
  auto w = inner_->multiply_witness(a, b, qbits);
  injector_->corrupt_witness(w);
  return w;
}

mult::Transformed FaultyPolyMultiplier::prepare_public(const ring::Poly& a,
                                                       unsigned qbits) const {
  return inner_->prepare_public(a, qbits);
}

mult::Transformed FaultyPolyMultiplier::prepare_secret(const ring::SecretPoly& s,
                                                       unsigned qbits) const {
  return inner_->prepare_secret(s, qbits);
}

mult::Transformed FaultyPolyMultiplier::make_accumulator() const {
  return inner_->make_accumulator();
}

void FaultyPolyMultiplier::pointwise_accumulate(mult::Transformed& acc,
                                                const mult::Transformed& a,
                                                const mult::Transformed& s) const {
  inner_->pointwise_accumulate(acc, a, s);
}

ring::Poly FaultyPolyMultiplier::finalize(const mult::Transformed& acc,
                                          unsigned qbits) const {
  auto p = inner_->finalize(acc, qbits);
  injector_->corrupt_product(p, qbits);
  return p;
}

std::vector<i64> FaultyPolyMultiplier::finalize_witness(
    const mult::Transformed& acc) const {
  auto w = inner_->finalize_witness(acc);
  injector_->corrupt_witness(w);
  return w;
}

std::size_t FaultyPolyMultiplier::max_accumulated_terms() const {
  return inner_->max_accumulated_terms();
}

FaultyHwMultiplier::FaultyHwMultiplier(std::unique_ptr<arch::HwMultiplier> inner,
                                       std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector)) {
  SABER_REQUIRE(static_cast<bool>(inner_), "inner architecture required");
  SABER_REQUIRE(static_cast<bool>(injector_), "fault injector required");
  name_ = "faulty(" + std::string(inner_->name()) + ")";
}

FaultyHwMultiplier::FaultyHwMultiplier(std::string_view arch_name, u64 seed)
    : FaultyHwMultiplier(arch::make_architecture(arch_name),
                         std::make_shared<FaultInjector>(seed)) {}

void FaultyHwMultiplier::set_fault(std::size_t index, unsigned bit) {
  injector_->disarm(FaultSite::kProduct);
  injector_->arm(FaultSpec::permanent_flip(FaultSite::kProduct, bit, index));
}

arch::MultiplierResult FaultyHwMultiplier::multiply(const ring::Poly& a,
                                                    const ring::SecretPoly& s,
                                                    const ring::Poly* accumulate) {
  auto res = inner_->multiply(a, s, accumulate);
  injector_->corrupt_product(res.product, arch::MemoryMap::kQBits);
  return res;
}

}  // namespace saber::robust
