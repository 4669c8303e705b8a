#include "traced.hpp"

#include <stdexcept>

#include "trace.hpp"

namespace kembench {

using saber::mult::Transformed;
namespace ring = saber::ring;

TracedMultiplier::TracedMultiplier(
    std::shared_ptr<const saber::mult::PolyMultiplier> inner, std::string_view layer)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("TracedMultiplier: null inner multiplier");
  static constexpr std::array<std::string_view, kMethods> kSuffix = {
      "multiply", "prepare_public", "prepare_secret", "pointwise", "finalize"};
  for (std::size_t i = 0; i < kMethods; ++i) {
    span_names_[i] = trace::intern(std::string(layer) + "." + std::string(kSuffix[i]));
  }
}

ring::Poly TracedMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                      unsigned qbits) const {
  const trace::Scope span(span_names_[kMultiply]);
  return inner_->multiply(a, b, qbits);
}

Transformed TracedMultiplier::prepare_public(const ring::Poly& a, unsigned qbits) const {
  const trace::Scope span(span_names_[kPreparePublic]);
  return inner_->prepare_public(a, qbits);
}

Transformed TracedMultiplier::prepare_secret(const ring::SecretPoly& s,
                                             unsigned qbits) const {
  const trace::Scope span(span_names_[kPrepareSecret]);
  return inner_->prepare_secret(s, qbits);
}

Transformed TracedMultiplier::make_accumulator() const { return inner_->make_accumulator(); }

void TracedMultiplier::pointwise_accumulate(Transformed& acc, const Transformed& a,
                                            const Transformed& s) const {
  const trace::Scope span(span_names_[kPointwise]);
  inner_->pointwise_accumulate(acc, a, s);
}

ring::Poly TracedMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  const trace::Scope span(span_names_[kFinalize]);
  return inner_->finalize(acc, qbits);
}

// The exact-witness form of finalize (what the algebraic checkers call) is
// the same pipeline stage, so it shares finalize's span name.
std::vector<saber::i64> TracedMultiplier::finalize_witness(const Transformed& acc) const {
  const trace::Scope span(span_names_[kFinalize]);
  return inner_->finalize_witness(acc);
}

std::size_t TracedMultiplier::max_accumulated_terms() const {
  return inner_->max_accumulated_terms();
}

MonitoredTracedMultiplier::MonitoredTracedMultiplier(
    std::shared_ptr<const saber::mult::PolyMultiplier> inner, std::string_view layer)
    : TracedMultiplier(std::move(inner), layer),
      monitor_(dynamic_cast<const saber::FaultMonitor*>(&this->inner())) {
  if (monitor_ == nullptr) {
    throw std::invalid_argument("MonitoredTracedMultiplier: inner is not a FaultMonitor");
  }
}

TracedHwMultiplier::TracedHwMultiplier(std::unique_ptr<saber::arch::HwMultiplier> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("TracedHwMultiplier: null inner core");
}

saber::arch::MultiplierResult TracedHwMultiplier::multiply(const ring::Poly& a,
                                                          const ring::SecretPoly& s,
                                                          const ring::Poly* accumulate) {
  const trace::Scope span("multipliers.multiply");
  auto res = inner_->multiply(a, s, accumulate);
  ++products_;
  cycles_ += res.cycles.total;
  return res;
}

}  // namespace kembench
