// Pass-through timing decorators over the public multiplier interfaces.
//
// TracedMultiplier wraps a mult::PolyMultiplier and records one span per
// call, named "<layer>.<method>" (layer "mult" for a backend, "robust" for
// the supervised facade). It forwards name(), because KemBatch and the
// prepared transforms require every worker's multiplier to report the same
// name as the one that prepared them. MonitoredTracedMultiplier also
// forwards the wrapped FaultMonitor, which KemBatch finds by dynamic_cast
// to classify recovered items.
//
// TracedHwMultiplier wraps an arch::HwMultiplier, records one span per
// product and always counts products and their simulated cycles (two adds
// per product of a cycle-accurate run, so it stays in untraced runs too).
#pragma once

#include <array>
#include <memory>
#include <string>

#include "common/faults.hpp"
#include "mult/multiplier.hpp"
#include "multipliers/hw_multiplier.hpp"

namespace kembench {

class TracedMultiplier : public saber::mult::PolyMultiplier {
 public:
  TracedMultiplier(std::shared_ptr<const saber::mult::PolyMultiplier> inner,
                   std::string_view layer);

  std::string_view name() const override { return inner_->name(); }

  saber::ring::Poly multiply(const saber::ring::Poly& a, const saber::ring::Poly& b,
                             unsigned qbits) const override;
  saber::mult::Transformed prepare_public(const saber::ring::Poly& a,
                                          unsigned qbits) const override;
  saber::mult::Transformed prepare_secret(const saber::ring::SecretPoly& s,
                                          unsigned qbits) const override;
  saber::mult::Transformed make_accumulator() const override;
  void pointwise_accumulate(saber::mult::Transformed& acc,
                            const saber::mult::Transformed& a,
                            const saber::mult::Transformed& s) const override;
  saber::ring::Poly finalize(const saber::mult::Transformed& acc,
                             unsigned qbits) const override;
  std::vector<saber::i64> finalize_witness(
      const saber::mult::Transformed& acc) const override;
  std::size_t max_accumulated_terms() const override;

 protected:
  const saber::mult::PolyMultiplier& inner() const { return *inner_; }

 private:
  enum Method { kMultiply, kPreparePublic, kPrepareSecret, kPointwise, kFinalize, kMethods };
  std::shared_ptr<const saber::mult::PolyMultiplier> inner_;
  std::array<const char*, kMethods> span_names_{};
};

class MonitoredTracedMultiplier final : public TracedMultiplier,
                                        public saber::FaultMonitor {
 public:
  MonitoredTracedMultiplier(std::shared_ptr<const saber::mult::PolyMultiplier> inner,
                            std::string_view layer);

  saber::FaultCounters fault_counters() const override {
    return monitor_->fault_counters();
  }

 private:
  const saber::FaultMonitor* monitor_;
};

class TracedHwMultiplier final : public saber::arch::HwMultiplier {
 public:
  explicit TracedHwMultiplier(std::unique_ptr<saber::arch::HwMultiplier> inner);

  std::string_view name() const override { return inner_->name(); }
  saber::arch::MultiplierResult multiply(
      const saber::ring::Poly& a, const saber::ring::SecretPoly& s,
      const saber::ring::Poly* accumulate = nullptr) override;
  const saber::hw::AreaLedger& area() const override { return inner_->area(); }
  unsigned logic_depth() const override { return inner_->logic_depth(); }
  saber::u64 headline_cycles() const override { return inner_->headline_cycles(); }
  bool headline_includes_overhead() const override {
    return inner_->headline_includes_overhead();
  }
  void set_fault_hook(saber::hw::FaultHook* hook) override { inner_->set_fault_hook(hook); }

  saber::u64 products() const { return products_; }
  saber::u64 cycles() const { return cycles_; }

 private:
  std::unique_ptr<saber::arch::HwMultiplier> inner_;
  saber::u64 products_ = 0;
  saber::u64 cycles_ = 0;  ///< sum of MultiplierResult::cycles.total
};

}  // namespace kembench
