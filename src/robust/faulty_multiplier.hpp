// Fault-injecting decorators over the software and hardware multipliers.
//
// These replace the test-local `FaultyMultiplier` hack that used to live in
// tests/fault_test.cpp: corruption is now driven by a shared, seedable
// FaultInjector (kProduct site), so campaigns are deterministic and the same
// machinery serves unit tests, the robustness acceptance tests and the fault
// benchmark. Both wrappers corrupt the *finished product* — the observable
// effect of any single datapath fault that survives to the result — which is
// exactly what the checked decorators must detect.
#pragma once

#include <memory>
#include <string>

#include "mult/multiplier.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "robust/fault_injector.hpp"

namespace saber::robust {

/// Software backend wrapper: every product (multiply() and the split
/// finalize() path alike) passes through the injector's armed kProduct specs.
class FaultyPolyMultiplier final : public mult::PolyMultiplier {
 public:
  FaultyPolyMultiplier(std::unique_ptr<mult::PolyMultiplier> inner,
                       std::shared_ptr<FaultInjector> injector);

  std::string_view name() const override { return name_; }
  FaultInjector& injector() { return *injector_; }

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override;
  std::vector<i64> multiply_witness(const ring::Poly& a, const ring::Poly& b,
                                    unsigned qbits) const override;

  mult::Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  mult::Transformed prepare_secret(const ring::SecretPoly& s,
                                   unsigned qbits) const override;
  mult::Transformed make_accumulator() const override;
  void pointwise_accumulate(mult::Transformed& acc, const mult::Transformed& a,
                            const mult::Transformed& s) const override;
  ring::Poly finalize(const mult::Transformed& acc, unsigned qbits) const override;
  std::vector<i64> finalize_witness(const mult::Transformed& acc) const override;
  std::size_t max_accumulated_terms() const override;

 private:
  std::unique_ptr<mult::PolyMultiplier> inner_;
  std::shared_ptr<FaultInjector> injector_;
  std::string name_;
};

/// Hardware architecture wrapper: corrupts MultiplierResult::product after
/// the cycle-accurate run. Cycle/area/power reporting passes through.
class FaultyHwMultiplier final : public arch::HwMultiplier {
 public:
  FaultyHwMultiplier(std::unique_ptr<arch::HwMultiplier> inner,
                     std::shared_ptr<FaultInjector> injector);

  /// Convenience used by the fault tests: wrap an architecture by factory
  /// name with a fresh injector.
  explicit FaultyHwMultiplier(std::string_view arch_name, u64 seed = 0);

  std::string_view name() const override { return name_; }
  FaultInjector& injector() { return *injector_; }

  /// Legacy single-stuck-at shorthand (the old test hack's set_fault): flips
  /// `bit` of coefficient `index` in every product from now on. Replaces any
  /// previously armed product faults.
  void set_fault(std::size_t index, unsigned bit);

  arch::MultiplierResult multiply(const ring::Poly& a, const ring::SecretPoly& s,
                                  const ring::Poly* accumulate = nullptr) override;
  const hw::AreaLedger& area() const override { return inner_->area(); }
  unsigned logic_depth() const override { return inner_->logic_depth(); }
  u64 headline_cycles() const override { return inner_->headline_cycles(); }
  bool headline_includes_overhead() const override {
    return inner_->headline_includes_overhead();
  }
  /// Forwarded so product-level and datapath-level injection can stack.
  void set_fault_hook(hw::FaultHook* hook) override { inner_->set_fault_hook(hook); }

 private:
  std::unique_ptr<arch::HwMultiplier> inner_;
  std::shared_ptr<FaultInjector> injector_;
  std::string name_;
};

}  // namespace saber::robust
