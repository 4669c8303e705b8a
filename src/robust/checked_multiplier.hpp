// Runtime-verified multiplier decorators: detect, retry, fail over.
//
// A single stuck-at or transient bit in a MAC, DSP or BRAM silently corrupts
// the product — and through it the KEM shared secret. CheckedMultiplier
// wraps any software PolyMultiplier (CheckedHwMultiplier any cycle-accurate
// HwMultiplier) and cross-checks products against an independent reference
// backend (schoolbook by default):
//
//   policy kFull     every product is verified (the acceptance bar:
//                    100% detection of single-bit product faults);
//   policy kOff      pass-through (for overhead baselines).
//
// On a mismatch the decorator (1) records a fault event, (2) recomputes once
// on the same backend — a transient fault does not repeat, so the retry
// usually clears it — and (3) if the retry still disagrees, fails over to
// the reference result, re-deriving it a second time so a fault inside the
// reference itself cannot be silently trusted (two disagreeing reference
// runs throw FaultDetectedError). Either way the caller receives a correct
// product: the KEM result survives the fault.
//
// The split-transform path is covered too: a checked operand keeps its raw
// coefficients (packed) and its evaluations at every point-check root after
// the inner backend's image, and an accumulator its raw pairs and per-root
// sums. finalize() can then rebuild a reference sum, replay the inner
// pipeline on retry, or point-check by evaluating only the witness. The same
// decorator is BackendSupervisor's worker facade (supervisor.hpp), where the
// raw operands let a transform be re-prepared, or an accumulator replayed,
// on another backend after a quarantine.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "mult/multiplier.hpp"
#include "multipliers/hw_multiplier.hpp"

namespace saber::robust {

enum class CheckPolicy : u8 { kOff, kFull };

std::string_view to_string(CheckPolicy policy);

/// How a checked product is verified (the *when* is CheckPolicy's job):
///
///   kReference  re-derive via the independent reference backend and compare
///               (~1.8-1.9x a toom3 multiply; catches anything, bar nothing);
///   kPointEval  run the inner split pipeline, obtain the exact-integer
///               witness (PolyMultiplier::finalize_witness) and check
///               sum_k a_k(x0) * s_k(x0) == w(x0) mod a ~2^60 prime (~1.1x;
///               the product is then the fold of the verified witness).
///
/// The kinds differ only in that verify step: a failed point check falls
/// back to the reference backend as arbiter, so recovery is the same ladder.
enum class CheckKind : u8 { kReference, kPointEval };

std::string_view to_string(CheckKind kind);

struct CheckedConfig {
  CheckPolicy policy = CheckPolicy::kFull;
  CheckKind kind = CheckKind::kReference;
};

/// One detected fault and how it was resolved.
struct FaultRecord {
  enum class Path : u8 { kMultiply, kFinalize, kHardware };
  enum class Resolution : u8 { kRetry, kFailover };
  Path path;
  Resolution resolution;
  unsigned qbits;
};

class BackendBreaker;  // supervisor.hpp

class CheckedMultiplier final : public mult::PolyMultiplier, public FaultMonitor {
 public:
  /// `fallback == nullptr` uses an independent schoolbook reference. The
  /// fallback must be a different physical instance from `inner` (and for
  /// real fault isolation, a different algorithm).
  explicit CheckedMultiplier(std::unique_ptr<mult::PolyMultiplier> inner,
                             CheckedConfig config = {},
                             std::unique_ptr<mult::PolyMultiplier> fallback = nullptr);

  std::string_view name() const override { return name_; }

  /// Snapshot of the fault statistics. Safe to call from a monitoring thread
  /// while another thread is multiplying through this instance: all stat
  /// mutation and both accessors synchronize on an internal mutex (the
  /// batch pipeline snapshots counters around every item).
  FaultCounters fault_counters() const override;
  std::vector<FaultRecord> fault_log() const;

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override;

  mult::Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  mult::Transformed prepare_secret(const ring::SecretPoly& s,
                                   unsigned qbits) const override;
  mult::Transformed make_accumulator() const override;
  void pointwise_accumulate(mult::Transformed& acc, const mult::Transformed& a,
                            const mult::Transformed& s) const override;
  ring::Poly finalize(const mult::Transformed& acc, unsigned qbits) const override;
  std::size_t max_accumulated_terms() const override;

 private:
  friend class BackendSupervisor;  // builds the supervised instances
  friend class BackendBreaker;     // probes a backend through multiply_on

  /// The supervisor's worker facade: `backends` (at least one) in failover
  /// priority order, every operation routed by the shared `breaker`.
  CheckedMultiplier(std::vector<std::unique_ptr<mult::PolyMultiplier>> backends,
                    CheckedConfig config, std::shared_ptr<BackendBreaker> breaker);

  /// Run `product(k, faults)` on the backend the breaker routes to (backend
  /// 0 without one) and report the faults it confirmed back to the breaker.
  template <class Product>
  ring::Poly routed(Product product) const;
  /// One checked multiply on backend k; adds its confirmed faults to `faults`.
  ring::Poly multiply_on(std::size_t k, const ring::Poly& a, const ring::Poly& b,
                         unsigned qbits, u64& faults) const;

  std::vector<std::unique_ptr<mult::PolyMultiplier>> backends_;
  std::unique_ptr<mult::PolyMultiplier> fallback_;
  std::shared_ptr<BackendBreaker> breaker_;  ///< null unless supervised
  CheckedConfig config_;
  std::string name_;
  mutable std::mutex stats_mu_;  ///< guards counters_, log_
  mutable FaultCounters counters_;
  mutable std::vector<FaultRecord> log_;
};

/// Convenience: checked decorator over a strategy resolved by name.
std::unique_ptr<CheckedMultiplier> make_checked(std::string_view inner_name,
                                                CheckedConfig config = {});

/// Checked decorator over a cycle-accurate architecture model. Verification
/// compares the hardware product against an independent software reference
/// (schoolbook by default) at the hardware modulus 2^13; on mismatch the
/// multiplication is re-run once on the model, then failed over to the
/// reference product (cycle statistics stay those of the hardware runs).
class CheckedHwMultiplier final : public arch::HwMultiplier, public FaultMonitor {
 public:
  explicit CheckedHwMultiplier(std::unique_ptr<arch::HwMultiplier> inner,
                               CheckedConfig config = {},
                               std::unique_ptr<mult::PolyMultiplier> reference = nullptr);

  std::string_view name() const override { return name_; }
  FaultCounters fault_counters() const override { return counters_; }
  const std::vector<FaultRecord>& fault_log() const { return log_; }

  arch::MultiplierResult multiply(const ring::Poly& a, const ring::SecretPoly& s,
                                  const ring::Poly* accumulate = nullptr) override;
  const hw::AreaLedger& area() const override { return inner_->area(); }
  unsigned logic_depth() const override { return inner_->logic_depth(); }
  u64 headline_cycles() const override { return inner_->headline_cycles(); }
  bool headline_includes_overhead() const override {
    return inner_->headline_includes_overhead();
  }
  void set_fault_hook(hw::FaultHook* hook) override { inner_->set_fault_hook(hook); }

  /// Cycle-budget watchdog violations. The architecture FSMs are
  /// data-independent, so every run must (a) match the paper Table 1 budget
  /// (`total` when the headline includes overhead, `compute + pipeline`
  /// otherwise) and (b) take exactly as many total cycles as the first run.
  /// A datapath fault cannot change control flow, so a nonzero count means
  /// the *model* broke its timing contract, not that a fault was injected.
  u64 cycle_violations() const { return cycle_violations_; }

 private:
  void check_cycles(const hw::CycleStats& cycles);

  std::unique_ptr<arch::HwMultiplier> inner_;
  std::unique_ptr<mult::PolyMultiplier> reference_;
  CheckedConfig config_;
  std::string name_;
  FaultCounters counters_;
  std::vector<FaultRecord> log_;
  u64 baseline_total_ = 0;  ///< first run's total cycle count
  u64 cycle_violations_ = 0;
};

}  // namespace saber::robust
