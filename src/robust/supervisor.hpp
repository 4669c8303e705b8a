// Backend circuit breaker: quarantine a faulting multiplier backend, fail
// over to the next healthy one, and readmit it once it proves itself again.
//
// The checked decorators (checked_multiplier.hpp) repair individual faulty
// products, but a backend with a *persistent* defect (a stuck-at bit) pays
// the full detect-retry-failover cost on every single multiplication. The
// BackendSupervisor adds the service-level view: it watches per-backend
// confirmed-fault counts across all worker threads and runs a classic
// circuit breaker per backend:
//
//   kClosed    healthy; calls route here (first closed backend in priority
//              order wins).
//   kOpen      quarantined after `quarantine_after` confirmed faults; calls
//              route around it to the next healthy backend. After
//              `probe_after` routed-around calls the breaker half-opens.
//   kHalfOpen  the next call first re-probes the backend with a known-answer
//              self-test (fixed operands vs a precomputed schoolbook
//              product, fault-checking enabled). `probes_to_close`
//              consecutive passes close the breaker (readmission, fault
//              count reset); a failure re-opens it.
//
// If every backend is open, the last backend in priority order is used
// anyway — its products still pass through the checked decorator, so the
// caller keeps receiving correct (verified or failed-over) values; the
// supervisor merely loses the luxury of choice.
//
// Thread model: the supervisor hands each KemBatch worker its own
// CheckedMultiplier via make_worker_multiplier(): one instance over every
// backend in priority order, with the worker's own fault counters, sharing
// only the mutex-guarded breaker below (whose split-path pick() reads an
// atomic instead).
// Split-transform caching stays sound across health changes, lazily: a
// prepared transform holds only the active backend's image next to its raw
// operand, so the no-fault path pays one checked backend's prepare cost. A
// step routed elsewhere after a quarantine re-prepares from the raw operand,
// and an accumulator migrates by replaying its raw pairs; shared transforms
// stay immutable (checked_multiplier.cpp owns the layout).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/faults.hpp"
#include "mult/multiplier.hpp"
#include "robust/checked_multiplier.hpp"

namespace saber::robust {

enum class BreakerState : u8 { kClosed, kOpen, kHalfOpen };

std::string_view to_string(BreakerState state);

struct SupervisorConfig {
  u64 quarantine_after = 3;  ///< confirmed faults that open the breaker
  u64 probe_after = 8;       ///< routed-around calls before half-opening
  u64 probes_to_close = 1;   ///< consecutive probe passes to readmit
  CheckedConfig check;       ///< per-backend product checking
};

/// Snapshot of one backend's breaker.
struct BackendStatus {
  std::string name;
  BreakerState state = BreakerState::kClosed;
  u64 confirmed_faults = 0;  ///< mismatches since the last readmission
  u64 quarantines = 0;       ///< closed -> open transitions
  u64 readmissions = 0;      ///< half-open -> closed transitions
  u64 probe_failures = 0;    ///< half-open -> open transitions
  u64 calls = 0;             ///< operations routed to this backend
  u64 routed_around = 0;     ///< operations that skipped it while unhealthy
  u64 prepares = 0;          ///< transform images materialized at prepare_* time
  u64 lazy_prepares = 0;     ///< images re-prepared on demand after a failover
};

/// Builds backend instance `i` (of the priority-ordered name list). Lets
/// tests substitute fault-injecting backends; the default resolves
/// mult::make_multiplier(names[i]).
using BackendFactory =
    std::function<std::unique_ptr<mult::PolyMultiplier>(std::size_t)>;

/// The breaker state one supervisor's worker multipliers share: every
/// backend's state machine under one mutex. The checked decorator consults
/// it around every operation of a supervised instance.
class BackendBreaker {
 public:
  BackendBreaker(std::vector<std::string> names, const SupervisorConfig& config);

  const SupervisorConfig& config() const { return config_; }
  std::string_view name() const { return facade_name_; }
  std::size_t size() const { return states_.size(); }
  std::vector<BackendStatus> status() const;

  /// Backend for the next split-path step (no breaker timers advance): the
  /// first-closed index the last state transition published, read without
  /// the mutex.
  std::size_t pick() const { return first_closed_.load(std::memory_order_acquire); }
  /// Backend for a prepare_* call (counted, so tests and the bench can
  /// prove the no-fault path materializes exactly one image).
  std::size_t prepare_backend();
  void count_lazy(std::size_t k, u64 n);
  /// Advance breaker timers, run due known-answer probes on the caller's
  /// instance `m`, and pick the backend for the next operation.
  std::size_t route(const CheckedMultiplier& m);
  /// Account a completed operation on backend `k` that confirmed `faults`
  /// (checker-detected) faults.
  void note(std::size_t k, u64 faults);

 private:
  struct State {
    BackendStatus status;
    u64 open_skips = 0;    ///< routed-around calls since the breaker opened
    u64 probe_passes = 0;  ///< consecutive passes while half-open
  };

  /// First closed backend in priority order, the last one if none is
  /// healthy. Requires mu_ held.
  std::size_t pick_locked() const;
  /// Republish pick_locked() for pick(); after every state transition.
  void publish_locked() { first_closed_.store(pick_locked(), std::memory_order_release); }

  SupervisorConfig config_;
  std::string facade_name_;
  /// Known-answer probe operands and their schoolbook product.
  ring::Poly probe_a_, probe_b_, probe_expected_;
  mutable std::mutex mu_;
  std::vector<State> states_;  ///< guarded by mu_
  /// Written under mu_; own cache line, apart from mu_'s traffic.
  alignas(64) std::atomic<std::size_t> first_closed_{0};
};

class BackendSupervisor {
 public:
  /// `backend_names`: failover priority order, e.g. {"toom4", "ntt",
  /// "schoolbook"}. All instances a factory invocation returns for one index
  /// must be equivalent (same layout), as with batch::MultiplierFactory.
  explicit BackendSupervisor(std::vector<std::string> backend_names,
                             SupervisorConfig config = {},
                             BackendFactory factory = {});

  /// A facade for one worker thread: a CheckedMultiplier over every backend
  /// whose every operation routes through the breaker, and a FaultMonitor
  /// for the worker's own products. Matches batch::MultiplierFactory.
  std::shared_ptr<const mult::PolyMultiplier> make_worker_multiplier() const;

  /// Current breaker snapshot, in priority order.
  std::vector<BackendStatus> status() const;

  /// Constant facade name, "supervised(b0>b1>...)".
  std::string_view name() const;

  const SupervisorConfig& config() const;

 private:
  std::shared_ptr<BackendBreaker> breaker_;
  BackendFactory factory_;
};

}  // namespace saber::robust
