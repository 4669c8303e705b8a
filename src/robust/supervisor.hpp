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
// SupervisedMultiplier facade via make_worker_multiplier(). Each facade owns
// private CheckedMultiplier instances (one per backend, so each worker's
// fault counters attribute faults to its own items) and shares only the
// mutex-guarded breaker state.
// Split-transform caching stays sound across health changes — lazily,
// copy-on-quarantine: a prepared transform materializes only the active
// backend's checked image (which keeps the raw polynomial it came from) and
// a backend tag, so the no-fault path pays exactly 1x a single checked
// backend's prepare cost and memory. A consumer routed to a different
// backend (after a quarantine) re-prepares that backend's image on demand
// from the raw polynomial; checked accumulators keep their raw (a, s) pairs
// and are migrated across a failover boundary by replay. Shared transforms
// stay immutable, so a mid-batch failover never invalidates a shared
// prepared matrix.
#pragma once

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

class BackendSupervisor {
 public:
  /// `backend_names`: failover priority order, e.g. {"toom4", "ntt",
  /// "schoolbook"}. All instances a factory invocation returns for one index
  /// must be equivalent (same layout), as with batch::MultiplierFactory.
  explicit BackendSupervisor(std::vector<std::string> backend_names,
                             SupervisorConfig config = {},
                             BackendFactory factory = {});

  /// A facade for one worker thread: a PolyMultiplier whose every operation
  /// routes through the breaker, plus a FaultMonitor aggregating the
  /// worker's checked instances. Matches batch::MultiplierFactory.
  std::shared_ptr<const mult::PolyMultiplier> make_worker_multiplier() const;

  /// Current breaker snapshot, in priority order.
  std::vector<BackendStatus> status() const;

  /// Constant facade name, "supervised(b0>b1>...)".
  std::string_view name() const;

  const SupervisorConfig& config() const;

  /// Opaque shared breaker state (defined in supervisor.cpp; public only so
  /// the worker facade can hold a reference to it).
  struct Shared;

 private:
  std::shared_ptr<Shared> shared_;
};

}  // namespace saber::robust
