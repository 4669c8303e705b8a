#include "robust/supervisor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mult/strategy.hpp"

namespace saber::robust {

namespace {

// Magics marking a Transformed as produced by a supervised facade; same
// family as the checked decorator's magics (see checked_multiplier.cpp).
constexpr i64 kSupPubMagic = 0x5ABE'C4EC'0000'0004LL;
constexpr i64 kSupAccMagic = 0x5ABE'C4EC'0000'0005LL;
constexpr i64 kSupSecMagic = 0x5ABE'C4EC'0000'0006LL;

// The known-answer probe runs at the hardware modulus the KEM uses.
constexpr unsigned kProbeQBits = 13;

// A supervised transform is backend k's checked transform tagged with k:
//
//   checked image (operand or accumulator) of backend k | k | magic
//
// The checked image keeps the raw operands, so the supervisor keeps none.
constexpr std::size_t kSupFooter = 2;

struct BackendState {
  BreakerState state = BreakerState::kClosed;
  u64 confirmed_faults = 0;
  u64 quarantines = 0;
  u64 readmissions = 0;
  u64 probe_failures = 0;
  u64 calls = 0;
  u64 routed_around = 0;
  u64 prepares = 0;
  u64 lazy_prepares = 0;
  u64 open_skips = 0;    ///< routed-around calls since the breaker opened
  u64 probe_passes = 0;  ///< consecutive passes while half-open
};

/// A supervised transform, sliced: backend `backend`'s checked image.
struct Image {
  std::span<const i64> checked;
  std::size_t backend = 0;
};

Image parse_image(const mult::Transformed& t, i64 magic, std::size_t nb,
                  const char* what) {
  SABER_REQUIRE(t.size() >= kSupFooter && t.back() == magic, what);
  const auto backend = static_cast<std::size_t>(t[t.size() - 2]);
  SABER_REQUIRE(backend < nb, "supervised transform backend out of range");
  return {std::span(t).first(t.size() - kSupFooter), backend};
}

mult::Transformed tag(mult::Transformed t, std::size_t k, i64 magic) {
  t.push_back(static_cast<i64>(k));
  t.push_back(magic);
  return t;
}

}  // namespace

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

struct BackendSupervisor::Shared {
  std::vector<std::string> names;
  SupervisorConfig cfg;
  BackendFactory factory;
  std::string facade_name;
  ring::Poly probe_a, probe_b, probe_expected;
  mutable std::mutex mu;
  std::vector<BackendState> states;  ///< guarded by mu
};

namespace {

/// The per-worker facade KemBatch receives. Owns one private checked
/// instance per backend; shares only the breaker state.
class SupervisedMultiplier final : public mult::PolyMultiplier, public FaultMonitor {
 public:
  explicit SupervisedMultiplier(std::shared_ptr<BackendSupervisor::Shared> shared)
      : shared_(std::move(shared)) {
    backends_.reserve(shared_->names.size());
    for (std::size_t i = 0; i < shared_->names.size(); ++i) {
      backends_.push_back(
          std::make_unique<CheckedMultiplier>(shared_->factory(i), shared_->cfg.check));
    }
  }

  std::string_view name() const override { return shared_->facade_name; }

  FaultCounters fault_counters() const override {
    FaultCounters sum;
    for (const auto& b : backends_) {
      const auto c = b->fault_counters();
      sum.checks += c.checks;
      sum.mismatches += c.mismatches;
      sum.retry_recoveries += c.retry_recoveries;
      sum.failovers += c.failovers;
    }
    return sum;
  }

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override {
    const std::size_t idx = route();
    const u64 before = backends_[idx]->fault_counters().mismatches;
    try {
      auto p = backends_[idx]->multiply(a, b, qbits);
      note(idx, backends_[idx]->fault_counters().mismatches - before);
      return p;
    } catch (...) {
      note(idx, backends_[idx]->fault_counters().mismatches - before);
      throw;
    }
  }

  // Split-transform path — lazy, copy-on-quarantine. A prepared operand
  // materializes ONE backend's checked image (whichever backend was healthy
  // at prepare time), tagged with that backend:
  //
  //   checked image of backend k | k | magic
  //
  // The no-fault path therefore pays exactly one backend's prepare cost and
  // memory. When a later operation routes to a different backend j — i.e.
  // after a quarantine — the consumer re-prepares backend j's image on
  // demand from the raw polynomial the checked image keeps
  // (`lazy_prepares` in the status snapshot). The shared transform itself is
  // immutable, so a mid-batch failover never invalidates a shared prepared
  // matrix: worker threads keep reading the backend-k image concurrently,
  // and each lazy re-preparation is a private copy. A checked accumulator
  // keeps the raw (a, s, qbits) pairs it absorbed, so an accumulator started
  // on backend k migrates to backend j by replaying them.

  mult::Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override {
    const std::size_t k = prepare_backend();
    return tag(backends_[k]->prepare_public(a, qbits), k, kSupPubMagic);
  }

  mult::Transformed prepare_secret(const ring::SecretPoly& s,
                                   unsigned qbits) const override {
    const std::size_t k = prepare_backend();
    return tag(backends_[k]->prepare_secret(s, qbits), k, kSupSecMagic);
  }

  mult::Transformed make_accumulator() const override {
    const std::size_t k = pick();
    return tag(backends_[k]->make_accumulator(), k, kSupAccMagic);
  }

  void pointwise_accumulate(mult::Transformed& acc, const mult::Transformed& a,
                            const mult::Transformed& s) const override {
    const std::size_t nb = backends_.size();
    const auto av = parse_image(acc, kSupAccMagic, nb, "not a supervised accumulator");
    const auto pa = parse_image(a, kSupPubMagic, nb, "not a supervised public transform");
    const auto ps = parse_image(s, kSupSecMagic, nb, "not a supervised secret transform");
    // Copy-on-quarantine: migrate the accumulator to backend j if a health
    // change moved traffic since it was created, then feed it backend-j
    // images of both operands.
    const std::size_t j = pick();
    auto next = accumulator_on(av, j);
    backends_[j]->pointwise_accumulate(next, public_image(pa, j), secret_image(ps, j));
    acc = tag(std::move(next), j, kSupAccMagic);
  }

  ring::Poly finalize(const mult::Transformed& acc, unsigned qbits) const override {
    const auto av = parse_image(acc, kSupAccMagic, backends_.size(),
                                "not a supervised accumulator");
    const std::size_t idx = route();
    const u64 before = backends_[idx]->fault_counters().mismatches;
    try {
      auto p = backends_[idx]->finalize(accumulator_on(av, idx), qbits);
      note(idx, backends_[idx]->fault_counters().mismatches - before);
      return p;
    } catch (...) {
      note(idx, backends_[idx]->fault_counters().mismatches - before);
      throw;
    }
  }

  std::size_t max_accumulated_terms() const override {
    std::size_t terms = backends_.front()->max_accumulated_terms();
    for (const auto& b : backends_) {
      terms = std::min(terms, b->max_accumulated_terms());
    }
    return terms;
  }

 private:
  /// First closed backend in priority order, last backend if none is
  /// healthy. Requires shared_->mu held.
  std::size_t pick_locked() const {
    const auto& states = shared_->states;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].state == BreakerState::kClosed) return i;
    }
    return states.size() - 1;
  }

  /// Backend for the next split-path step (no breaker timers advance).
  std::size_t pick() const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    return pick_locked();
  }

  /// Backend for a prepare_* call (counted so tests and the bench can prove
  /// the no-fault path materializes exactly one image).
  std::size_t prepare_backend() const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    const std::size_t k = pick_locked();
    ++shared_->states[k].prepares;
    return k;
  }

  void count_lazy(std::size_t j, u64 n = 1) const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->states[j].lazy_prepares += n;
  }

  /// Backend-j image of a supervised public operand: the materialized checked
  /// image when it already is backend j's, a fresh on-demand preparation from
  /// its raw polynomial otherwise.
  mult::Transformed public_image(const Image& v, std::size_t j) const {
    if (v.backend == j) return {v.checked.begin(), v.checked.end()};
    count_lazy(j);
    const auto [a, qbits] = CheckedMultiplier::raw_public(v.checked);
    return backends_[j]->prepare_public(a, qbits);
  }

  mult::Transformed secret_image(const Image& v, std::size_t j) const {
    if (v.backend == j) return {v.checked.begin(), v.checked.end()};
    count_lazy(j);
    const auto [s, qbits] = CheckedMultiplier::raw_secret(v.checked);
    return backends_[j]->prepare_secret(s, qbits);
  }

  /// Backend-j checked accumulator of a supervised one: a copy when it
  /// already lives on backend j, otherwise a replay of its raw pairs
  /// (accumulator migration across a failover boundary).
  mult::Transformed accumulator_on(const Image& v, std::size_t j) const {
    if (v.backend == j) return {v.checked.begin(), v.checked.end()};
    const auto pairs = CheckedMultiplier::raw_pairs(v.checked);
    count_lazy(j, 2 * pairs.size());
    auto acc = backends_[j]->make_accumulator();
    for (const auto& p : pairs) {
      backends_[j]->pointwise_accumulate(acc, backends_[j]->prepare_public(p.a, p.qbits),
                                         backends_[j]->prepare_secret(p.s, p.qbits));
    }
    return acc;
  }

  /// Advance breaker timers, run due probes, and pick the backend for the
  /// next operation: the first closed one, or the last backend if none is
  /// healthy (the checked decorator still guarantees a correct result).
  std::size_t route() const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    auto& states = shared_->states;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].state == BreakerState::kOpen &&
          states[i].open_skips >= shared_->cfg.probe_after) {
        states[i].state = BreakerState::kHalfOpen;
      }
      if (states[i].state == BreakerState::kHalfOpen) probe_locked(i);
    }
    const std::size_t chosen = pick_locked();
    for (std::size_t i = 0; i < chosen; ++i) {
      ++states[i].routed_around;
      ++states[i].open_skips;
    }
    return chosen;
  }

  /// Known-answer self-test on this worker's instance of backend `i`.
  /// Requires shared_->mu held. Pass = the product is correct AND the
  /// checked decorator saw no mismatch while computing it.
  void probe_locked(std::size_t i) const {
    auto& st = shared_->states[i];
    const u64 before = backends_[i]->fault_counters().mismatches;
    bool pass = false;
    try {
      const auto p =
          backends_[i]->multiply(shared_->probe_a, shared_->probe_b, kProbeQBits);
      pass = backends_[i]->fault_counters().mismatches == before &&
             p == shared_->probe_expected;
    } catch (...) {
      pass = false;
    }
    if (pass) {
      if (++st.probe_passes >= shared_->cfg.probes_to_close) {
        st.state = BreakerState::kClosed;
        st.confirmed_faults = 0;
        st.probe_passes = 0;
        ++st.readmissions;
      }
    } else {
      ++st.probe_failures;
      st.state = BreakerState::kOpen;
      st.open_skips = 0;
      st.probe_passes = 0;
    }
  }

  /// Account a completed operation on backend `idx`; `delta` is the number
  /// of confirmed (checker-detected) faults it produced.
  void note(std::size_t idx, u64 delta) const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    auto& st = shared_->states[idx];
    ++st.calls;
    st.confirmed_faults += delta;
    if (st.state == BreakerState::kClosed &&
        st.confirmed_faults >= shared_->cfg.quarantine_after) {
      st.state = BreakerState::kOpen;
      ++st.quarantines;
      st.open_skips = 0;
      st.probe_passes = 0;
    }
  }

  std::shared_ptr<BackendSupervisor::Shared> shared_;
  std::vector<std::unique_ptr<CheckedMultiplier>> backends_;
};

}  // namespace

BackendSupervisor::BackendSupervisor(std::vector<std::string> backend_names,
                                     SupervisorConfig config, BackendFactory factory) {
  SABER_REQUIRE(!backend_names.empty(), "at least one backend required");
  auto sh = std::make_shared<Shared>();
  sh->names = std::move(backend_names);
  sh->cfg = config;
  sh->factory = factory ? std::move(factory)
                        : [names = sh->names](std::size_t i) {
                            return mult::make_multiplier(names[i]);
                          };
  sh->facade_name = "supervised(";
  for (std::size_t i = 0; i < sh->names.size(); ++i) {
    if (i > 0) sh->facade_name += '>';
    sh->facade_name += sh->names[i];
  }
  sh->facade_name += ')';
  sh->states.resize(sh->names.size());
  for (std::size_t i = 0; i < ring::kN; ++i) {
    sh->probe_a[i] = static_cast<u16>((i * 31 + 7) & mask64(kProbeQBits));
    sh->probe_b[i] = static_cast<u16>((i * 17 + 3) & mask64(kProbeQBits));
  }
  sh->probe_expected =
      mult::make_multiplier("schoolbook")->multiply(sh->probe_a, sh->probe_b,
                                                    kProbeQBits);
  shared_ = std::move(sh);
}

std::shared_ptr<const mult::PolyMultiplier> BackendSupervisor::make_worker_multiplier()
    const {
  return std::make_shared<SupervisedMultiplier>(shared_);
}

std::vector<BackendStatus> BackendSupervisor::status() const {
  const std::lock_guard<std::mutex> lock(shared_->mu);
  std::vector<BackendStatus> out;
  out.reserve(shared_->states.size());
  for (std::size_t i = 0; i < shared_->states.size(); ++i) {
    const auto& st = shared_->states[i];
    out.push_back({shared_->names[i], st.state, st.confirmed_faults, st.quarantines,
                   st.readmissions, st.probe_failures, st.calls, st.routed_around,
                   st.prepares, st.lazy_prepares});
  }
  return out;
}

std::string_view BackendSupervisor::name() const { return shared_->facade_name; }

const SupervisorConfig& BackendSupervisor::config() const { return shared_->cfg; }

}  // namespace saber::robust
