#include "robust/supervisor.hpp"

#include "common/check.hpp"
#include "mult/strategy.hpp"

namespace saber::robust {

namespace {

// The known-answer probe runs at the hardware modulus the KEM uses.
constexpr unsigned kProbeQBits = 13;

}  // namespace

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

BackendBreaker::BackendBreaker(std::vector<std::string> names,
                               const SupervisorConfig& config)
    : config_(config), facade_name_("supervised(") {
  states_.resize(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) facade_name_ += '>';
    facade_name_ += names[i];
    states_[i].status.name = std::move(names[i]);
  }
  facade_name_ += ')';
  for (std::size_t i = 0; i < ring::kN; ++i) {
    probe_a_[i] = static_cast<u16>((i * 31 + 7) & mask64(kProbeQBits));
    probe_b_[i] = static_cast<u16>((i * 17 + 3) & mask64(kProbeQBits));
  }
  probe_expected_ =
      mult::make_multiplier("schoolbook")->multiply(probe_a_, probe_b_, kProbeQBits);
}

std::size_t BackendBreaker::pick_locked() const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].status.state == BreakerState::kClosed) return i;
  }
  return states_.size() - 1;
}

std::size_t BackendBreaker::prepare_backend() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t k = pick_locked();
  ++states_[k].status.prepares;
  return k;
}

void BackendBreaker::count_lazy(std::size_t k, u64 n) {
  const std::lock_guard<std::mutex> lock(mu_);
  states_[k].status.lazy_prepares += n;
}

std::vector<BackendStatus> BackendBreaker::status() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<BackendStatus> out;
  out.reserve(states_.size());
  for (const auto& st : states_) out.push_back(st.status);
  return out;
}

std::size_t BackendBreaker::route(const CheckedMultiplier& m) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    auto& st = states_[i];
    if (st.status.state == BreakerState::kOpen && st.open_skips >= config_.probe_after) {
      st.status.state = BreakerState::kHalfOpen;
    }
    if (st.status.state != BreakerState::kHalfOpen) continue;
    // Known-answer self-test. Pass = the product is correct AND the checked
    // decorator saw no mismatch while computing it.
    bool pass = false;
    try {
      u64 faults = 0;
      pass = m.multiply_on(i, probe_a_, probe_b_, kProbeQBits, faults) ==
                 probe_expected_ &&
             faults == 0;
    } catch (...) {
      pass = false;
    }
    if (pass) {
      if (++st.probe_passes >= config_.probes_to_close) {
        st.status.state = BreakerState::kClosed;
        st.status.confirmed_faults = 0;
        st.probe_passes = 0;
        ++st.status.readmissions;
      }
    } else {
      ++st.status.probe_failures;
      st.status.state = BreakerState::kOpen;
      st.open_skips = 0;
      st.probe_passes = 0;
    }
  }
  publish_locked();
  const std::size_t chosen = pick_locked();
  for (std::size_t i = 0; i < chosen; ++i) {
    ++states_[i].status.routed_around;
    ++states_[i].open_skips;
  }
  return chosen;
}

void BackendBreaker::note(std::size_t k, u64 faults) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& st = states_[k];
  ++st.status.calls;
  st.status.confirmed_faults += faults;
  if (st.status.state == BreakerState::kClosed &&
      st.status.confirmed_faults >= config_.quarantine_after) {
    st.status.state = BreakerState::kOpen;
    ++st.status.quarantines;
    st.open_skips = 0;
    st.probe_passes = 0;
    publish_locked();
  }
}

BackendSupervisor::BackendSupervisor(std::vector<std::string> backend_names,
                                     SupervisorConfig config, BackendFactory factory) {
  SABER_REQUIRE(!backend_names.empty(), "at least one backend required");
  factory_ = factory ? std::move(factory)
                     : [names = backend_names](std::size_t i) {
                         return mult::make_multiplier(names[i]);
                       };
  breaker_ = std::make_shared<BackendBreaker>(std::move(backend_names), config);
}

std::shared_ptr<const mult::PolyMultiplier> BackendSupervisor::make_worker_multiplier()
    const {
  std::vector<std::unique_ptr<mult::PolyMultiplier>> backends;
  for (std::size_t i = 0; i < breaker_->size(); ++i) backends.push_back(factory_(i));
  return std::shared_ptr<const CheckedMultiplier>(
      new CheckedMultiplier(std::move(backends), breaker_->config().check, breaker_));
}

std::vector<BackendStatus> BackendSupervisor::status() const {
  return breaker_->status();
}

std::string_view BackendSupervisor::name() const { return breaker_->name(); }

const SupervisorConfig& BackendSupervisor::config() const { return breaker_->config(); }

}  // namespace saber::robust
