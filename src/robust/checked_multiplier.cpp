#include "robust/checked_multiplier.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "common/check.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "multipliers/memory_map.hpp"
#include "ring/polyvec.hpp"
#include "robust/algebraic_check.hpp"
#include "robust/supervisor.hpp"

namespace saber::robust {

namespace {

// Footer magics marking a Transformed as produced by a CheckedMultiplier.
// They catch the one mixing mistake the type system cannot: feeding a raw
// backend's transform into a checked instance (or vice versa — the distinct
// name() already keys PreparedMatrix compatibility, this is defense in depth).
constexpr i64 kPubMagic = 0x5ABE'C4EC'0000'0001LL;
constexpr i64 kSecMagic = 0x5ABE'C4EC'0000'0002LL;
constexpr i64 kAccMagic = 0x5ABE'C4EC'0000'0003LL;

// Layout of a checked transform, known to this file alone:
//
//   operand      inner image of backend k | raw N coefficients | qbits | k | magic
//   accumulator  inner accumulator of backend k | n x (raw a | raw s | qbits)
//                | n | k | magic
//
// k indexes the instance's backends in priority order; it is 0 unless a
// BackendSupervisor built the instance.
constexpr std::size_t kNn = ring::kN;
/// Footer of an operand after the inner image.
constexpr std::size_t kOperandTail = kNn + 3;
/// Footer of an accumulator after its pairs.
constexpr std::size_t kAccTail = 3;
/// One (raw a, raw s, qbits) pair embedded in an accumulator.
constexpr std::size_t kPairLen = 2 * kNn + 1;

/// A checked operand, sliced: backend k's image and the raw operand.
struct OperandView {
  std::span<const i64> inner;
  std::span<const i64> raw;  ///< kN coefficients
  unsigned qbits;
  std::size_t backend;
};

OperandView parse_operand(std::span<const i64> t, i64 magic, std::size_t backends,
                          const char* what) {
  SABER_REQUIRE(t.size() >= kOperandTail && t.back() == magic, what);
  const auto backend = static_cast<std::size_t>(t[t.size() - 2]);
  const auto qbits = static_cast<unsigned>(t[t.size() - 3]);
  SABER_REQUIRE(backend < backends, "checked transform backend out of range");
  SABER_REQUIRE(qbits >= 1 && qbits <= 16, "checked transform qbits corrupt");
  const std::size_t inner_len = t.size() - kOperandTail;
  return {t.first(inner_len), t.subspan(inner_len, kNn), qbits, backend};
}

/// A checked accumulator, sliced: backend k's accumulator and the raw pairs.
struct AccView {
  std::span<const i64> inner;
  std::span<const i64> pairs;  ///< n_pairs * kPairLen values
  std::size_t backend;
};

AccView parse_acc(std::span<const i64> acc, std::size_t backends) {
  SABER_REQUIRE(acc.size() >= kAccTail && acc.back() == kAccMagic,
                "not a checked-multiplier accumulator");
  const auto backend = static_cast<std::size_t>(acc[acc.size() - 2]);
  const auto n = static_cast<std::size_t>(acc[acc.size() - 3]);
  SABER_REQUIRE(backend < backends, "checked accumulator backend out of range");
  SABER_REQUIRE(n <= (acc.size() - kAccTail) / kPairLen,
                "corrupt checked accumulator header");
  const std::size_t inner_len = acc.size() - kAccTail - n * kPairLen;
  return {acc.first(inner_len), acc.subspan(inner_len, n * kPairLen), backend};
}

/// Append the operand footer to backend k's image.
template <class P>
mult::Transformed with_raw(mult::Transformed t, const P& p, unsigned qbits,
                           std::size_t k, i64 magic) {
  t.reserve(t.size() + kOperandTail);
  for (std::size_t i = 0; i < kNn; ++i) t.push_back(p[i]);
  t.push_back(static_cast<i64>(qbits));
  t.push_back(static_cast<i64>(k));
  t.push_back(magic);
  return t;
}

ring::Poly raw_public(std::span<const i64> raw) {
  ring::Poly a;
  for (std::size_t i = 0; i < kNn; ++i) a[i] = static_cast<u16>(raw[i]);
  return a;
}

ring::SecretPoly raw_secret(std::span<const i64> raw) {
  ring::SecretPoly s;
  for (std::size_t i = 0; i < kNn; ++i) s[i] = static_cast<i8>(raw[i]);
  return s;
}

/// Calls f(a, s, qbits) for every raw pair of an accumulator, in
/// accumulation order.
template <class F>
void for_each_pair(std::span<const i64> pairs, F f) {
  for (std::size_t off = 0; off < pairs.size(); off += kPairLen) {
    const auto p = pairs.subspan(off, kPairLen);
    f(raw_public(p.first(kNn)), raw_secret(p.subspan(kNn, kNn)),
      static_cast<unsigned>(p[2 * kNn]));
  }
}

/// The one replay: `backend`'s accumulator over a ledger of raw pairs, from
/// fresh forward transforms and a fresh accumulation, each public operand at
/// its own modulus. It serves the ladder's retry (a transient during the
/// original prepare or accumulate is left behind, not replayed) and the
/// migration of an accumulator to another backend after a quarantine.
mult::Transformed replay(const mult::PolyMultiplier& backend,
                         std::span<const i64> pairs) {
  auto acc = backend.make_accumulator();
  for_each_pair(pairs, [&](const ring::Poly& a, const ring::SecretPoly& s, unsigned q) {
    backend.pointwise_accumulate(acc, backend.prepare_public(a, q),
                                 backend.prepare_secret(s, q));
  });
  return acc;
}

/// Backend k's accumulator of a checked one: a copy when it lives on k
/// already, else its pairs replayed on k — the migration across a failover
/// boundary, counted as two lazy prepares per pair.
mult::Transformed accumulator_on(const AccView& v, std::size_t k,
                                 const mult::PolyMultiplier& backend,
                                 BackendBreaker* breaker) {
  if (v.backend == k) return {v.inner.begin(), v.inner.end()};
  breaker->count_lazy(k, 2 * v.pairs.size() / kPairLen);
  return replay(backend, v.pairs);
}

ring::Poly reference_sum(const mult::PolyMultiplier& reference,
                         std::span<const i64> pairs, unsigned qbits) {
  ring::Poly sum{};
  for_each_pair(pairs, [&](const ring::Poly& a, const ring::SecretPoly& s, unsigned) {
    ring::add_inplace(sum, reference.multiply_secret(a, s, qbits), qbits);
  });
  return sum;
}

/// Algebraic verification of one product via the backend's split pipeline.
/// Returns false (leaving `product` untouched) when the point check fails or
/// the corrupted state trips a backend invariant.
bool algebraic_multiply(const mult::PolyMultiplier& backend, const ring::Poly& a,
                        const ring::Poly& b, unsigned qbits, ring::Poly& product) {
  const auto& pc = shared_point_checker();
  // Rotating per-check root: an adversarial defect tuned to one published
  // evaluation point does not know which root this check lands on.
  const std::size_t root = pc.draw_root();
  try {
    // The witness instead of multiply(): same work, but it ends on the
    // exact integers the point check needs. The verified witness then folds
    // to the product, so nothing is computed twice.
    const auto w = backend.multiply_witness(a, b, qbits);
    if (!pc.verify(pc.eval_public(a, qbits, root), pc.eval_public(b, qbits, root),
                   pc.eval_witness(w, root))) {
      return false;
    }
    product = mult::reduce_witness<ring::kN>(std::span<const i64>(w), qbits);
    return true;
  } catch (const ContractViolation&) {
    // Corrupted transform state can trip a backend invariant (e.g. Toom-Cook's
    // exact-division ENSURE) before a witness exists; that is a detection.
    return false;
  }
}

/// Algebraic verification of an accumulated row against its raw pairs.
bool algebraic_finalize(const mult::PolyMultiplier& backend,
                        const mult::Transformed& inner_acc, std::span<const i64> pairs,
                        unsigned qbits, ring::Poly& product) {
  const auto& pc = shared_point_checker();
  const std::size_t root = pc.draw_root();
  try {
    const auto w = backend.finalize_witness(inner_acc);
    // The check is linear in the accumulated terms: sum_k a_k(x_r) * s_k(x_r)
    // must equal w(x_r), each public operand lifted at its own modulus.
    u64 sum = 0;
    for_each_pair(pairs, [&](const ring::Poly& a, const ring::SecretPoly& s, unsigned q) {
      sum = pc.add(sum, pc.mul(pc.eval_public(a, q, root), pc.eval_secret(s, root)));
    });
    if (pc.eval_witness(w, root) != sum) return false;
    product = mult::reduce_witness<ring::kN>(std::span<const i64>(w), qbits);
    return true;
  } catch (const ContractViolation&) {
    return false;
  }
}

/// Where one ladder run reports: a decorator's counters and log, under its
/// stats mutex when it has one, and the caller's tally of the faults the
/// run confirmed.
struct FaultSink {
  FaultCounters& counters;
  std::vector<FaultRecord>& log;
  std::mutex* mu;
  FaultRecord::Path path;
  unsigned qbits;
  u64& faults;

  std::unique_lock<std::mutex> lock() const {
    return mu != nullptr ? std::unique_lock<std::mutex>(*mu)
                         : std::unique_lock<std::mutex>();
  }
  void count(u64 FaultCounters::* field) const {
    const auto held = lock();
    ++(counters.*field);
  }
  void resolve(u64 FaultCounters::* field, FaultRecord::Resolution res) const {
    const auto held = lock();
    ++(counters.*field);
    log.push_back({path, res, qbits});
  }
};

ring::Poly& product_of(ring::Poly& p) { return p; }
ring::Poly& product_of(arch::MultiplierResult& r) { return r.product; }

/// The one recovery ladder of both decorators. `run` computes the product on
/// the checked backend, `verify` computes and point-checks it (kPointEval;
/// the hardware decorator passes nullptr and always compares), `retry`
/// recomputes it on the same backend and `reference` re-derives it on the
/// independent reference. Only the verify step depends on CheckKind.
template <class Run, class Verify, class Retry, class Reference>
auto ladder(const CheckedConfig& config, const FaultSink& sink, Run run, Verify verify,
            Retry retry, Reference reference) {
  if (config.policy == CheckPolicy::kOff) return run();
  sink.count(&FaultCounters::checks);
  decltype(run()) product{};
  std::optional<ring::Poly> expected;
  bool point_checked = false;
  if constexpr (!std::is_null_pointer_v<Verify>) {
    point_checked = config.kind == CheckKind::kPointEval;
    if (point_checked && verify(product)) return product;
  }
  if (!point_checked) {
    product = run();
    expected = reference();
    if (product_of(product) == *expected) return product;
  }

  ++sink.faults;
  sink.count(&FaultCounters::mismatches);
  if (!expected) expected = reference();
  // Transient-fault recovery: a one-shot upset does not repeat.
  auto retried = retry();
  if (product_of(retried) == *expected) {
    sink.resolve(&FaultCounters::retry_recoveries, FaultRecord::Resolution::kRetry);
    return retried;
  }
  // Permanent fault: fail over to the reference backend — after confirming
  // the reference reproduces itself, so a faulty reference cannot be trusted
  // silently.
  if (reference() != *expected) {
    throw FaultDetectedError(
        "unrecoverable fault: reference backend is inconsistent with itself");
  }
  sink.resolve(&FaultCounters::failovers, FaultRecord::Resolution::kFailover);
  product_of(retried) = *expected;  // a core's cycle/power stats stay its runs'
  return retried;
}

}  // namespace

std::string_view to_string(CheckPolicy policy) {
  switch (policy) {
    case CheckPolicy::kOff: return "off";
    case CheckPolicy::kFull: return "full";
  }
  return "?";
}

std::string_view to_string(CheckKind kind) {
  switch (kind) {
    case CheckKind::kReference: return "reference";
    case CheckKind::kPointEval: return "point-eval";
  }
  return "?";
}

CheckedMultiplier::CheckedMultiplier(std::unique_ptr<mult::PolyMultiplier> inner,
                                     CheckedConfig config,
                                     std::unique_ptr<mult::PolyMultiplier> fallback)
    : fallback_(fallback ? std::move(fallback)
                         : std::make_unique<mult::SchoolbookMultiplier>()),
      config_(config) {
  SABER_REQUIRE(static_cast<bool>(inner), "inner multiplier required");
  name_ = "checked(" + std::string(inner->name()) + ")";
  backends_.push_back(std::move(inner));
}

CheckedMultiplier::CheckedMultiplier(
    std::vector<std::unique_ptr<mult::PolyMultiplier>> backends, CheckedConfig config,
    std::shared_ptr<BackendBreaker> breaker)
    : CheckedMultiplier(std::move(backends.front()), config) {
  for (std::size_t i = 1; i < backends.size(); ++i) {
    SABER_REQUIRE(static_cast<bool>(backends[i]), "inner multiplier required");
    backends_.push_back(std::move(backends[i]));
  }
  breaker_ = std::move(breaker);
  name_ = std::string(breaker_->name());
}

FaultCounters CheckedMultiplier::fault_counters() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return counters_;
}

std::vector<FaultRecord> CheckedMultiplier::fault_log() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return log_;
}

template <class Product>
ring::Poly CheckedMultiplier::routed(Product product) const {
  u64 faults = 0;
  if (!breaker_) return product(std::size_t{0}, faults);
  const std::size_t k = breaker_->route(*this);
  try {
    auto p = product(k, faults);
    breaker_->note(k, faults);
    return p;
  } catch (...) {
    breaker_->note(k, faults);
    throw;
  }
}

ring::Poly CheckedMultiplier::multiply_on(std::size_t k, const ring::Poly& a,
                                          const ring::Poly& b, unsigned qbits,
                                          u64& faults) const {
  const auto& backend = *backends_[k];
  const auto run = [&] { return backend.multiply(a, b, qbits); };
  const FaultSink sink{counters_, log_, &stats_mu_, FaultRecord::Path::kMultiply,
                       qbits, faults};
  return ladder(
      config_, sink, run,
      [&](ring::Poly& p) { return algebraic_multiply(backend, a, b, qbits, p); }, run,
      [&] { return fallback_->multiply(a, b, qbits); });
}

ring::Poly CheckedMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                       unsigned qbits) const {
  return routed([&](std::size_t k, u64& faults) {
    return multiply_on(k, a, b, qbits, faults);
  });
}

mult::Transformed CheckedMultiplier::prepare_public(const ring::Poly& a,
                                                    unsigned qbits) const {
  const std::size_t k = breaker_ ? breaker_->prepare_backend() : 0;
  return with_raw(backends_[k]->prepare_public(a, qbits), a, qbits, k, kPubMagic);
}

mult::Transformed CheckedMultiplier::prepare_secret(const ring::SecretPoly& s,
                                                    unsigned qbits) const {
  const std::size_t k = breaker_ ? breaker_->prepare_backend() : 0;
  return with_raw(backends_[k]->prepare_secret(s, qbits), s, qbits, k, kSecMagic);
}

mult::Transformed CheckedMultiplier::make_accumulator() const {
  const std::size_t k = breaker_ ? breaker_->pick() : 0;
  auto acc = backends_[k]->make_accumulator();
  acc.push_back(0);  // n_pairs
  acc.push_back(static_cast<i64>(k));
  acc.push_back(kAccMagic);
  return acc;
}

// Split-transform path under a supervisor — lazy, copy-on-quarantine. A
// prepared operand holds ONE backend's image (whichever backend was healthy
// at prepare time), so the no-fault path pays exactly one backend's prepare
// cost and memory. When a later step routes to a different backend j — i.e.
// after a quarantine — it re-prepares backend j's image on demand from the
// raw operand (`lazy_prepares` in the status snapshot), and an accumulator
// started on another backend migrates to j by replaying its raw pairs. The
// shared transform itself is immutable, so a mid-batch failover never
// invalidates a shared prepared matrix: each re-preparation is a private
// copy. Without a supervisor every transform lives on backend 0.

void CheckedMultiplier::pointwise_accumulate(mult::Transformed& acc,
                                             const mult::Transformed& a,
                                             const mult::Transformed& s) const {
  const std::size_t nb = backends_.size();
  const auto view = parse_acc(acc, nb);
  const auto pa = parse_operand(a, kPubMagic, nb, "not a checked public transform");
  const auto ps = parse_operand(s, kSecMagic, nb, "not a checked secret transform");
  const std::size_t j = breaker_ ? breaker_->pick() : 0;
  const auto& backend = *backends_[j];

  // Delegate on backend j's slices (the backend sees exactly the layout it
  // produced), then append the new pair: the pair keeps the public operand's
  // modulus, as a prepared secret may come from another modulus (see
  // mult::prepare_secrets).
  auto next = accumulator_on(view, j, backend, breaker_.get());
  const auto public_image = [&] {
    if (pa.backend == j) return mult::Transformed(pa.inner.begin(), pa.inner.end());
    breaker_->count_lazy(j, 1);
    return backend.prepare_public(raw_public(pa.raw), pa.qbits);
  };
  const auto secret_image = [&] {
    if (ps.backend == j) return mult::Transformed(ps.inner.begin(), ps.inner.end());
    breaker_->count_lazy(j, 1);
    return backend.prepare_secret(raw_secret(ps.raw), ps.qbits);
  };
  backend.pointwise_accumulate(next, public_image(), secret_image());

  next.reserve(next.size() + view.pairs.size() + kPairLen + kAccTail);
  next.insert(next.end(), view.pairs.begin(), view.pairs.end());
  next.insert(next.end(), pa.raw.begin(), pa.raw.end());
  next.insert(next.end(), ps.raw.begin(), ps.raw.end());
  next.push_back(static_cast<i64>(pa.qbits));
  next.push_back(static_cast<i64>(view.pairs.size() / kPairLen + 1));
  next.push_back(static_cast<i64>(j));
  next.push_back(kAccMagic);
  acc = std::move(next);
}

ring::Poly CheckedMultiplier::finalize(const mult::Transformed& acc,
                                       unsigned qbits) const {
  const auto view = parse_acc(acc, backends_.size());
  return routed([&](std::size_t k, u64& faults) {
    const auto& backend = *backends_[k];
    const auto inner = accumulator_on(view, k, backend, breaker_.get());
    const FaultSink sink{counters_, log_, &stats_mu_,
                         FaultRecord::Path::kFinalize, qbits, faults};
    return ladder(
        config_, sink, [&] { return backend.finalize(inner, qbits); },
        [&](ring::Poly& p) {
          return algebraic_finalize(backend, inner, view.pairs, qbits, p);
        },
        [&] { return backend.finalize(replay(backend, view.pairs), qbits); },
        [&] { return reference_sum(*fallback_, view.pairs, qbits); });
  });
}

std::size_t CheckedMultiplier::max_accumulated_terms() const {
  std::size_t terms = backends_.front()->max_accumulated_terms();
  for (const auto& b : backends_) terms = std::min(terms, b->max_accumulated_terms());
  return terms;
}

std::unique_ptr<CheckedMultiplier> make_checked(std::string_view inner_name,
                                                CheckedConfig config) {
  return std::make_unique<CheckedMultiplier>(mult::make_multiplier(inner_name), config);
}

CheckedHwMultiplier::CheckedHwMultiplier(std::unique_ptr<arch::HwMultiplier> inner,
                                         CheckedConfig config,
                                         std::unique_ptr<mult::PolyMultiplier> reference)
    : inner_(std::move(inner)),
      reference_(reference ? std::move(reference)
                           : std::make_unique<mult::SchoolbookMultiplier>()),
      config_(config) {
  SABER_REQUIRE(static_cast<bool>(inner_), "inner architecture required");
  name_ = "checked(" + std::string(inner_->name()) + ")";
}

void CheckedHwMultiplier::check_cycles(const hw::CycleStats& cycles) {
  // The FSMs are data-independent: the headline budget (paper Table 1) and
  // the first run's total must both be reproduced exactly, fault or no fault.
  const u64 against = inner_->headline_includes_overhead()
                          ? cycles.total
                          : cycles.compute + cycles.pipeline;
  bool violated = against != inner_->headline_cycles();
  if (baseline_total_ == 0) {
    baseline_total_ = cycles.total;
  } else if (cycles.total != baseline_total_) {
    violated = true;
  }
  if (violated) ++cycle_violations_;
}

arch::MultiplierResult CheckedHwMultiplier::multiply(const ring::Poly& a,
                                                     const ring::SecretPoly& s,
                                                     const ring::Poly* accumulate) {
  constexpr unsigned kQ = arch::MemoryMap::kQBits;
  const auto run = [&] {
    auto res = inner_->multiply(a, s, accumulate);
    check_cycles(res.cycles);
    return res;
  };
  u64 faults = 0;
  const FaultSink sink{counters_, log_, nullptr, FaultRecord::Path::kHardware, kQ,
                       faults};
  return ladder(config_, sink, run, nullptr, run, [&] {
    auto expected = reference_->multiply_secret(a, s, kQ);
    if (accumulate != nullptr) ring::add_inplace(expected, *accumulate, kQ);
    return expected;
  });
}

}  // namespace saber::robust
