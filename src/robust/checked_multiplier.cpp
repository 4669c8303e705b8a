#include "robust/checked_multiplier.hpp"

#include <algorithm>
#include <cstring>
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
//   operand      inner image of backend k | packed raw operand | E | qbits | k
//                | magic
//   accumulator  inner accumulator of backend k
//                | n x (packed raw a | packed raw s | qbits) | S | n | k | magic
//
// A packed public holds four u16 coefficients per word (64 words), a packed
// secret eight i8 (32 words). E is the operand at every shared root, from
// prepare time; S is sum_pairs a(x_r) * s(x_r) per root. Both are mod the
// checker's prime and independent of the backend, so a migrated accumulator
// keeps them. k indexes the instance's backends in priority order; it is 0
// unless a BackendSupervisor built the instance.
constexpr std::size_t kNn = ring::kN;
constexpr std::size_t kRoots = PointChecker::kNumSharedRoots;
constexpr std::size_t kPubWords = sizeof(ring::Poly::c) / sizeof(i64);
constexpr std::size_t kSecWords = sizeof(ring::SecretPoly::c) / sizeof(i64);
/// The footer: E or S, then qbits or n, k and the magic.
constexpr std::size_t kTail = kRoots + 3;
/// One (packed a, packed s, qbits) pair embedded in an accumulator.
constexpr std::size_t kPairLen = kPubWords + kSecWords + 1;

/// A checked transform, sliced: backend k's image or accumulator, the raw
/// words (an operand's packed coefficients, an accumulator's pairs), E or S,
/// and the count (an operand's qbits, an accumulator's n).
struct View {
  std::span<const i64> inner, raw, roots;
  std::size_t count, backend;
};

/// `unit`: an operand's packed words, or one pair of an accumulator.
View parse(std::span<const i64> t, i64 magic, std::size_t unit, std::size_t backends,
           const char* what) {
  SABER_REQUIRE(t.size() >= kTail && t.back() == magic, what);
  const auto count = static_cast<std::size_t>(t[t.size() - 3]);
  const auto backend = static_cast<std::size_t>(t[t.size() - 2]);
  const bool acc = magic == kAccMagic;
  SABER_REQUIRE(backend < backends &&
                    (acc ? count <= (t.size() - kTail) / unit
                         : count >= 1 && count <= 16 && unit <= t.size() - kTail),
                "corrupt checked transform footer");
  const std::size_t raw = acc ? count * unit : unit;
  const std::size_t inner_len = t.size() - kTail - raw;
  return {t.first(inner_len), t.subspan(inner_len, raw),
          t.subspan(t.size() - kTail, kRoots), count, backend};
}

template <class P>
P unpack(std::span<const i64> words) {
  P p;
  std::memcpy(p.c.data(), words.data(), sizeof p.c);
  return p;
}

/// Append the operand footer to backend k's image, p packed bytewise.
template <class P>
mult::Transformed with_raw(mult::Transformed t, const P& p,
                           const PointChecker::RootEvals& evals, unsigned qbits,
                           std::size_t k, i64 magic) {
  const std::size_t at = t.size();
  t.reserve(at + sizeof p.c / sizeof(i64) + kTail);
  t.resize(at + sizeof p.c / sizeof(i64));
  std::memcpy(t.data() + at, p.c.data(), sizeof p.c);
  t.insert(t.end(), evals.begin(), evals.end());
  t.insert(t.end(), {static_cast<i64>(qbits), static_cast<i64>(k), magic});
  return t;
}

/// Calls f(a, s, qbits) for every raw pair of an accumulator, in
/// accumulation order.
template <class F>
void for_each_pair(std::span<const i64> pairs, F f) {
  for (std::size_t off = 0; off < pairs.size(); off += kPairLen) {
    const auto p = pairs.subspan(off, kPairLen);
    f(unpack<ring::Poly>(p.first(kPubWords)),
      unpack<ring::SecretPoly>(p.subspan(kPubWords, kSecWords)),
      static_cast<unsigned>(p[kPubWords + kSecWords]));
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
mult::Transformed accumulator_on(const View& v, std::size_t k,
                                 const mult::PolyMultiplier& backend,
                                 BackendBreaker* breaker) {
  if (v.backend == k) return {v.inner.begin(), v.inner.end()};
  breaker->count_lazy(k, 2 * v.raw.size() / kPairLen);
  return replay(backend, v.raw);
}

ring::Poly reference_sum(const mult::PolyMultiplier& reference,
                         std::span<const i64> pairs, unsigned qbits) {
  ring::Poly sum{};
  for_each_pair(pairs, [&](const ring::Poly& a, const ring::SecretPoly& s, unsigned) {
    ring::add_inplace(sum, reference.multiply_secret(a, s, qbits), qbits);
  });
  return sum;
}

/// The point check (kPointEval) at a rotating root, which a defect tuned to
/// one point cannot predict: `witness()` ends on the backend's exact
/// integers, `expect(root)` is the products' evaluation.
/// The witness folds to the N exact integers of the negacyclic remainder
/// (wrapping, so a corrupt one cannot overflow); those are evaluated and, on
/// a match, masked into `product`. Folded coefficients are sums of N
/// products: |f_i| <= terms * 2^30 (2^38 for a public x public product), far
/// inside eval_witness's 2^55 at every backend's max_accumulated_terms.
/// False on a mismatch or a tripped backend invariant: both are detections.
template <class Witness, class Expect>
bool point_check(Witness witness, Expect expect, unsigned qbits, ring::Poly& product) {
  const std::size_t root = shared_point_checker().draw_root();
  try {
    const std::vector<i64> w = witness();
    SABER_REQUIRE(w.size() == kNn || w.size() == 2 * kNn - 1,
                  "witness length is neither N nor 2N-1");
    std::array<i64, kNn> f;
    std::copy_n(w.begin(), kNn, f.begin());
    for (std::size_t i = 0; i + kNn < w.size(); ++i) {
      f[i] = static_cast<i64>(static_cast<u64>(f[i]) - static_cast<u64>(w[i + kNn]));
    }
    if (shared_point_checker().eval_witness(f, root) != expect(root)) return false;
    product = mult::reduce_witness<kNn>(std::span<const i64>(f), qbits);
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
      [&](ring::Poly& p) {
        // The witness instead of multiply(): the same work, checkable.
        return point_check([&] { return backend.multiply_witness(a, b, qbits); },
                           [&](std::size_t r) {
                             const auto& pc = shared_point_checker();
                             return pc.mul(pc.eval_public(a, qbits, r),
                                           pc.eval_public(b, qbits, r));
                           },
                           qbits, p);
      },
      run,
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
  return with_raw(backends_[k]->prepare_public(a, qbits), a,
                  shared_point_checker().eval_all(a, qbits), qbits, k, kPubMagic);
}

mult::Transformed CheckedMultiplier::prepare_secret(const ring::SecretPoly& s,
                                                    unsigned qbits) const {
  const std::size_t k = breaker_ ? breaker_->prepare_backend() : 0;
  return with_raw(backends_[k]->prepare_secret(s, qbits), s,
                  shared_point_checker().eval_all(s), qbits, k, kSecMagic);
}

mult::Transformed CheckedMultiplier::make_accumulator() const {
  const std::size_t k = breaker_ ? breaker_->pick() : 0;
  auto acc = backends_[k]->make_accumulator();
  // Room for Saber's longest row (four pairs): its accumulations run in place.
  acc.reserve(acc.size() + 4 * kPairLen + kTail);
  acc.insert(acc.end(), kRoots, 0);  // S
  acc.insert(acc.end(), {0, static_cast<i64>(k), kAccMagic});
  return acc;
}

// Under a supervisor an operand holds the image of the backend healthy at
// prepare time; a step routed elsewhere re-prepares from the raw operand or
// replays the raw pairs (lazy, copy-on-quarantine: see supervisor.hpp).

void CheckedMultiplier::pointwise_accumulate(mult::Transformed& acc,
                                             const mult::Transformed& a,
                                             const mult::Transformed& s) const {
  const std::size_t nb = backends_.size();
  const auto view = parse(acc, kAccMagic, kPairLen, nb, "not a checked accumulator");
  const auto pa = parse(a, kPubMagic, kPubWords, nb, "not a checked public transform");
  const auto ps = parse(s, kSecMagic, kSecWords, nb, "not a checked secret transform");
  const std::size_t j = breaker_ ? breaker_->pick() : 0;
  const auto& backend = *backends_[j];
  const auto& pc = shared_point_checker();

  // Set the tail aside, grown by the new pair (at the public operand's modulus:
  // see mult::prepare_secrets) and the updated sums.
  mult::Transformed tail;
  tail.reserve(view.raw.size() + kPairLen + kTail);
  for (const auto words : {view.raw, pa.raw, ps.raw}) {
    tail.insert(tail.end(), words.begin(), words.end());
  }
  tail.push_back(static_cast<i64>(pa.count));
  for (std::size_t r = 0; r < kRoots; ++r) {
    tail.push_back(static_cast<i64>(
        pc.add(static_cast<u64>(view.roots[r]),
               pc.mul(static_cast<u64>(pa.roots[r]), static_cast<u64>(ps.roots[r])))));
  }
  tail.insert(tail.end(),
              {static_cast<i64>(view.count + 1), static_cast<i64>(j), kAccMagic});

  // Accumulate in place on backend j's slices (the backend sees exactly the
  // layout it produced), then re-append the tail. If the backend throws, acc
  // is left without its tail and no longer parses.
  if (view.backend == j) {
    acc.resize(view.inner.size());
  } else {
    acc = accumulator_on(view, j, backend, breaker_.get());
  }
  const auto public_image = [&] {
    if (pa.backend == j) return mult::Transformed(pa.inner.begin(), pa.inner.end());
    breaker_->count_lazy(j, 1);
    return backend.prepare_public(unpack<ring::Poly>(pa.raw),
                                  static_cast<unsigned>(pa.count));
  };
  const auto secret_image = [&] {
    if (ps.backend == j) return mult::Transformed(ps.inner.begin(), ps.inner.end());
    breaker_->count_lazy(j, 1);
    return backend.prepare_secret(unpack<ring::SecretPoly>(ps.raw),
                                  static_cast<unsigned>(ps.count));
  };
  backend.pointwise_accumulate(acc, public_image(), secret_image());
  acc.insert(acc.end(), tail.begin(), tail.end());
}

ring::Poly CheckedMultiplier::finalize(const mult::Transformed& acc,
                                       unsigned qbits) const {
  const auto view =
      parse(acc, kAccMagic, kPairLen, backends_.size(), "not a checked accumulator");
  return routed([&](std::size_t k, u64& faults) {
    const auto& backend = *backends_[k];
    const auto inner = accumulator_on(view, k, backend, breaker_.get());
    const FaultSink sink{counters_, log_, &stats_mu_,
                         FaultRecord::Path::kFinalize, qbits, faults};
    return ladder(
        config_, sink, [&] { return backend.finalize(inner, qbits); },
        [&](ring::Poly& p) {
          return point_check(
              [&] { return backend.finalize_witness(inner); },
              [&](std::size_t r) { return static_cast<u64>(view.roots[r]); }, qbits, p);
        },
        [&] { return backend.finalize(replay(backend, view.raw), qbits); },
        [&] { return reference_sum(*fallback_, view.raw, qbits); });
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
