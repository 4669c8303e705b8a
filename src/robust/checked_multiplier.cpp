#include "robust/checked_multiplier.hpp"

#include <optional>

#include "common/check.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "multipliers/memory_map.hpp"
#include "ring/polyvec.hpp"
#include "robust/algebraic_check.hpp"

namespace saber::robust {

namespace {

// Footer magics marking a Transformed as produced by a CheckedMultiplier.
// They catch the one mixing mistake the type system cannot: feeding a raw
// backend's transform into a checked instance (or vice versa — the distinct
// name() already keys PreparedMatrix compatibility, this is defense in depth).
constexpr i64 kPubMagic = 0x5ABE'C4EC'0000'0001LL;
constexpr i64 kSecMagic = 0x5ABE'C4EC'0000'0002LL;
constexpr i64 kAccMagic = 0x5ABE'C4EC'0000'0003LL;

constexpr std::size_t kNn = ring::kN;
/// Raw-operand footer of a prepared public/secret: kN coefficients, the
/// modulus it was prepared at, and the magic.
constexpr std::size_t kOperandTail = kNn + 2;
/// One (raw a, raw s, qbits) pair embedded in an accumulator.
constexpr std::size_t kPairLen = 2 * kNn + 1;

/// A checked operand, sliced: the inner backend's image and the raw operand.
struct OperandView {
  std::span<const i64> inner;
  std::span<const i64> raw;  ///< kN coefficients
  unsigned qbits;
};

OperandView parse_operand(std::span<const i64> t, i64 magic, const char* what) {
  SABER_REQUIRE(t.size() >= kOperandTail && t.back() == magic, what);
  const auto qbits = static_cast<unsigned>(t[t.size() - 2]);
  SABER_REQUIRE(qbits >= 1 && qbits <= 16, "checked transform qbits corrupt");
  const std::size_t inner_len = t.size() - kOperandTail;
  return {t.first(inner_len), t.subspan(inner_len, kNn), qbits};
}

/// A checked accumulator, sliced: the inner accumulator and the raw pairs.
struct AccView {
  std::span<const i64> inner;
  std::span<const i64> pairs;  ///< n_pairs * kPairLen values
};

AccView parse_acc(std::span<const i64> acc) {
  SABER_REQUIRE(acc.size() >= 2 && acc.back() == kAccMagic,
                "not a checked-multiplier accumulator");
  const auto n = static_cast<std::size_t>(acc[acc.size() - 2]);
  const std::size_t tail = 2 + n * kPairLen;
  SABER_REQUIRE(acc.size() >= tail, "corrupt checked accumulator header");
  const std::size_t inner_len = acc.size() - tail;
  return {acc.first(inner_len), acc.subspan(inner_len, n * kPairLen)};
}

/// Append the raw-operand footer to an inner image.
template <class P>
mult::Transformed with_raw(mult::Transformed t, const P& p, unsigned qbits, i64 magic) {
  t.reserve(t.size() + kOperandTail);
  for (std::size_t i = 0; i < kNn; ++i) t.push_back(p[i]);
  t.push_back(static_cast<i64>(qbits));
  t.push_back(magic);
  return t;
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

std::pair<ring::Poly, unsigned> CheckedMultiplier::raw_public(std::span<const i64> t) {
  const auto v = parse_operand(t, kPubMagic, "not a checked public transform");
  ring::Poly a;
  for (std::size_t i = 0; i < kNn; ++i) a[i] = static_cast<u16>(v.raw[i]);
  return {a, v.qbits};
}

std::pair<ring::SecretPoly, unsigned> CheckedMultiplier::raw_secret(
    std::span<const i64> t) {
  const auto v = parse_operand(t, kSecMagic, "not a checked secret transform");
  ring::SecretPoly s;
  for (std::size_t i = 0; i < kNn; ++i) s[i] = static_cast<i8>(v.raw[i]);
  return {s, v.qbits};
}

std::vector<RawPair> CheckedMultiplier::raw_pairs(std::span<const i64> acc) {
  const auto pairs = parse_acc(acc).pairs;
  std::vector<RawPair> out(pairs.size() / kPairLen);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto p = pairs.subspan(k * kPairLen, kPairLen);
    for (std::size_t i = 0; i < kNn; ++i) {
      out[k].a[i] = static_cast<u16>(p[i]);
      out[k].s[i] = static_cast<i8>(p[kNn + i]);
    }
    out[k].qbits = static_cast<unsigned>(p[2 * kNn]);
  }
  return out;
}

CheckedMultiplier::CheckedMultiplier(std::unique_ptr<mult::PolyMultiplier> inner,
                                     CheckedConfig config,
                                     std::unique_ptr<mult::PolyMultiplier> fallback)
    : inner_(std::move(inner)),
      fallback_(fallback ? std::move(fallback)
                         : std::make_unique<mult::SchoolbookMultiplier>()),
      config_(config) {
  SABER_REQUIRE(static_cast<bool>(inner_), "inner multiplier required");
  name_ = "checked(" + std::string(inner_->name()) + ")";
}

void CheckedMultiplier::bump(u64 FaultCounters::* field) const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ++(counters_.*field);
}

void CheckedMultiplier::record(FaultRecord::Path path, FaultRecord::Resolution res,
                               unsigned qbits) const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  log_.push_back({path, res, qbits});
}

FaultCounters CheckedMultiplier::fault_counters() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return counters_;
}

std::vector<FaultRecord> CheckedMultiplier::fault_log() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return log_;
}

template <class Run, class Verify, class Retry, class Reference>
ring::Poly CheckedMultiplier::ladder(FaultRecord::Path path, unsigned qbits, Run run,
                                     Verify verify, Retry retry,
                                     Reference reference) const {
  if (config_.policy == CheckPolicy::kOff) return run();
  bump(&FaultCounters::checks);
  ring::Poly product{};
  std::optional<ring::Poly> expected;
  if (config_.kind == CheckKind::kPointEval) {
    if (verify(product)) return product;
  } else {
    product = run();
    expected = reference();
    if (product == *expected) return product;
  }

  bump(&FaultCounters::mismatches);
  if (!expected) expected = reference();
  // Transient-fault recovery: a one-shot upset does not repeat.
  const auto retried = retry();
  if (retried == *expected) {
    bump(&FaultCounters::retry_recoveries);
    record(path, FaultRecord::Resolution::kRetry, qbits);
    return retried;
  }
  // Permanent fault: fail over to the reference backend — after confirming
  // the reference reproduces itself, so a faulty reference cannot be trusted
  // silently.
  if (reference() != *expected) {
    throw FaultDetectedError(
        "unrecoverable fault: reference backend is inconsistent with itself");
  }
  bump(&FaultCounters::failovers);
  record(path, FaultRecord::Resolution::kFailover, qbits);
  return *expected;
}

bool CheckedMultiplier::algebraic_multiply(const ring::Poly& a, const ring::Poly& b,
                                           unsigned qbits, ring::Poly& product) const {
  const auto& pc = shared_point_checker();
  // Rotating per-check root: an adversarial defect tuned to one published
  // evaluation point does not know which root this check lands on.
  const std::size_t root = pc.draw_root();
  try {
    // The witness instead of multiply(): same work, but it ends on the
    // exact integers the point check needs. The verified witness then folds
    // to the product, so nothing is computed twice.
    const auto w = inner_->multiply_witness(a, b, qbits);
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

ring::Poly CheckedMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                       unsigned qbits) const {
  const auto run = [&] { return inner_->multiply(a, b, qbits); };
  return ladder(
      FaultRecord::Path::kMultiply, qbits, run,
      [&](ring::Poly& p) { return algebraic_multiply(a, b, qbits, p); }, run,
      [&] { return fallback_->multiply(a, b, qbits); });
}

mult::Transformed CheckedMultiplier::prepare_public(const ring::Poly& a,
                                                    unsigned qbits) const {
  return with_raw(inner_->prepare_public(a, qbits), a, qbits, kPubMagic);
}

mult::Transformed CheckedMultiplier::prepare_secret(const ring::SecretPoly& s,
                                                    unsigned qbits) const {
  return with_raw(inner_->prepare_secret(s, qbits), s, qbits, kSecMagic);
}

mult::Transformed CheckedMultiplier::make_accumulator() const {
  auto acc = inner_->make_accumulator();
  acc.push_back(0);  // n_pairs
  acc.push_back(kAccMagic);
  return acc;
}

void CheckedMultiplier::pointwise_accumulate(mult::Transformed& acc,
                                             const mult::Transformed& a,
                                             const mult::Transformed& s) const {
  const auto view = parse_acc(acc);
  const auto pa = parse_operand(a, kPubMagic, "not a checked public transform");
  const auto ps = parse_operand(s, kSecMagic, "not a checked secret transform");

  // Delegate on the inner slices (the inner backend sees exactly the layout
  // it produced), then rebuild: inner acc | pairs | new pair | n+1 | magic.
  // The pair keeps the public operand's modulus: a prepared secret may come
  // from another modulus (see mult::prepare_secrets).
  mult::Transformed inner_acc(view.inner.begin(), view.inner.end());
  inner_->pointwise_accumulate(inner_acc,
                               mult::Transformed(pa.inner.begin(), pa.inner.end()),
                               mult::Transformed(ps.inner.begin(), ps.inner.end()));

  mult::Transformed next;
  next.reserve(inner_acc.size() + view.pairs.size() + kPairLen + 2);
  next.insert(next.end(), inner_acc.begin(), inner_acc.end());
  next.insert(next.end(), view.pairs.begin(), view.pairs.end());
  next.insert(next.end(), pa.raw.begin(), pa.raw.end());
  next.insert(next.end(), ps.raw.begin(), ps.raw.end());
  next.push_back(static_cast<i64>(pa.qbits));
  next.push_back(static_cast<i64>(view.pairs.size() / kPairLen + 1));
  next.push_back(kAccMagic);
  acc = std::move(next);
}

ring::Poly CheckedMultiplier::reference_sum(std::span<const RawPair> pairs,
                                            unsigned qbits) const {
  ring::Poly sum{};
  for (const auto& p : pairs) {
    ring::add_inplace(sum, fallback_->multiply_secret(p.a, p.s, qbits), qbits);
  }
  return sum;
}

ring::Poly CheckedMultiplier::inner_recompute(std::span<const RawPair> pairs,
                                              unsigned qbits) const {
  // Full re-derivation on the inner backend: fresh forward transforms, fresh
  // accumulation, fresh inverse transform. A transient during the *original*
  // prepare or accumulate is left behind, not replayed.
  auto acc = inner_->make_accumulator();
  for (const auto& p : pairs) {
    inner_->pointwise_accumulate(acc, inner_->prepare_public(p.a, p.qbits),
                                 inner_->prepare_secret(p.s, p.qbits));
  }
  return inner_->finalize(acc, qbits);
}

bool CheckedMultiplier::algebraic_finalize(const mult::Transformed& inner_acc,
                                           std::span<const RawPair> pairs,
                                           unsigned qbits, ring::Poly& product) const {
  const auto& pc = shared_point_checker();
  const std::size_t root = pc.draw_root();
  try {
    const auto w = inner_->finalize_witness(inner_acc);
    // The check is linear in the accumulated terms: sum_k a_k(x_r) * s_k(x_r)
    // must equal w(x_r), each public operand lifted at its own modulus.
    u64 sum = 0;
    for (const auto& p : pairs) {
      sum = pc.add(sum, pc.mul(pc.eval_public(p.a, p.qbits, root),
                               pc.eval_secret(p.s, root)));
    }
    if (pc.eval_witness(w, root) != sum) return false;
    product = mult::reduce_witness<ring::kN>(std::span<const i64>(w), qbits);
    return true;
  } catch (const ContractViolation&) {
    return false;
  }
}

ring::Poly CheckedMultiplier::finalize(const mult::Transformed& acc,
                                       unsigned qbits) const {
  const auto inner = parse_acc(acc).inner;
  const mult::Transformed inner_acc(inner.begin(), inner.end());
  const auto pairs = raw_pairs(acc);
  return ladder(
      FaultRecord::Path::kFinalize, qbits,
      [&] { return inner_->finalize(inner_acc, qbits); },
      [&](ring::Poly& p) { return algebraic_finalize(inner_acc, pairs, qbits, p); },
      [&] { return inner_recompute(pairs, qbits); },
      [&] { return reference_sum(pairs, qbits); });
}

std::size_t CheckedMultiplier::max_accumulated_terms() const {
  return inner_->max_accumulated_terms();
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
  auto res = inner_->multiply(a, s, accumulate);
  check_cycles(res.cycles);
  if (config_.policy == CheckPolicy::kOff) return res;

  ++counters_.checks;
  auto expected = reference_->multiply_secret(a, s, kQ);
  if (accumulate != nullptr) ring::add_inplace(expected, *accumulate, kQ);
  if (res.product == expected) return res;

  ++counters_.mismatches;
  auto retried = inner_->multiply(a, s, accumulate);
  check_cycles(retried.cycles);
  if (retried.product == expected) {
    ++counters_.retry_recoveries;
    log_.push_back({FaultRecord::Path::kHardware, FaultRecord::Resolution::kRetry, kQ});
    return retried;
  }
  auto expected2 = reference_->multiply_secret(a, s, kQ);
  if (accumulate != nullptr) ring::add_inplace(expected2, *accumulate, kQ);
  if (expected2 != expected) {
    throw FaultDetectedError(
        "unrecoverable fault: reference backend is inconsistent with itself");
  }
  ++counters_.failovers;
  log_.push_back({FaultRecord::Path::kHardware, FaultRecord::Resolution::kFailover, kQ});
  retried.product = expected;  // cycle/power stats remain the hardware runs'
  return retried;
}

}  // namespace saber::robust
