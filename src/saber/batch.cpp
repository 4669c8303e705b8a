#include "saber/batch.hpp"

#include <optional>

#include "common/check.hpp"
#include "common/zeroize.hpp"
#include "mult/strategy.hpp"

namespace saber::batch {
namespace {

// Wipe partial results of a failed item before the slot is reported: a task
// that threw halfway may have left key material in the output buffers.
void wipe(std::vector<u8>& v) {
  secure_zeroize(v.data(), v.size());
  v.clear();
  v.shrink_to_fit();
}
void wipe(kem::SharedSecret& s) { secure_zeroize_object(s); }
void wipe(kem::KemKeyPair& kp) {
  wipe(kp.pk);
  wipe(kp.sk);
}
void wipe(kem::EncapsResult& e) {
  wipe(e.ct);
  wipe(e.key);
}

}  // namespace

std::string_view to_string(ItemStatus status) {
  switch (status) {
    case ItemStatus::kOk: return "ok";
    case ItemStatus::kRecovered: return "recovered";
    case ItemStatus::kFailed: return "failed";
  }
  return "?";
}

KemBatch::KemBatch(const kem::SaberParams& params, std::string_view mult_name,
                   unsigned threads)
    : KemBatch(params,
               [name = std::string(mult_name)] {
                 return std::shared_ptr<const mult::PolyMultiplier>(
                     mult::make_multiplier(name));
               },
               threads) {}

KemBatch::KemBatch(const kem::SaberParams& params, MultiplierFactory factory,
                   unsigned threads)
    : params_(params), pool_(threads) {
  SABER_REQUIRE(factory != nullptr, "KemBatch: null multiplier factory");
  schemes_.reserve(pool_.size());
  monitors_.reserve(pool_.size());
  std::string first_name;
  for (unsigned i = 0; i < pool_.size(); ++i) {
    std::shared_ptr<const mult::PolyMultiplier> m = factory();
    SABER_REQUIRE(m != nullptr, "KemBatch: factory returned null multiplier");
    if (i == 0) {
      first_name = std::string(m->name());
    } else {
      SABER_REQUIRE(m->name() == first_name,
                    "KemBatch: factory produced differently-configured multipliers");
    }
    monitors_.push_back(dynamic_cast<const FaultMonitor*>(m.get()));
    schemes_.push_back(std::make_unique<kem::SaberKemScheme>(params_, std::move(m)));
  }
}

template <typename T, typename Fn>
std::vector<Outcome<T>> KemBatch::run_items(std::size_t n, Fn&& item_fn) {
  std::vector<Outcome<T>> out(n);
  // Workers run items one at a time, so a before/after counter snapshot
  // around one item attributes any detected-and-recovered fault to exactly
  // that item (counters are per-worker: no cross-thread attribution noise).
  std::vector<std::exception_ptr> errors =
      pool_.run_capture(n, [&](unsigned worker, std::size_t i) {
        const FaultMonitor* mon = monitors_[worker];
        const u64 mismatches_before = mon ? mon->fault_counters().mismatches : 0;
        item_fn(worker, i, out[i].value);
        if (mon && mon->fault_counters().mismatches > mismatches_before) {
          out[i].status = ItemStatus::kRecovered;
        }
      });
  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i]) continue;
    out[i].status = ItemStatus::kFailed;
    wipe(out[i].value);
    try {
      std::rethrow_exception(errors[i]);
    } catch (const std::exception& e) {
      out[i].error = e.what();
    } catch (...) {
      out[i].error = "unknown error";
    }
  }
  return out;
}

std::vector<Outcome<kem::KemKeyPair>> KemBatch::keygen_many(
    std::span<const KeygenRequest> requests) {
  return run_items<kem::KemKeyPair>(
      requests.size(), [&](unsigned worker, std::size_t i, kem::KemKeyPair& out) {
        const auto& r = requests[i];
        out = scheme(worker).keygen_deterministic(r.seed_a, r.seed_s, r.z);
      });
}

std::vector<Outcome<kem::EncapsResult>> KemBatch::encaps_many(
    std::span<const u8> pk, std::span<const kem::Message> messages) {
  // Per-key work once per batch: expand A from its seed and forward-transform
  // A and b. The prepared transforms are plain data, shared read-only by all
  // workers (every worker's multiplier has the same configuration). Under a
  // supervised multiplier this preparation is lazy: only the active backend's
  // image is materialized here, and a worker routed to a failover backend
  // mid-batch re-prepares its own private image from the raw polynomials the
  // transform retains — the shared `prep` itself is never invalidated.
  const kem::PreparedPublicKey prep = schemes_[0]->pke().prepare_pk(pk);
  return run_items<kem::EncapsResult>(
      messages.size(), [&](unsigned worker, std::size_t i, kem::EncapsResult& out) {
        out = scheme(worker).encaps_deterministic(pk, prep, messages[i]);
      });
}

std::vector<Outcome<kem::SharedSecret>> KemBatch::decaps_many(
    std::span<const u8> sk, std::span<const std::vector<u8>> cts) {
  // Per-key work once per batch, the decaps counterpart of encaps_many's
  // `prep`: split sk, prepare the embedded pk (A expanded and transformed, b
  // transformed) and transform s. Workers share it read-only; under a
  // supervised multiplier a worker routed to a failover backend re-prepares
  // its own images from the raw operands the shared ones retain.
  std::optional<kem::PreparedSecretKey> prep;
  try {
    prep.emplace(schemes_[0]->prepare_sk(sk));
  } catch (const std::exception& e) {
    // Every item would have parsed this sk on its own and failed alike.
    std::vector<Outcome<kem::SharedSecret>> out(cts.size());
    for (auto& o : out) {
      o.status = ItemStatus::kFailed;
      o.error = e.what();
    }
    return out;
  }
  return run_items<kem::SharedSecret>(
      cts.size(), [&](unsigned worker, std::size_t i, kem::SharedSecret& out) {
        out = scheme(worker).decaps(cts[i], *prep);
      });
}

}  // namespace saber::batch
