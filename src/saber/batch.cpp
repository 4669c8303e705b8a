#include "saber/batch.hpp"

#include <algorithm>
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

/// The message of the exception being handled.
std::string current_error() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

template <typename T>
void fail(Outcome<T>& out, std::string error) {
  out.status = ItemStatus::kFailed;
  out.error = std::move(error);
  wipe(out.value);
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
void KemBatch::run_item(unsigned worker, Outcome<T>& out, Fn&& fn) const {
  // A worker runs its items one at a time, so a before/after counter
  // snapshot around one item attributes any detected-and-recovered fault to
  // exactly that item (counters are per-worker: no cross-thread attribution
  // noise).
  const FaultMonitor* mon = monitors_[worker];
  const u64 mismatches_before = mon ? mon->fault_counters().mismatches : 0;
  try {
    fn(out.value);
  } catch (...) {
    fail(out, current_error());
    return;
  }
  if (mon && mon->fault_counters().mismatches > mismatches_before) {
    out.status = ItemStatus::kRecovered;
  }
}

template <typename T, typename Fn>
std::vector<Outcome<T>> KemBatch::run_items(std::size_t n, Fn&& item_fn) {
  std::vector<Outcome<T>> out(n);
  pool_.run(n, [&](unsigned worker, std::size_t i) {
    run_item(worker, out[i], [&](T& value) { item_fn(worker, i, value); });
  });
  return out;
}

std::vector<Outcome<kem::KemKeyPair>> KemBatch::keygen_many(
    std::span<const KeygenRequest> requests) {
  // Each worker takes a chunk of kKeygenLanes consecutive requests and hashes
  // them in lockstep on one four-lane Keccak: the seed re-hash, A and s
  // (expand_keygen_x4), then H(pk). The products and packing in between run
  // one item at a time, each isolated as run_items isolates it. A tail chunk
  // fills its unused lanes with copies of its last request and drops their
  // outputs.
  constexpr std::size_t kLanes = kem::kKeygenLanes;
  const std::size_t n = requests.size();
  std::vector<Outcome<kem::KemKeyPair>> out(n);
  pool_.run(ceil_div(n, kLanes), [&](unsigned worker, std::size_t chunk) {
    const std::size_t first = chunk * kLanes;
    const std::size_t count = std::min(kLanes, n - first);
    const auto item = [&](std::size_t j) -> Outcome<kem::KemKeyPair>& {
      return out[first + j];
    };
    const auto request = [&](std::size_t j) -> const KeygenRequest& {
      return requests[first + std::min(j, count - 1)];
    };
    try {
      const auto ex = kem::expand_keygen_x4(
          {request(0).seed_a, request(1).seed_a, request(2).seed_a, request(3).seed_a},
          {request(0).seed_s, request(1).seed_s, request(2).seed_s, request(3).seed_s},
          params_);
      std::array<kem::PkeKeyPair, kLanes> pke;
      std::size_t last_ok = kLanes;
      for (std::size_t j = 0; j < count; ++j) {
        run_item(worker, item(j), [&](kem::KemKeyPair&) {
          pke[j] = scheme(worker).pke().keygen(ex[j]);
        });
        if (item(j).ok()) last_ok = j;
      }
      if (last_ok == kLanes) return;
      // Failed and padding lanes hash a stand-in of the same length.
      const auto pk = [&](std::size_t j) -> std::span<const u8> {
        return pke[j < count && item(j).ok() ? j : last_ok].pk;
      };
      const auto hashes = sha3::sha3_256_x4({pk(0), pk(1), pk(2), pk(3)});
      for (std::size_t j = 0; j < count; ++j) {
        if (!item(j).ok()) continue;
        item(j).value = scheme(worker).assemble_keys(std::move(pke[j]), hashes[j],
                                                     request(j).z);
      }
    } catch (...) {
      // Only a failure of the shared lockstep hashing lands here.
      for (std::size_t j = 0; j < count; ++j) fail(item(j), current_error());
    }
  });
  return out;
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
        out = scheme(worker).encaps_deterministic(prep, messages[i]);
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
    for (auto& o : out) fail(o, e.what());
    return out;
  }
  return run_items<kem::SharedSecret>(
      cts.size(), [&](unsigned worker, std::size_t i, kem::SharedSecret& out) {
        out = scheme(worker).decaps(cts[i], *prep);
      });
}

}  // namespace saber::batch
