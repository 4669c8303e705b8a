#include "saber/batch.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "common/zeroize.hpp"
#include "mult/strategy.hpp"
#include "saber/flows.hpp"

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

/// The per-key work of a batch call, which every slot shares: prepare() once.
/// When it throws (a malformed key), every slot fails alike with its error
/// and a zeroed value, and the result is empty. An empty batch prepares
/// nothing.
template <typename Key, typename T, typename Prepare>
std::optional<Key> prepare_or_fail(std::vector<Outcome<T>>& out, Prepare&& prepare) {
  std::optional<Key> key;
  if (out.empty()) return key;
  try {
    key.emplace(prepare());
  } catch (...) {
    const std::string error = current_error();
    for (auto& o : out) fail(o, error);
  }
  return key;
}

// --- the FO hashes of a chunk, lane j for item j (see KemBatch::Chunk) -----

constexpr std::size_t kLanes = kem::kBatchLanes;
constexpr std::size_t kHash = kem::SaberParams::hash_bytes;

template <std::size_t N>
using LaneArrays = sha3::SpongeX4::Lanes<std::array<u8, N>>;

/// G of encaps and decaps: (khat, r) = SHA3-512(m || H(pk)) for every lane.
template <typename C>
LaneArrays<2 * kHash> hash_g_x4(const C& c, const LaneArrays<kHash>& m,
                                std::span<const u8, kHash> pk_hash) {
  auto in = c.lanes([&](std::size_t j) { return kem::flows::g_input_g(m[j], pk_hash); });
  ZeroizeGuard guard_in(in);
  return sha3::sha3_512_x4({in[0], in[1], in[2], in[3]});
}

/// s''s SHAKE-128 streams of a chunk's lanes in one buffer, wiped on
/// destruction.
class SecretStreams {
 public:
  explicit SecretStreams(const kem::SaberParams& params)
      : bytes_(kem::secret_stream_bytes(params)), buf_(kLanes * bytes_) {}
  ~SecretStreams() { secure_zeroize(std::span<u8>(buf_)); }
  SecretStreams(const SecretStreams&) = delete;
  SecretStreams& operator=(const SecretStreams&) = delete;

  std::span<u8> operator[](std::size_t j) {
    return std::span<u8>(buf_).subspan(j * bytes_, bytes_);
  }

  /// Lane j's stream from the coins r of kr[j] = khat || r.
  template <typename C>
  void squeeze(const C& c, const LaneArrays<2 * kHash>& kr) {
    sha3::shake128_x4(
        c.lanes([&](std::size_t j) { return std::span<const u8>(kr[j]).subspan(kHash); }),
        {(*this)[0], (*this)[1], (*this)[2], (*this)[3]});
  }

 private:
  std::size_t bytes_;
  std::vector<u8> buf_;
};

/// kr[j] = khat || SHA3-256(ct(j)): r, spent on s''s stream, makes way for
/// the ciphertext's hash.
template <typename C, typename Ct>
void bind_ct_x4(const C& c, LaneArrays<2 * kHash>& kr, Ct&& ct) {
  const auto ct_hash = sha3::sha3_256_x4(c.lanes(ct));
  for (std::size_t j = 0; j < kLanes; ++j) {
    std::copy(ct_hash[j].begin(), ct_hash[j].end(),
              kr[j].begin() + static_cast<std::ptrdiff_t>(kHash));
  }
}

/// K = SHA3-256(kr[j]), stored through key_of into every item still ok.
template <typename C, typename KeyOf>
void derive_keys_x4(const C& c, const LaneArrays<2 * kHash>& kr, KeyOf&& key_of) {
  auto keys = sha3::sha3_256_x4(
      c.lanes([&](std::size_t j) { return std::span<const u8>(kr[j]); }));
  ZeroizeGuard guard_keys(keys);
  c.each([&](std::size_t j, auto& value) { key_of(value) = keys[j]; });
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

/// One worker's chunk: up to kem::kBatchLanes consecutive items of one batch
/// call. The call's chunk function alternates per-item stages (each()) with
/// lockstep stages, whose four lanes it fills through lanes().
template <typename T>
class KemBatch::Chunk {
 public:
  Chunk(const KemBatch& batch, unsigned worker, std::size_t first,
        std::span<Outcome<T>> items)
      : batch_(batch), worker_(worker), first_(first), items_(items) {}

  unsigned worker() const { return worker_; }
  /// The batch index of the chunk's item j.
  std::size_t index(std::size_t j) const { return first_ + j; }
  T& value(std::size_t j) const { return items_[j].value; }

  /// A per-item stage: stage(j, value) for every item j still ok, each
  /// isolated by run_item. False when no item is left ok, so the chunk has
  /// nothing left to hash.
  template <typename Stage>
  bool each(Stage&& stage) const {
    bool any_ok = false;
    for (std::size_t j = 0; j < items_.size(); ++j) {
      if (!items_[j].ok()) continue;
      batch_.run_item(worker_, items_[j], [&](T& value) { stage(j, value); });
      any_ok = any_ok || items_[j].ok();
    }
    return any_ok;
  }

  /// The inputs of a lockstep stage: lane j gets f(j) while item j is still
  /// ok. A padding lane past the tail and the lane of a failed item get f of
  /// the last ok item instead, a stand-in of the same length whose outputs
  /// are dropped.
  template <typename F>
  auto lanes(F&& f) const {
    std::size_t last_ok = items_.size();
    while (last_ok > 0 && !items_[last_ok - 1].ok()) --last_ok;
    SABER_ENSURE(last_ok > 0, "lockstep stage without an ok item");
    const auto lane = [&](std::size_t j) {
      return j < items_.size() && items_[j].ok() ? j : last_ok - 1;
    };
    static_assert(kem::kBatchLanes == 4);
    return sha3::SpongeX4::Lanes<decltype(f(std::size_t{0}))>{f(lane(0)), f(lane(1)),
                                                               f(lane(2)), f(lane(3))};
  }

  /// Fail every item still ok: a lockstep stage, which all of them share,
  /// threw.
  void fail_all(const std::string& error) const {
    for (auto& item : items_) {
      if (item.ok()) fail(item, error);
    }
  }

 private:
  const KemBatch& batch_;
  unsigned worker_;
  std::size_t first_;
  std::span<Outcome<T>> items_;
};

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

template <typename T, typename ChunkFn>
void KemBatch::run_chunks(std::vector<Outcome<T>>& out, ChunkFn&& chunk_fn) {
  pool_.run(ceil_div(out.size(), kLanes), [&](unsigned worker, std::size_t chunk) {
    const std::size_t first = chunk * kLanes;
    const Chunk<T> c(*this, worker, first,
                     std::span(out).subspan(first, std::min(kLanes, out.size() - first)));
    try {
      chunk_fn(c);
    } catch (...) {
      c.fail_all(current_error());
    }
  });
}

std::vector<Outcome<kem::KemKeyPair>> KemBatch::keygen_many(
    std::span<const KeygenRequest> requests) {
  // The seed re-hash, A and s of four keys (expand_keygen_x4), then A^T s,
  // rounding and packing per item, then H(pk) of four keys.
  std::vector<Outcome<kem::KemKeyPair>> out(requests.size());
  run_chunks(out, [&](const Chunk<kem::KemKeyPair>& c) {
    const auto request = [&](std::size_t j) -> const KeygenRequest& {
      return requests[c.index(j)];
    };
    const auto ex = kem::expand_keygen_x4(
        c.lanes([&](std::size_t j) { return std::span<const u8>(request(j).seed_a); }),
        c.lanes([&](std::size_t j) { return std::span<const u8>(request(j).seed_s); }),
        params_);
    std::array<kem::PkeKeyPair, kLanes> pke;
    const auto& scheme_w = scheme(c.worker());
    if (!c.each([&](std::size_t j, kem::KemKeyPair&) {
          pke[j] = scheme_w.pke().keygen(ex[j]);
        })) {
      return;
    }
    const auto pk_hashes = sha3::sha3_256_x4(
        c.lanes([&](std::size_t j) { return std::span<const u8>(pke[j].pk); }));
    c.each([&](std::size_t j, kem::KemKeyPair& kp) {
      kp = scheme_w.assemble_keys(std::move(pke[j]), pk_hashes[j], request(j).z);
    });
  });
  return out;
}

std::vector<Outcome<kem::EncapsResult>> KemBatch::encaps_many(
    std::span<const u8> pk, std::span<const kem::Message> messages) {
  // Per-key work once per batch: expand A from its seed, forward-transform A
  // and b, and hash pk. The prepared key is plain data, shared read-only by
  // all workers (every worker's multiplier has the same configuration).
  // Under a supervised multiplier this preparation is lazy: only the active
  // backend's image is materialized here, and a worker routed to a failover
  // backend mid-batch re-prepares its own private image from the raw
  // polynomials the transform retains — the shared `prep` itself is never
  // invalidated.
  std::vector<Outcome<kem::EncapsResult>> out(messages.size());
  const auto prep = prepare_or_fail<kem::PreparedPublicKey>(
      out, [&] { return schemes_[0]->pke().prepare_pk(pk); });
  if (!prep) return out;
  run_chunks(out, [&](const Chunk<kem::EncapsResult>& c) {
    // m = SHA3-256(m_raw), (khat, r) = G(m || H(pk)) and s''s stream.
    auto m = sha3::sha3_256_x4(c.lanes(
        [&](std::size_t j) { return std::span<const u8>(messages[c.index(j)]); }));
    ZeroizeGuard guard_m(m);
    auto kr = hash_g_x4(c, m, prep->pk_hash);
    ZeroizeGuard guard_kr(kr);
    SecretStreams streams(params_);
    streams.squeeze(c, kr);
    const auto& pke = scheme(c.worker()).pke();
    if (!c.each([&](std::size_t j, kem::EncapsResult& res) {
          res.ct = pke.encrypt_stream(m[j], streams[j], *prep);
        })) {
      return;
    }
    // K = SHA3-256(khat || SHA3-256(ct))
    bind_ct_x4(c, kr, [&](std::size_t j) { return std::span<const u8>(c.value(j).ct); });
    derive_keys_x4(c, kr,
                   [](kem::EncapsResult& res) -> kem::SharedSecret& { return res.key; });
  });
  return out;
}

std::vector<Outcome<kem::SharedSecret>> KemBatch::decaps_many(
    std::span<const u8> sk, std::span<const std::vector<u8>> cts) {
  // Per-key work once per batch, the decaps counterpart of encaps_many's
  // `prep`: split sk, prepare the embedded pk (A expanded and transformed, b
  // transformed) and transform s. Workers share it read-only; under a
  // supervised multiplier a worker routed to a failover backend re-prepares
  // its own images from the raw operands the shared ones retain.
  std::vector<Outcome<kem::SharedSecret>> out(cts.size());
  const auto prep = prepare_or_fail<kem::PreparedSecretKey>(
      out, [&] { return schemes_[0]->prepare_sk(sk); });
  if (!prep) return out;
  run_chunks(out, [&](const Chunk<kem::SharedSecret>& c) {
    const auto ct = [&](std::size_t j) { return std::span<const u8>(cts[c.index(j)]); };
    const auto& pke = scheme(c.worker()).pke();
    LaneArrays<kHash> m{};
    ZeroizeGuard guard_m(m);
    if (!c.each([&](std::size_t j, kem::SharedSecret&) {
          m[j] = pke.decrypt(ct(j), prep->s);
        })) {
      return;
    }
    // (khat', r') = G(m' || H(pk)) and s''s stream, then H(ct) of the
    // received ciphertexts, whose lengths decrypt has checked.
    auto kr = hash_g_x4(c, m, prep->pk.pk_hash);
    ZeroizeGuard guard_kr(kr);
    SecretStreams streams(params_);
    streams.squeeze(c, kr);
    bind_ct_x4(c, kr, ct);
    if (!c.each([&](std::size_t j, kem::SharedSecret&) {
          const auto ct2 = pke.encrypt_stream(m[j], streams[j], prep->pk);
          kem::flows::fo_select_g(ct(j), std::span<const u8>(ct2), std::span(kr[j]),
                                  std::span<const u8, kHash>(prep->z));
        })) {
      return;
    }
    derive_keys_x4(c, kr,
                   [](kem::SharedSecret& key) -> kem::SharedSecret& { return key; });
  });
  return out;
}

}  // namespace saber::batch
