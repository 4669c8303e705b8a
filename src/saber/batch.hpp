// Batched, multithreaded KEM throughput pipeline with failure isolation.
//
// A server terminating many KEM handshakes does not run one operation at a
// time: it drains queues of independent keygen / encaps / decaps requests.
// KemBatch models that workload. Each worker thread owns a private
// SaberKemScheme, and so a private multiplier instance: a checked
// multiplier's fault counters then attribute each fault to the item that hit
// it, and a cycle-accurate core is never shared. Per-key work is done once
// per batch and shared read-only across workers via the split-transform cache
// (mult/batch.hpp): encaps_many prepares the public key (SHAKE-expanding A,
// forward-transforming A and b), decaps_many the secret key (the same for
// its embedded pk, plus unpacking and transforming s).
//
// Lockstep hashing: all three calls hand each worker chunks of
// kem::kBatchLanes = 4 consecutive requests, and a chunk's hashing runs on
// one four-lane Keccak (sha3::SpongeX4). For keys that is the seed re-hash,
// A, s and H(pk); for encapsulations and decapsulations the FO hashes
// (SHA3-256 of the message, G = SHA3-512, SHAKE-128 of the coins, SHA3-256
// of the ciphertext and of the key input). Products, packing and the FO
// compare run one item at a time in between, through the same stage bodies
// as the single-operation calls (saber/flows.hpp). A tail chunk fills its
// unused lanes with a stand-in item and drops their outputs.
//
// Failure isolation: every operation returns a per-item Outcome instead of a
// bare value. A poisoned request (malformed ciphertext, unrecoverable
// computational fault) fails only its own slot — the worker catches the
// exception, records it as ItemStatus::kFailed, and every other item
// completes normally; a stand-in item hashes in the failed item's lane for
// the rest of its chunk. A malformed public key is shared by every slot of
// its encaps_many batch, and a malformed secret key by every slot of its
// decaps_many batch, so either fails every slot alike. When the
// workers run fault-checking multipliers (robust::CheckedMultiplier,
// injected via the factory constructor), items whose faults were detected
// and repaired by retry/failover are reported as ItemStatus::kRecovered —
// the value is correct, but the operator should know the hardware
// misbehaved.
//
// Determinism: requests map to output slots by index and every request is a
// pure function of its inputs, so results are bit-identical for any thread
// count.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/faults.hpp"
#include "common/thread_pool.hpp"
#include "saber/kem.hpp"

namespace saber::batch {

/// Inputs of one deterministic key generation.
struct KeygenRequest {
  kem::Seed seed_a;       ///< pre-hash seed for the public matrix A
  kem::Seed seed_s;       ///< seed for the secret vector s
  kem::SharedSecret z;    ///< implicit-rejection secret
};

enum class ItemStatus : u8 {
  kOk,         ///< computed fault-free
  kRecovered,  ///< a fault was detected and repaired; the value is correct
  kFailed,     ///< the item threw; `value` is default-initialized (zeroized)
};

std::string_view to_string(ItemStatus status);

/// Per-item result of a batch operation.
template <typename T>
struct Outcome {
  T value{};                              ///< meaningful unless status == kFailed
  ItemStatus status = ItemStatus::kOk;
  std::string error;                      ///< diagnostic, kFailed only

  bool ok() const { return status != ItemStatus::kFailed; }
};

/// Builds one multiplier per worker. Every invocation must return an
/// equivalent configuration (same name()), or the shared prepared transforms
/// would be inconsistent across workers.
using MultiplierFactory =
    std::function<std::shared_ptr<const mult::PolyMultiplier>()>;

class KemBatch {
 public:
  /// `mult_name`: any strategy from mult::multiplier_names(); resolved once
  /// per worker. `threads == 0` uses the hardware concurrency.
  KemBatch(const kem::SaberParams& params, std::string_view mult_name,
           unsigned threads = 0);

  /// Custom multiplier per worker — e.g. robust::CheckedMultiplier for a
  /// fault-tolerant pipeline. Workers whose multiplier implements
  /// FaultMonitor get per-item kRecovered classification.
  KemBatch(const kem::SaberParams& params, MultiplierFactory factory,
           unsigned threads = 0);

  unsigned threads() const { return pool_.size(); }
  const kem::SaberParams& params() const { return params_; }

  /// Generate keys[i] from requests[i], the keys of
  /// SaberKemScheme::keygen_deterministic. Each chunk's keys are hashed in
  /// lockstep (kem::expand_keygen_x4, sha3::sha3_256_x4).
  std::vector<Outcome<kem::KemKeyPair>> keygen_many(
      std::span<const KeygenRequest> requests);

  /// Encapsulate messages[i] (pre-hash message seeds, as in
  /// encaps_deterministic) against one public key, with encaps_deterministic's
  /// results. A-expansion and operand transforms are amortized over the
  /// whole batch, and each chunk's FO hashes run in lockstep. A malformed pk
  /// (wrong length) fails every slot with kFailed, its error and a zeroed
  /// value; the call itself does not throw. An empty batch returns at once,
  /// without looking at pk.
  std::vector<Outcome<kem::EncapsResult>> encaps_many(
      std::span<const u8> pk, std::span<const kem::Message> messages);

  /// Decapsulate cts[i] under one KEM secret key, with
  /// SaberKemScheme::decaps's results. The per-key work (see
  /// SaberKemScheme::prepare_sk) is done once per batch and shared by the
  /// workers. Each chunk's FO hashes run in lockstep; the FO compare and
  /// select stay per item. A malformed sk (wrong length, out-of-bound s)
  /// fails every slot with kFailed, its error and a zeroed key; the call
  /// itself does not throw. An empty batch returns at once, without looking
  /// at sk.
  std::vector<Outcome<kem::SharedSecret>> decaps_many(
      std::span<const u8> sk, std::span<const std::vector<u8>> cts);

 private:
  template <typename T>
  class Chunk;

  const kem::SaberKemScheme& scheme(unsigned worker) const { return *schemes_[worker]; }

  /// Run fn(out.value) as one item on `worker`: an exception becomes a
  /// kFailed outcome with a wiped value, and a fault the worker's
  /// FaultMonitor saw meanwhile makes it kRecovered.
  template <typename T, typename Fn>
  void run_item(unsigned worker, Outcome<T>& out, Fn&& fn) const;

  /// Hand out's items to the workers in chunks of kem::kBatchLanes
  /// consecutive items and run chunk_fn(chunk) on each (Chunk, batch.cpp).
  /// Per-item stages run under run_item, so an exception escaping chunk_fn
  /// comes from a lockstep stage: it fails every item of the chunk still ok.
  template <typename T, typename ChunkFn>
  void run_chunks(std::vector<Outcome<T>>& out, ChunkFn&& chunk_fn);

  kem::SaberParams params_;
  std::vector<std::unique_ptr<kem::SaberKemScheme>> schemes_;  ///< one per worker
  std::vector<const FaultMonitor*> monitors_;  ///< per worker; null if unchecked
  ThreadPool pool_;
};

}  // namespace saber::batch
