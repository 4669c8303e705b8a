// Saber CCA-secure KEM: the Fujisaki-Okamoto transform with implicit
// rejection wrapped around SaberPke, following the round-3 reference flow
// (SHA3-256 / SHA3-512 for hashing, constant-time ciphertext comparison).
#pragma once

#include <array>
#include <vector>

#include "saber/pke.hpp"

namespace saber::kem {

using SharedSecret = std::array<u8, SaberParams::key_bytes>;

struct KemKeyPair {
  std::vector<u8> pk;
  std::vector<u8> sk;  ///< pke_sk || pk || SHA3-256(pk) || z
};

struct EncapsResult {
  std::vector<u8> ct;
  SharedSecret key;
};

/// Thread safety: concurrent const calls on one scheme share its multiplier,
/// which is not safe (PolyMultiplier's OpCounts tally is mutable, and the
/// hardware cores are stateful). Give each thread its own scheme and share
/// prepared keys, as saber::batch::KemBatch does.
class SaberKemScheme {
 public:
  /// A per-product fn (hardware models, custom closures), wrapped once by
  /// mult::from_poly_mul.
  SaberKemScheme(const SaberParams& params, ring::PolyMulFn mul);

  /// An owned multiplier; every product uses its split-transform API.
  SaberKemScheme(const SaberParams& params,
                 std::shared_ptr<const mult::PolyMultiplier> algo);

  /// Thin wrapper: resolve a strategy name once.
  SaberKemScheme(const SaberParams& params, std::string_view mult_name);

  const SaberParams& params() const { return pke_.params(); }
  const SaberPke& pke() const { return pke_; }

  KemKeyPair keygen(RandomSource& rng) const;

  /// Deterministic key generation from explicit seeds and implicit-rejection
  /// secret `z` (exposed for reproducible tests and the batch pipeline).
  KemKeyPair keygen_deterministic(const Seed& seed_a, const Seed& seed_s,
                                  const SharedSecret& z) const;

  EncapsResult encaps(std::span<const u8> pk, RandomSource& rng) const;

  /// Deterministic encapsulation from an explicit pre-hash message seed
  /// (exposed for reproducible tests).
  EncapsResult encaps_deterministic(std::span<const u8> pk, const Message& m_raw) const;

  /// Deterministic encapsulation against a prepared public key.
  /// `pk` must be the exact byte string the preparation came from: it still
  /// enters the hash H(pk) binding the shared secret to the key.
  EncapsResult encaps_deterministic(std::span<const u8> pk,
                                    const PreparedPublicKey& prep,
                                    const Message& m_raw) const;

  /// Decapsulation with implicit rejection: always returns a key; on a
  /// tampered ciphertext the key is derived from the secret z instead.
  SharedSecret decaps(std::span<const u8> ct, std::span<const u8> sk) const;

 private:
  SaberPke pke_;
};

}  // namespace saber::kem
