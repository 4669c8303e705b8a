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

/// A KEM secret key with the per-key work of decapsulation done once: the
/// embedded pk prepared (A expanded and transformed, b transformed, its hash
/// taken from the blob), s prepared at ep (carrying the preparing
/// multiplier's name), and z lifted out of the blob. Reusable read-only by
/// any number of decaps() calls, from any thread, on schemes whose
/// multiplier has the same name(); another multiplier is rejected with
/// ContractViolation. Move-only, so the secret images are never duplicated
/// silently; the destructor wipes s (PreparedSecret) and z.
struct PreparedSecretKey {
  PreparedPublicKey pk;
  PreparedSecret s;
  SharedSecret z{};  ///< implicit-rejection secret

  PreparedSecretKey(PreparedPublicKey pk, PreparedSecret s,
                    std::span<const u8, SaberParams::key_bytes> z);
  ~PreparedSecretKey();
  PreparedSecretKey(PreparedSecretKey&&) noexcept = default;
  // Assignment would drop the target's z without wiping it.
  PreparedSecretKey& operator=(PreparedSecretKey&&) = delete;
};

/// Thread safety: const calls may run concurrently on one scheme whose
/// multiplier is a software backend or a CheckedMultiplier. A scheme over a
/// PolyMulFn wrapping a cycle-accurate core may not be shared (the core is
/// stateful): give each thread its own scheme and share prepared keys
/// (PreparedPublicKey, PreparedSecretKey), as saber::batch::KemBatch does.
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

  /// The KEM key pair from PKE keys, SHA3-256(pk) and z: the last step of
  /// keygen_deterministic, exposed for the batch pipeline, which hashes four
  /// public keys at a time.
  KemKeyPair assemble_keys(PkeKeyPair pke_keys,
                           std::span<const u8, SaberParams::hash_bytes> pk_hash,
                           const SharedSecret& z) const;

  EncapsResult encaps(std::span<const u8> pk, RandomSource& rng) const;

  /// Deterministic encapsulation from an explicit pre-hash message seed
  /// (exposed for reproducible tests).
  EncapsResult encaps_deterministic(std::span<const u8> pk, const Message& m_raw) const;

  /// Deterministic encapsulation against a prepared public key, which
  /// carries the H(pk) binding the shared secret to the key.
  EncapsResult encaps_deterministic(const PreparedPublicKey& prep,
                                    const Message& m_raw) const;

  /// Decapsulation with implicit rejection: always returns a key; on a
  /// tampered ciphertext the key is derived from the secret z instead. The
  /// same as decaps(ct, prepare_sk(sk)).
  SharedSecret decaps(std::span<const u8> ct, std::span<const u8> sk) const;

  /// One-time per-key preparation for repeated decapsulation. Throws
  /// ContractViolation on a malformed sk (wrong length, out-of-bound s).
  PreparedSecretKey prepare_sk(std::span<const u8> sk) const;

  /// Decapsulation under a prepared secret key.
  SharedSecret decaps(std::span<const u8> ct, const PreparedSecretKey& sk) const;

 private:
  SaberPke pke_;
};

}  // namespace saber::kem
