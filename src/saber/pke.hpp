// Saber IND-CPA public-key encryption (round-3 spec, algorithms
// Saber.PKE.KeyGen / Enc / Dec), with the polynomial multiplier injected so
// the scheme can run on any software algorithm or simulated hardware
// multiplier.
//
// One product pipeline: every product runs through one owned
// `mult::PolyMultiplier` and its split-transform batch backend
// (mult/batch.hpp). A per-product `ring::PolyMulFn` (the cycle-accurate
// hardware models, custom closures) is wrapped once by mult::from_poly_mul
// into an identity-transform multiplier. Encryption and decryption have one
// body each: the unprepared form prepares the key and calls the prepared
// form. prepare_pk() lets a caller amortize A-expansion and the public
// transforms across many encryptions under one key, prepare_secret() the
// unpacking and transform of s across many decryptions.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "mult/batch.hpp"
#include "ring/polyvec.hpp"
#include "saber/gen.hpp"
#include "saber/params.hpp"

namespace saber::kem {

struct PkeKeyPair {
  std::vector<u8> pk;  ///< packed b (l * 320 bytes) || seed_A (32 bytes)
  std::vector<u8> sk;  ///< packed s, 13-bit two's complement (l * 416 bytes)
};

using Message = std::array<u8, SaberParams::key_bytes>;
using Seed = std::array<u8, SaberParams::seed_bytes>;

/// A public key with the expensive per-key work done once: A expanded from
/// its seed and forward-transformed, b forward-transformed, and the KEM's
/// H(pk) computed. Reusable across any number of encrypt() calls on the
/// SaberPke that produced it (or any SaberPke over the same parameters and a
/// multiplier of the same name(); another multiplier is rejected with
/// ContractViolation).
struct PreparedPublicKey {
  mult::PreparedMatrix a;   ///< transforms of A, mod q
  mult::PreparedVector b;   ///< transforms of b, mod p
  std::array<u8, SaberParams::hash_bytes> pk_hash{};  ///< SHA3-256(pk), public
};

/// A PKE secret key with the per-key work of decryption done once: s
/// unpacked and forward-transformed at ep, the modulus of decrypt's
/// <b', s> (a secret prepared at qbits serves publics at qbits or below).
/// The images are secret: the type is move-only, so they are never copied
/// silently, and its destructor wipes them. The preparing multiplier's name
/// is recorded, and decrypt() rejects a SaberPke whose multiplier reports
/// another one (the PreparedPublicKey rule).
class PreparedSecret {
 public:
  PreparedSecret(std::vector<mult::Transformed> images, std::string_view algorithm);
  ~PreparedSecret();
  PreparedSecret(PreparedSecret&&) noexcept = default;
  // Assignment would free the target's images without wiping them.
  PreparedSecret& operator=(PreparedSecret&&) = delete;

  std::span<const mult::Transformed> images() const { return images_; }
  std::string_view algorithm() const { return algorithm_; }

 private:
  std::vector<mult::Transformed> images_;
  std::string algorithm_;
};

class SaberPke {
 public:
  /// A per-product fn (hardware models, custom closures), wrapped once by
  /// mult::from_poly_mul.
  SaberPke(const SaberParams& params, ring::PolyMulFn mul);

  /// An owned multiplier; every product uses its split-transform API.
  SaberPke(const SaberParams& params,
           std::shared_ptr<const mult::PolyMultiplier> algo);

  /// Thin wrapper: resolve a strategy name once (see multiplier_names()).
  SaberPke(const SaberParams& params, std::string_view mult_name);

  const SaberParams& params() const { return params_; }

  /// Key generation from explicit seeds (deterministic; the KEM layer and
  /// tests use this). seed_a is re-hashed through SHAKE-128 as in the
  /// reference implementation before expanding A.
  PkeKeyPair keygen(const Seed& seed_a, const Seed& seed_s) const;

  /// Randomized key generation.
  PkeKeyPair keygen(RandomSource& rng) const;

  /// Key generation from its hashing done already (expand_keygen_g or, four
  /// keys at a time, expand_keygen_x4): A^T s, rounding and packing.
  PkeKeyPair keygen(const KeygenExpansion& ex) const;

  /// Encrypt a 256-bit message under randomness seed `seed_sp`; the same as
  /// encrypt(m, seed_sp, prepare_pk(pk)).
  std::vector<u8> encrypt(const Message& m, const Seed& seed_sp,
                          std::span<const u8> pk) const;

  /// One-time per-key preparation for batched encryption.
  PreparedPublicKey prepare_pk(std::span<const u8> pk) const;

  /// The same with H(pk) given, as the KEM secret key stores it.
  PreparedPublicKey prepare_pk(std::span<const u8> pk,
                               std::span<const u8, SaberParams::hash_bytes> pk_hash) const;

  /// Encrypt against a prepared public key.
  std::vector<u8> encrypt(const Message& m, const Seed& seed_sp,
                          const PreparedPublicKey& pk) const;

  /// Encrypt from s''s SHAKE-128 stream already squeezed from the coins
  /// (secret_stream_bytes(params()) bytes): encrypt() after its hashing, for
  /// the batch pipeline, which squeezes four streams at a time.
  std::vector<u8> encrypt_stream(const Message& m, std::span<const u8> sp_stream,
                                 const PreparedPublicKey& pk) const;

  /// Decrypt; the same as decrypt(ct, prepare_secret(sk)).
  Message decrypt(std::span<const u8> ct, std::span<const u8> sk) const;

  /// One-time per-key preparation for repeated decryption.
  PreparedSecret prepare_secret(std::span<const u8> sk) const;

  /// Decrypt under a prepared secret key.
  Message decrypt(std::span<const u8> ct, const PreparedSecret& sk) const;

  // --- encoding helpers (exposed for tests and the hardware-backed KEM) ---
  std::vector<u8> pack_secret(const ring::SecretVec& s) const;
  ring::SecretVec unpack_secret(std::span<const u8> sk) const;
  std::vector<u8> pack_pk(const ring::PolyVec& b, const Seed& seed_a) const;
  void unpack_pk(std::span<const u8> pk, ring::PolyVec& b, Seed& seed_a) const;

 private:
  SaberParams params_;
  std::shared_ptr<const mult::PolyMultiplier> mult_;
};

}  // namespace saber::kem
