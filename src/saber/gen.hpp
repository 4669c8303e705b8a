// Deterministic expansion of the public matrix A and the secret vector s
// from 32-byte seeds (gen_matrix / gen_secret in the Saber spec), both via
// SHAKE-128 as in the round-3 reference implementation, plus the whole of
// key generation's hashing in one call: one key at a time over the
// word-generic sponge, or four keys in lockstep over sha3::SpongeX4.
#pragma once

#include <array>
#include <span>

#include "common/zeroize.hpp"
#include "ring/polyvec.hpp"
#include "saber/params.hpp"
#include "saber/sampler.hpp"
#include "sha3/sha3.hpp"

namespace saber::kem {

/// A in R_q^{l x l}, coefficients reduced mod q, filled row-major from the
/// SHAKE-128(seed) bit stream (13 bits per coefficient, LSB-first). A is
/// public (expanded from the published seed), so this stays plain.
ring::PolyMatrix gen_matrix(std::span<const u8> seed, const SaberParams& params);

/// Bytes of the SHAKE-128 stream that gen_secret_g samples s from.
constexpr std::size_t secret_stream_bytes(const SaberParams& params) {
  return params.l * SaberParams::n * params.mu / 8;
}

/// CBD-sample s from its SHAKE-128 stream, one polynomial per n*mu/8 bytes.
template <typename B>
ring::SecretVecOf<ct::rebind_t<B, i8>> sample_secret_g(std::span<const B> stream,
                                                       const SaberParams& params) {
  SABER_REQUIRE(stream.size() == secret_stream_bytes(params), "bad secret stream length");
  const std::size_t poly_bytes = SaberParams::n * params.mu / 8;
  ring::SecretVecOf<ct::rebind_t<B, i8>> s(params.l);
  for (std::size_t i = 0; i < params.l; ++i) {
    s[i] = cbd_sample_g(stream.subspan(i * poly_bytes, poly_bytes), params.mu);
  }
  return s;
}

/// Word-generic secret expansion: SHAKE-128 over the (possibly tainted)
/// seed, then CBD sampling. The whole output stream inherits the seed's
/// taint, so under the audit every sampled coefficient comes out tainted.
/// The stream is wiped once sampled.
template <typename B>
ring::SecretVecOf<ct::rebind_t<B, i8>> gen_secret_g(std::span<const B> seed,
                                                    const SaberParams& params) {
  SABER_REQUIRE(seed.size() == SaberParams::seed_bytes, "bad seed length");
  auto buf = sha3::Shake<128, B>::hash(seed, secret_stream_bytes(params));
  auto s = sample_secret_g(std::span<const B>(buf), params);
  secure_zeroize(std::span<B>(buf));
  return s;
}

/// s in R^l with centered-binomial coefficients from SHAKE-128(seed).
ring::SecretVec gen_secret(std::span<const u8> seed, const SaberParams& params);

/// Everything Saber.PKE.KeyGen derives from its two seeds by hashing: the
/// re-hashed public seed, A expanded from it, and s over the coefficient
/// word S (i8, or ct::Tainted<i8> under the audit). s is wiped on
/// destruction.
template <typename S>
struct KeygenExpansionT {
  std::array<u8, SaberParams::seed_bytes> seed_a{};
  ring::PolyMatrix a{0, 0};
  ring::SecretVecOf<S> s;

  KeygenExpansionT() = default;
  KeygenExpansionT(KeygenExpansionT&&) noexcept = default;
  // Assignment would free the target's s without wiping it.
  KeygenExpansionT& operator=(KeygenExpansionT&&) = delete;
  ~KeygenExpansionT() {
    for (auto& poly : s) secure_zeroize_object(poly);
  }
};
using KeygenExpansion = KeygenExpansionT<i8>;

/// Key generation's hashing for one key: re-hash seed_a_in through SHAKE-128
/// as the reference implementation does (so the public key does not expose
/// raw system randomness; seed_a is public either way), expand A from the
/// result and s from the (possibly tainted) seed_s.
template <typename B>
KeygenExpansionT<ct::rebind_t<B, i8>> expand_keygen_g(std::span<const u8> seed_a_in,
                                                      std::span<const B> seed_s,
                                                      const SaberParams& params) {
  KeygenExpansionT<ct::rebind_t<B, i8>> ex;
  sha3::Shake128 shake;
  shake.update(seed_a_in);
  shake.squeeze(ex.seed_a);
  ex.a = gen_matrix(ex.seed_a, params);
  ex.s = gen_secret_g(seed_s, params);
  return ex;
}

/// Items a KemBatch worker takes per chunk and hashes in lockstep on one
/// four-lane Keccak: keys here, messages and ciphertexts in the batch
/// pipeline's encaps and decaps.
inline constexpr std::size_t kBatchLanes = sha3::SpongeX4::kLanes;

/// expand_keygen_g for four keys at once, lane j from (seed_a_in[j],
/// seed_s[j]), with bit-identical results. The seed re-hash, A and s each
/// take one lockstep SpongeX4 pass; s's stream is wiped once sampled.
std::array<KeygenExpansion, kBatchLanes> expand_keygen_x4(
    const sha3::SpongeX4::Lanes<std::span<const u8>>& seed_a_in,
    const sha3::SpongeX4::Lanes<std::span<const u8>>& seed_s, const SaberParams& params);

}  // namespace saber::kem
