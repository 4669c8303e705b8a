#include "saber/kem.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/zeroize.hpp"
#include "saber/flows.hpp"

namespace saber::kem {

SaberKemScheme::SaberKemScheme(const SaberParams& params, ring::PolyMulFn mul)
    : pke_(params, std::move(mul)) {}

SaberKemScheme::SaberKemScheme(const SaberParams& params,
                               std::shared_ptr<const mult::PolyMultiplier> algo)
    : pke_(params, std::move(algo)) {}

SaberKemScheme::SaberKemScheme(const SaberParams& params, std::string_view mult_name)
    : pke_(params, mult_name) {}

KemKeyPair SaberKemScheme::assemble_keys(
    PkeKeyPair pke_keys, std::span<const u8, SaberParams::hash_bytes> pk_hash,
    const SharedSecret& z) const {
  auto kp = flows::kem_assemble_flow(
      flows::PkeKeyBytes<u8>{std::move(pke_keys.pk), std::move(pke_keys.sk)}, pk_hash,
      std::span<const u8>(z), params());
  return KemKeyPair{std::move(kp.pk), std::move(kp.sk)};
}

KemKeyPair SaberKemScheme::keygen(RandomSource& rng) const {
  Seed seed_a{}, seed_s{};
  SharedSecret z{};
  rng.fill(seed_a);
  rng.fill(seed_s);
  rng.fill(z);
  return keygen_deterministic(seed_a, seed_s, z);
}

KemKeyPair SaberKemScheme::keygen_deterministic(const Seed& seed_a, const Seed& seed_s,
                                                const SharedSecret& z) const {
  auto pke_keys = pke_.keygen(seed_a, seed_s);
  const auto pk_hash = sha3::Sha3_256::hash(pke_keys.pk);
  return assemble_keys(std::move(pke_keys), pk_hash, z);
}

EncapsResult SaberKemScheme::encaps_deterministic(std::span<const u8> pk,
                                                  const Message& m_raw) const {
  return encaps_deterministic(pke_.prepare_pk(pk), m_raw);
}

EncapsResult SaberKemScheme::encaps_deterministic(const PreparedPublicKey& prep,
                                                  const Message& m_raw) const {
  auto out = flows::encaps_flow(prep.pk_hash, m_raw, [&](const Message& m, const Seed& r) {
    return pke_.encrypt(m, r, prep);
  });
  return EncapsResult{std::move(out.ct), out.key};
}

EncapsResult SaberKemScheme::encaps(std::span<const u8> pk, RandomSource& rng) const {
  Message m_raw{};
  rng.fill(m_raw);
  return encaps_deterministic(pk, m_raw);
}

PreparedSecretKey::PreparedSecretKey(PreparedPublicKey pk_in, PreparedSecret s_in,
                                     std::span<const u8, SaberParams::key_bytes> z_in)
    : pk(std::move(pk_in)), s(std::move(s_in)) {
  std::copy(z_in.begin(), z_in.end(), z.begin());
}

PreparedSecretKey::~PreparedSecretKey() { secure_zeroize_object(z); }

PreparedSecretKey SaberKemScheme::prepare_sk(std::span<const u8> sk) const {
  const auto parts = flows::split_kem_sk_g(sk, params());
  // The blob's stored H(pk), not a re-hash: decaps binds the key to the hash
  // the secret key carries, as the spec does, even on a hostile sk.
  auto pk = pke_.prepare_pk(parts.pk,
                            std::span<const u8, SaberParams::hash_bytes>(parts.pk_hash));
  return PreparedSecretKey(std::move(pk), pke_.prepare_secret(parts.pke_sk), parts.z);
}

SharedSecret SaberKemScheme::decaps(std::span<const u8> ct, std::span<const u8> sk) const {
  return decaps(ct, prepare_sk(sk));
}

SharedSecret SaberKemScheme::decaps(std::span<const u8> ct,
                                    const PreparedSecretKey& sk) const {
  return flows::decaps_flow(
      ct, sk.pk.pk_hash, std::span<const u8, SaberParams::key_bytes>(sk.z),
      [&](std::span<const u8> c) { return pke_.decrypt(c, sk.s); },
      [&](const Message& m, const Seed& r) { return pke_.encrypt(m, r, sk.pk); });
}

}  // namespace saber::kem
