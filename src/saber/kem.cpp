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

namespace {

KemKeyPair assemble_kem_keys(PkeKeyPair pke_keys, const SharedSecret& z,
                             const SaberParams& params) {
  auto kp = flows::kem_assemble_flow(
      flows::PkeKeyBytes<u8>{std::move(pke_keys.pk), std::move(pke_keys.sk)},
      std::span<const u8>(z), params);
  return KemKeyPair{std::move(kp.pk), std::move(kp.sk)};
}

}  // namespace

KemKeyPair SaberKemScheme::keygen(RandomSource& rng) const {
  auto pke_keys = pke_.keygen(rng);
  SharedSecret z{};
  rng.fill(z);
  return assemble_kem_keys(std::move(pke_keys), z, params());
}

KemKeyPair SaberKemScheme::keygen_deterministic(const Seed& seed_a, const Seed& seed_s,
                                                const SharedSecret& z) const {
  return assemble_kem_keys(pke_.keygen(seed_a, seed_s), z, params());
}

EncapsResult SaberKemScheme::encaps_deterministic(std::span<const u8> pk,
                                                  const Message& m_raw) const {
  return encaps_deterministic(pk, pke_.prepare_pk(pk), m_raw);
}

EncapsResult SaberKemScheme::encaps_deterministic(std::span<const u8> pk,
                                                  const PreparedPublicKey& prep,
                                                  const Message& m_raw) const {
  auto out = flows::encaps_flow(pk, m_raw, [&](const Message& m, const Seed& r) {
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
                                     std::span<const u8, SaberParams::hash_bytes> hash,
                                     std::span<const u8, SaberParams::key_bytes> z_in)
    : pk(std::move(pk_in)), s(std::move(s_in)) {
  std::copy(hash.begin(), hash.end(), pk_hash.begin());
  std::copy(z_in.begin(), z_in.end(), z.begin());
}

PreparedSecretKey::~PreparedSecretKey() { secure_zeroize_object(z); }

PreparedSecretKey SaberKemScheme::prepare_sk(std::span<const u8> sk) const {
  const auto parts = flows::split_kem_sk_g(sk, params());
  auto pk = pke_.prepare_pk(parts.pk);
  return PreparedSecretKey(std::move(pk), pke_.prepare_secret(parts.pke_sk),
                           std::span<const u8, SaberParams::hash_bytes>(parts.pk_hash),
                           parts.z);
}

SharedSecret SaberKemScheme::decaps(std::span<const u8> ct, std::span<const u8> sk) const {
  return decaps(ct, prepare_sk(sk));
}

SharedSecret SaberKemScheme::decaps(std::span<const u8> ct,
                                    const PreparedSecretKey& sk) const {
  return flows::decaps_flow(
      ct, sk.pk_hash, std::span<const u8, SaberParams::key_bytes>(sk.z),
      [&](std::span<const u8> c) { return pke_.decrypt(c, sk.s); },
      [&](const Message& m, const Seed& r) { return pke_.encrypt(m, r, sk.pk); });
}

}  // namespace saber::kem
