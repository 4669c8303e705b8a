#include "saber/pke.hpp"

#include "common/check.hpp"
#include "mult/strategy.hpp"
#include "saber/flows.hpp"
#include "saber/gen.hpp"

namespace saber::kem {

namespace {

constexpr unsigned kEq = SaberParams::eq;
constexpr unsigned kEp = SaberParams::ep;

/// Enc's products under a prepared public key. One secret transform,
/// prepared at q, serves both the mod-q matrix product and the mod-p inner
/// product (a secret prepared at qbits serves publics prepared at qbits or
/// less).
auto enc_products(const mult::PolyMultiplier& mult, const PreparedPublicKey& pk) {
  return [&mult, &pk](const ring::SecretVec& sp) {
    const auto tsp = mult::prepare_secrets(sp, mult, kEq);
    auto bp = mult::matrix_vector_mul(pk.a, tsp, mult, /*transpose=*/false);
    auto vp = mult::inner_product(pk.b, tsp, mult);
    return std::pair{std::move(bp), std::move(vp)};
  };
}

}  // namespace

SaberPke::SaberPke(const SaberParams& params, ring::PolyMulFn mul)
    : SaberPke(params, mult::from_poly_mul(std::move(mul))) {}

SaberPke::SaberPke(const SaberParams& params,
                   std::shared_ptr<const mult::PolyMultiplier> algo)
    : params_(params), mult_(std::move(algo)) {
  SABER_REQUIRE(static_cast<bool>(mult_), "multiplier required");
}

SaberPke::SaberPke(const SaberParams& params, std::string_view mult_name)
    : SaberPke(params, std::shared_ptr<const mult::PolyMultiplier>(
                           mult::make_multiplier(mult_name))) {}

std::vector<u8> SaberPke::pack_secret(const ring::SecretVec& s) const {
  return flows::pack_secret_g(s, params_);
}

ring::SecretVec SaberPke::unpack_secret(std::span<const u8> sk) const {
  return flows::unpack_secret_g(sk, params_);
}

std::vector<u8> SaberPke::pack_pk(const ring::PolyVec& b, const Seed& seed_a) const {
  return flows::pack_pk_g(b, seed_a, params_);
}

void SaberPke::unpack_pk(std::span<const u8> pk, ring::PolyVec& b, Seed& seed_a) const {
  flows::unpack_pk_g(pk, b, seed_a, params_);
}

PkeKeyPair SaberPke::keygen(const Seed& seed_a_in, const Seed& seed_s) const {
  return keygen(expand_keygen_g(std::span<const u8>(seed_a_in), std::span<const u8>(seed_s),
                                params_));
}

PkeKeyPair SaberPke::keygen(const KeygenExpansion& ex) const {
  auto out = flows::keygen_core_g(
      ex, params_,
      [this](const ring::PolyMatrix& a, const ring::SecretVec& s, bool transpose) {
        return mult::matrix_vector_mul(a, s, *mult_, kEq, transpose);
      });
  return PkeKeyPair{std::move(out.pk), std::move(out.sk)};
}

PkeKeyPair SaberPke::keygen(RandomSource& rng) const {
  Seed seed_a{}, seed_s{};
  rng.fill(seed_a);
  rng.fill(seed_s);
  return keygen(seed_a, seed_s);
}

std::vector<u8> SaberPke::encrypt(const Message& m, const Seed& seed_sp,
                                  std::span<const u8> pk) const {
  return encrypt(m, seed_sp, prepare_pk(pk));
}

PreparedPublicKey SaberPke::prepare_pk(std::span<const u8> pk) const {
  return prepare_pk(pk, sha3::Sha3_256::hash(pk));
}

PreparedPublicKey SaberPke::prepare_pk(
    std::span<const u8> pk, std::span<const u8, SaberParams::hash_bytes> pk_hash) const {
  ring::PolyVec b;
  Seed seed_a{};
  unpack_pk(pk, b, seed_a);
  const auto a = gen_matrix(seed_a, params_);
  PreparedPublicKey prep{mult::PreparedMatrix(a, *mult_, kEq),
                         mult::PreparedVector(b, *mult_, kEp), {}};
  std::copy(pk_hash.begin(), pk_hash.end(), prep.pk_hash.begin());
  return prep;
}

std::vector<u8> SaberPke::encrypt(const Message& m, const Seed& seed_sp,
                                  const PreparedPublicKey& pk) const {
  return flows::encrypt_flow(m, std::span<const u8>(seed_sp), params_,
                             enc_products(*mult_, pk));
}

std::vector<u8> SaberPke::encrypt_stream(const Message& m, std::span<const u8> sp_stream,
                                         const PreparedPublicKey& pk) const {
  return flows::encrypt_core_g(m, sp_stream, params_, enc_products(*mult_, pk));
}

PreparedSecret::PreparedSecret(std::vector<mult::Transformed> images,
                               std::string_view algorithm)
    : images_(std::move(images)), algorithm_(algorithm) {}

PreparedSecret::~PreparedSecret() {
  for (auto& t : images_) secure_zeroize(std::span<i64>(t));
}

Message SaberPke::decrypt(std::span<const u8> ct, std::span<const u8> sk) const {
  return decrypt(ct, prepare_secret(sk));
}

PreparedSecret SaberPke::prepare_secret(std::span<const u8> sk) const {
  auto s = unpack_secret(sk);
  flows::SecretVecGuardT<i8> guard_s{s};
  return PreparedSecret(mult::prepare_secrets(s, *mult_, kEp), mult_->name());
}

Message SaberPke::decrypt(std::span<const u8> ct, const PreparedSecret& sk) const {
  SABER_REQUIRE(sk.algorithm() == mult_->name(),
                "prepared secret was transformed by another multiplier");
  return flows::decrypt_flow(ct, params_, [&](const ring::PolyVec& bp) {
    return mult::inner_product(bp, sk.images(), *mult_, kEp);
  });
}

}  // namespace saber::kem
