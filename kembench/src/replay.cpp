#include "replay.hpp"

#include <stdexcept>

#include "common/ctops.hpp"
#include "mult/batch.hpp"
#include "saber/flows.hpp"
#include "saber/gen.hpp"
#include "saber/sampler.hpp"
#include "sha3/sha3.hpp"
#include "trace.hpp"

namespace kembench {

using saber::u8;
using saber::u16;
using saber::u32;
namespace flows = saber::kem::flows;
namespace mult = saber::mult;
namespace sha3 = saber::sha3;
namespace ct = saber::ct;
using Pair = std::pair<ring::PolyVec, ring::Poly>;

constexpr unsigned kEq = kem::SaberParams::eq;
constexpr unsigned kEp = kem::SaberParams::ep;
constexpr std::size_t kHash = kem::SaberParams::hash_bytes;

ring::PolyVec SoftwareProducts::keygen(const ring::PolyMatrix& a,
                                       const ring::SecretVec& s) const {
  const trace::Scope span(span_name_);
  return mult::matrix_vector_mul(a, s, m_, kEq, /*transpose=*/true);
}

Pair SoftwareProducts::encrypt(const ring::PolyMatrix& a, const ring::PolyVec& b,
                               const ring::SecretVec& sp) const {
  const trace::Scope span(span_name_);
  const auto tsp = mult::prepare_secrets(sp, m_, kEq);
  auto bp = mult::matrix_vector_mul(a, tsp, m_, kEq, /*transpose=*/false);
  auto vp = mult::inner_product(b, tsp, m_, kEp);
  return {std::move(bp), vp};
}

Pair SoftwareProducts::encrypt_prepared(const ring::SecretVec& sp) const {
  if (prep_ == nullptr) throw std::logic_error("encrypt_prepared without a bound key");
  const trace::Scope span(span_name_);
  const auto tsp = mult::prepare_secrets(sp, m_, kEq);
  auto bp = mult::matrix_vector_mul(prep_->a, tsp, m_, /*transpose=*/false);
  auto vp = mult::inner_product(prep_->b, tsp, m_);
  return {std::move(bp), vp};
}

ring::Poly SoftwareProducts::decrypt(const ring::PolyVec& bp,
                                     const ring::SecretVec& s) const {
  const trace::Scope span(span_name_);
  return mult::inner_product(bp, s, m_, kEp);
}

ring::PolyVec GenericProducts::keygen(const ring::PolyMatrix& a,
                                      const ring::SecretVec& s) const {
  const trace::Scope span(span_name_);
  return ring::matrix_vector_mul(a, s, fn_, kEq, /*transpose=*/true);
}

Pair GenericProducts::encrypt(const ring::PolyMatrix& a, const ring::PolyVec& b,
                              const ring::SecretVec& sp) const {
  const trace::Scope span(span_name_);
  return {ring::matrix_vector_mul(a, sp, fn_, kEq, /*transpose=*/false),
          ring::inner_product(b, sp, fn_, kEp)};
}

Pair GenericProducts::encrypt_prepared(const ring::SecretVec&) const {
  throw std::logic_error("the generic product path has no prepared keys");
}

ring::Poly GenericProducts::decrypt(const ring::PolyVec& bp,
                                    const ring::SecretVec& s) const {
  const trace::Scope span(span_name_);
  return ring::inner_product(bp, s, fn_, kEp);
}

namespace {
template <typename T>
T agree(T primary, const T& base) {
  if (!(primary == base)) throw std::runtime_error("products disagree with the unwrapped backend");
  return primary;
}
}  // namespace

ring::PolyVec BaselinedProducts::keygen(const ring::PolyMatrix& a,
                                        const ring::SecretVec& s) const {
  return agree(primary_.keygen(a, s), base_.keygen(a, s));
}

Pair BaselinedProducts::encrypt(const ring::PolyMatrix& a, const ring::PolyVec& b,
                                const ring::SecretVec& sp) const {
  return agree(primary_.encrypt(a, b, sp), base_.encrypt(a, b, sp));
}

Pair BaselinedProducts::encrypt_prepared(const ring::SecretVec& sp) const {
  return agree(primary_.encrypt_prepared(sp), base_.encrypt_prepared(sp));
}

ring::Poly BaselinedProducts::decrypt(const ring::PolyVec& bp,
                                      const ring::SecretVec& s) const {
  return agree(primary_.decrypt(bp, s), base_.decrypt(bp, s));
}

namespace {

template <typename Fn>
auto timed(const char* name, Fn&& fn) {
  const trace::Scope span(name);
  return fn();
}

ring::SecretVec sample_secret(std::span<const u8> seed, const kem::SaberParams& params) {
  const trace::Scope span("saber.gen.secret");
  const std::size_t poly_bytes = kem::SaberParams::n * params.mu / 8;
  const auto buf = timed("sha3.shake128",
                         [&] { return sha3::Shake128::hash(seed, params.l * poly_bytes); });
  const trace::Scope sample("saber.sampler.cbd");
  ring::SecretVec s(params.l);
  for (std::size_t i = 0; i < params.l; ++i) {
    s[i] = kem::cbd_sample(std::span<const u8>(buf).subspan(i * poly_bytes, poly_bytes),
                           params.mu);
  }
  return s;
}

std::vector<u8> encrypt(const kem::SaberParams& params, const kem::Message& m,
                        const kem::Seed& r, std::span<const u8> pk,
                        const Products& products, bool prepared) {
  Pair prod;
  if (prepared) {
    const auto sp = sample_secret(r, params);
    prod = products.encrypt_prepared(sp);
  } else {
    ring::PolyVec b;
    kem::Seed seed_a{};
    timed("ring.packing.unpack", [&] {
      flows::unpack_pk_g(pk, b, seed_a, params);
    });
    const auto a = timed("saber.gen.matrix", [&] { return kem::gen_matrix(seed_a, params); });
    const auto sp = sample_secret(r, params);
    prod = products.encrypt(a, b, sp);
  }
  return timed("saber.flows.seal", [&] {
    return flows::encrypt_seal_g(m, std::move(prod.first), prod.second, params);
  });
}

kem::SharedSecret sha3_256(std::span<const u8> data) {
  return timed("sha3.sha3_256", [&] { return sha3::Sha3_256::hash(data); });
}

std::array<u8, 2 * kHash> sha3_512(std::span<const u8> data) {
  return timed("sha3.sha3_512", [&] { return sha3::Sha3_512::hash(data); });
}

}  // namespace

kem::KemKeyPair replay_keygen(const kem::SaberParams& params, const kem::Seed& seed_a_in,
                              const kem::Seed& seed_s, const kem::SharedSecret& z,
                              const Products& products) {
  kem::Seed seed_a{};
  timed("sha3.shake128", [&] {
    sha3::Shake128 shake;
    shake.update(seed_a_in);
    shake.squeeze(seed_a);
  });
  const auto a = timed("saber.gen.matrix", [&] { return kem::gen_matrix(seed_a, params); });
  const auto s = sample_secret(seed_s, params);
  auto b = products.keygen(a, s);
  b = timed("saber.flows.round", [&] { return flows::round_q_to_p_g(std::move(b)); });
  kem::KemKeyPair kp;
  timed("ring.packing.pack", [&] {
    kp.pk = flows::pack_pk_g(b, seed_a, params);
    kp.sk = flows::pack_secret_g(s, params);
  });
  const auto pk_hash = sha3_256(kp.pk);
  kp.sk.insert(kp.sk.end(), kp.pk.begin(), kp.pk.end());
  kp.sk.insert(kp.sk.end(), pk_hash.begin(), pk_hash.end());
  kp.sk.insert(kp.sk.end(), z.begin(), z.end());
  return kp;
}

kem::EncapsResult replay_encaps(const kem::SaberParams& params, std::span<const u8> pk,
                                const kem::Message& m_raw, const Products& products,
                                bool prepared) {
  const kem::Message m = sha3_256(m_raw);
  const auto pk_hash = sha3_256(pk);
  std::array<u8, 2 * kHash> buf{};
  std::copy(m.begin(), m.end(), buf.begin());
  std::copy(pk_hash.begin(), pk_hash.end(), buf.begin() + kHash);
  auto kr = sha3_512(buf);
  kem::Seed r{};
  std::copy_n(kr.begin() + kHash, kHash, r.begin());

  kem::EncapsResult res;
  res.ct = encrypt(params, m, r, pk, products, prepared);
  const auto ct_hash = sha3_256(res.ct);
  std::copy(ct_hash.begin(), ct_hash.end(), kr.begin() + kHash);
  res.key = sha3_256(kr);
  return res;
}

kem::SharedSecret replay_decaps(const kem::SaberParams& params, std::span<const u8> ct,
                                std::span<const u8> sk, const Products& products) {
  if (sk.size() != params.kem_sk_bytes() || ct.size() != params.ct_bytes()) {
    throw std::invalid_argument("replay_decaps: bad key or ciphertext length");
  }
  const auto pke_sk = sk.first(params.pke_sk_bytes());
  const auto pk = sk.subspan(params.pke_sk_bytes(), params.pk_bytes());
  const auto pk_hash = sk.subspan(params.pke_sk_bytes() + params.pk_bytes(), kHash);
  const auto z = sk.last(kem::SaberParams::key_bytes);

  ring::SecretVec s;
  ring::PolyVec bp(params.l);
  ring::Poly cm;
  timed("ring.packing.unpack", [&] {
    s = flows::unpack_secret_g(pke_sk, params);
    for (std::size_t i = 0; i < params.l; ++i) {
      bp[i] = ring::unpack_poly<ring::kN>(
          ct.subspan(i * params.poly_p_bytes(), params.poly_p_bytes()), kEp);
    }
    cm = ring::unpack_poly<ring::kN>(
        ct.subspan(params.l * params.poly_p_bytes(), params.poly_t_bytes()), params.et);
  });
  const auto v = products.decrypt(bp, s);
  const kem::Message m = timed("saber.flows.decode", [&] {
    ring::Poly mp;
    for (std::size_t i = 0; i < ring::kN; ++i) {
      const u32 val = u32{v[i]} + params.h2() + (u32{1} << kEp) -
                      (u32{cm[i]} << (kEp - params.et));
      mp[i] = static_cast<u16>(ct::low_bits_g(val, kEp) >> (kEp - 1));
    }
    return flows::poly_to_message_g(mp);
  });

  std::array<u8, 2 * kHash> buf{};
  std::copy(m.begin(), m.end(), buf.begin());
  std::copy(pk_hash.begin(), pk_hash.end(), buf.begin() + kHash);
  auto kr = sha3_512(buf);
  kem::Seed r{};
  std::copy_n(kr.begin() + kHash, kHash, r.begin());
  const auto ct2 = encrypt(params, m, r, pk, products, /*prepared=*/false);

  const u8 fail = timed("saber.flows.fo_compare",
                        [&] { return saber::ct_differ_g(ct, std::span<const u8>(ct2)); });
  const auto ct_hash = sha3_256(ct);
  std::copy(ct_hash.begin(), ct_hash.end(), kr.begin() + kHash);
  timed("saber.flows.fo_compare", [&] {
    saber::ct_cmov_g(std::span<u8>(kr).first(kHash), z, fail);
  });
  return sha3_256(kr);
}

}  // namespace kembench
