// Word-generic Saber PKE/KEM flow kernels.
//
// Every step of KeyGen / Enc / Dec / Encaps / Decaps that touches secret
// data lives here, templated over the byte word type B: production
// instantiates the flows over plain u8 (see pke.cpp / kem.cpp), the
// ct_audit build over ct::Tainted<u8>. The audited code path IS the
// production code path — there is no separate "constant-time variant".
//
// Public-data expansion (unpacking pk, expanding A from its seed) and the
// polynomial products are injected as callables, because the product
// backend is the one genuinely polymorphic piece: production routes through
// the transform-cached batch backend or a raw PolyMulFn, the audit through
// the tainted software kernels.
//
// Declassification policy (audited in docs/static_analysis.md):
//  * the packed pk and ciphertext are declassified by the CALLER at
//    publication, never inside a flow — decaps re-encrypts with the same
//    encrypt flow and its ciphertext must stay tainted for the FO compare;
//  * decaps declassifies the pk and pk-hash bytes embedded in the KEM
//    secret-key blob (public by construction: they are published at keygen);
//  * the FO comparison mask is NEVER declassified — implicit rejection
//    selects between khat' and z with a constant-time cmov.
#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/ctops.hpp"
#include "common/zeroize.hpp"
#include "ring/packing.hpp"
#include "ring/polyvec.hpp"
#include "saber/gen.hpp"
#include "saber/params.hpp"
#include "sha3/sha3.hpp"

namespace saber::kem {

/// Message/seed buffers over the flow's byte word type (MessageT<u8> is the
/// production Message).
template <typename B>
using MessageT = std::array<B, SaberParams::key_bytes>;
template <typename B>
using SeedT = std::array<B, SaberParams::seed_bytes>;

namespace flows {

/// Wipes an expanded secret vector when the scope exits (normally or by
/// exception) so raw secret coefficients do not linger on the stack after a
/// request fails mid-flight.
template <typename S>
struct SecretVecGuardT {
  ring::SecretVecOf<S>& s;
  ~SecretVecGuardT() {
    for (auto& poly : s) secure_zeroize_object(poly);
  }
};

template <typename B>
ring::PolyT<ring::kN, ct::rebind_t<B, u16>> message_to_poly_g(const MessageT<B>& m) {
  ring::PolyT<ring::kN, ct::rebind_t<B, u16>> p;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    p[i] = ct::cast<u16>((ct::cast<u32>(m[i / 8]) >> (i % 8)) & 1u);
  }
  return p;
}

template <typename C>
MessageT<ct::rebind_t<C, u8>> poly_to_message_g(const ring::PolyT<ring::kN, C>& p) {
  MessageT<ct::rebind_t<C, u8>> m{};
  for (std::size_t i = 0; i < ring::kN; ++i) {
    m[i / 8] = ct::cast<u8>(ct::cast<u32>(m[i / 8]) |
                            ((ct::cast<u32>(p[i]) & 1u) << (i % 8)));
  }
  return m;
}

/// b = round(v + h): the q -> p rounding shift applied to every polynomial.
template <typename C>
ring::PolyVecOf<C> round_q_to_p_g(ring::PolyVecOf<C> v) {
  for (auto& poly : v) {
    poly = ring::shift_right(ring::add_constant(poly, SaberParams::h1, SaberParams::eq),
                             SaberParams::eq - SaberParams::ep);
  }
  return v;
}

template <typename S>
std::vector<ct::rebind_t<S, u8>> pack_secret_g(const ring::SecretVecOf<S>& s,
                                               const SaberParams& params) {
  std::vector<ct::rebind_t<S, u8>> out;
  out.reserve(params.pke_sk_bytes());
  for (const auto& poly : s) {
    const auto bytes = ring::pack_poly(poly.to_poly(SaberParams::eq), SaberParams::eq);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

template <typename B>
ring::SecretVecOf<ct::rebind_t<B, i8>> unpack_secret_g(std::span<const B> sk,
                                                       const SaberParams& params) {
  SABER_REQUIRE(sk.size() == params.pke_sk_bytes(), "bad secret key length");
  ring::SecretVecOf<ct::rebind_t<B, i8>> s(params.l);
  for (std::size_t i = 0; i < params.l; ++i) {
    const auto poly = ring::unpack_poly<ring::kN, B>(
        sk.subspan(i * params.poly_q_bytes(), params.poly_q_bytes()),
        SaberParams::eq);
    s[i] = ring::SecretPolyT<ring::kN, ct::rebind_t<B, i8>>::from_poly(
        poly, SaberParams::eq, params.secret_bound());
  }
  return s;
}

template <typename C>
std::vector<ct::rebind_t<C, u8>> pack_pk_g(const ring::PolyVecOf<C>& b,
                                           const SeedT<u8>& seed_a,
                                           const SaberParams& params) {
  std::vector<ct::rebind_t<C, u8>> pk;
  pk.reserve(params.pk_bytes());
  for (const auto& poly : b) {
    const auto bytes = ring::pack_poly(poly, SaberParams::ep);
    pk.insert(pk.end(), bytes.begin(), bytes.end());
  }
  pk.insert(pk.end(), seed_a.begin(), seed_a.end());
  return pk;
}

/// Inverse of pack_pk_g. The public key is public data; unpacking stays
/// plain in every mode.
inline void unpack_pk_g(std::span<const u8> pk, ring::PolyVec& b, SeedT<u8>& seed_a,
                        const SaberParams& params) {
  SABER_REQUIRE(pk.size() == params.pk_bytes(), "bad public key length");
  b.resize(params.l);
  for (std::size_t i = 0; i < params.l; ++i) {
    b[i] = ring::unpack_poly<ring::kN>(
        pk.subspan(i * params.poly_p_bytes(), params.poly_p_bytes()),
        SaberParams::ep);
  }
  std::copy_n(pk.end() - static_cast<std::ptrdiff_t>(SaberParams::seed_bytes),
              SaberParams::seed_bytes, seed_a.begin());
}

/// Shared tail of Enc: round b' down to p and pack it, then compute and pack
/// the compressed message part cm = (v' + h1 - 2^(ep-1) m mod p) >> (ep-et).
template <typename B, typename C>
std::vector<B> encrypt_seal_g(const MessageT<B>& m, ring::PolyVecOf<C> bp,
                              const ring::PolyT<ring::kN, C>& vp,
                              const SaberParams& params) {
  static_assert(ct::is_tainted_v<B> == ct::is_tainted_v<C>,
                "message bytes and product coefficients must share a taint mode");
  bp = round_q_to_p_g(std::move(bp));
  std::vector<B> ct;
  ct.reserve(params.ct_bytes());
  for (const auto& poly : bp) {
    const auto bytes = ring::pack_poly(poly, SaberParams::ep);
    ct.insert(ct.end(), bytes.begin(), bytes.end());
  }

  const auto mp = message_to_poly_g(m);
  ring::PolyT<ring::kN, C> cm;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    const auto v = ct::cast<u32>(vp[i]) + SaberParams::h1 +
                   (u32{1} << SaberParams::ep) -
                   (ct::cast<u32>(mp[i]) << (SaberParams::ep - 1));
    cm[i] = ct::cast<u16>(ct::low_bits_g(v, SaberParams::ep) >>
                          (SaberParams::ep - params.et));
  }
  const auto cm_bytes = ring::pack_poly(cm, params.et);
  ct.insert(ct.end(), cm_bytes.begin(), cm_bytes.end());
  SABER_ENSURE(ct.size() == params.ct_bytes(), "ciphertext size mismatch");
  return ct;
}

template <typename B>
struct PkeKeyBytes {
  std::vector<B> pk;
  std::vector<B> sk;
};

/// Saber.PKE.KeyGen. `mat_vec(a, s, transpose)` must return A^T s reduced
/// mod q. Both outputs come back in the flow's word type; the caller
/// declassifies pk at publication.
template <typename B, typename MatVec>
PkeKeyBytes<B> keygen_flow(const SeedT<u8>& seed_a_in, std::span<const B> seed_s,
                           const SaberParams& params, MatVec&& mat_vec) {
  // The reference implementation re-hashes the A-seed so the public key does
  // not expose raw system randomness. seed_a is public either way.
  SeedT<u8> seed_a{};
  sha3::Shake128 shake;
  shake.update(seed_a_in);
  shake.squeeze(seed_a);

  const auto a = gen_matrix(seed_a, params);
  auto s = gen_secret_g(seed_s, params);
  SecretVecGuardT<ct::rebind_t<B, i8>> guard_s{s};
  // b = round(A^T s + h): KeyGen multiplies by the transpose (round-3 spec).
  auto b = round_q_to_p_g(mat_vec(a, s, /*transpose=*/true));
  return PkeKeyBytes<B>{pack_pk_g(b, seed_a, params), pack_secret_g(s, params)};
}

/// Saber.PKE.Enc. `products(a, b, sp)` returns the pair
/// (b' = A s' reduced mod q, v' = <b, s'> mod p); the split lets production
/// share one secret transform between both products.
template <typename B, typename Products>
std::vector<B> encrypt_flow(const MessageT<B>& m, std::span<const B> seed_sp,
                            std::span<const u8> pk, const SaberParams& params,
                            Products&& products) {
  ring::PolyVec b;
  SeedT<u8> seed_a{};
  unpack_pk_g(pk, b, seed_a, params);
  const auto a = gen_matrix(seed_a, params);
  auto sp = gen_secret_g(seed_sp, params);
  SecretVecGuardT<ct::rebind_t<B, i8>> guard_sp{sp};
  auto [bp, vp] = products(a, b, sp);
  return encrypt_seal_g(m, std::move(bp), vp, params);
}

/// Saber.PKE.Dec. `inner(bp, s, qbits)` returns <b', s> mod p.
template <typename B, typename Inner>
MessageT<B> decrypt_flow(std::span<const u8> ct, std::span<const B> sk,
                         const SaberParams& params, Inner&& inner) {
  SABER_REQUIRE(ct.size() == params.ct_bytes(), "bad ciphertext length");
  auto s = unpack_secret_g(sk, params);
  SecretVecGuardT<ct::rebind_t<B, i8>> guard_s{s};

  ring::PolyVec bp(params.l);
  for (std::size_t i = 0; i < params.l; ++i) {
    bp[i] = ring::unpack_poly<ring::kN>(
        ct.subspan(i * params.poly_p_bytes(), params.poly_p_bytes()),
        SaberParams::ep);
  }
  const auto cm = ring::unpack_poly<ring::kN>(
      ct.subspan(params.l * params.poly_p_bytes(), params.poly_t_bytes()),
      params.et);

  // m' = (v + h2 - 2^(ep-et) cm  mod p) >> (ep - 1), with v = b'^T s mod p.
  const auto v = inner(bp, s, SaberParams::ep);
  ring::PolyT<ring::kN, ct::rebind_t<B, u16>> mp;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    const auto val = ct::cast<u32>(v[i]) + params.h2() +
                     (u32{1} << SaberParams::ep) -
                     (static_cast<u32>(cm[i]) << (SaberParams::ep - params.et));
    mp[i] = ct::cast<u16>(ct::low_bits_g(val, SaberParams::ep) >>
                          (SaberParams::ep - 1));
  }
  return poly_to_message_g(mp);
}

template <typename B>
struct KemKeyBytes {
  std::vector<B> pk;
  std::vector<B> sk;  ///< pke_sk || pk || SHA3-256(pk) || z
};

/// Assemble the KEM secret-key blob from PKE key bytes and the
/// implicit-rejection secret z.
template <typename B>
KemKeyBytes<B> kem_assemble_flow(PkeKeyBytes<B> pke, std::span<const B> z,
                                 const SaberParams& params) {
  KemKeyBytes<B> kp;
  kp.pk = std::move(pke.pk);
  kp.sk = std::move(pke.sk);
  kp.sk.insert(kp.sk.end(), kp.pk.begin(), kp.pk.end());
  const auto pk_hash = sha3::Sha3<32, B>::hash(std::span<const B>(kp.pk));
  kp.sk.insert(kp.sk.end(), pk_hash.begin(), pk_hash.end());
  kp.sk.insert(kp.sk.end(), z.begin(), z.end());
  SABER_ENSURE(kp.sk.size() == params.kem_sk_bytes(), "KEM secret key size mismatch");
  return kp;
}

template <typename B>
struct EncapsBytes {
  std::vector<B> ct;
  MessageT<B> key;
};

/// Saber.KEM.Encaps from explicit message coins. `encrypt(m, r)` runs
/// Saber.PKE.Enc under the target public key. Both outputs come back in the
/// flow's word type; the caller declassifies the ciphertext at publication.
template <typename B, typename Encrypt>
EncapsBytes<B> encaps_flow(std::span<const u8> pk, const MessageT<B>& m_raw,
                           Encrypt&& encrypt) {
  constexpr std::size_t kHash = SaberParams::hash_bytes;
  // m = SHA3-256(m_raw): the reference hashes the sampled message so no raw
  // RNG output enters the ciphertext.
  auto m_arr = sha3::Sha3<32, B>::hash(std::span<const B>(m_raw));
  ZeroizeGuard guard_m_arr(m_arr);

  // (khat, r) = SHA3-512(m || SHA3-256(pk))
  std::array<B, 2 * kHash> buf{};
  ZeroizeGuard guard_buf(buf);
  std::copy(m_arr.begin(), m_arr.end(), buf.begin());
  const auto pk_hash = sha3::Sha3_256::hash(pk);
  std::copy(pk_hash.begin(), pk_hash.end(),
            buf.begin() + static_cast<std::ptrdiff_t>(kHash));
  auto kr = sha3::Sha3<64, B>().update(std::span<const B>(buf)).digest();
  ZeroizeGuard guard_kr(kr);

  MessageT<B> m{};
  ZeroizeGuard guard_msg(m);
  std::copy(m_arr.begin(), m_arr.end(), m.begin());
  SeedT<B> r{};
  ZeroizeGuard guard_r(r);
  std::copy_n(kr.begin() + static_cast<std::ptrdiff_t>(kHash), kHash, r.begin());

  EncapsBytes<B> res;
  res.ct = encrypt(m, r);

  // K = SHA3-256(khat || SHA3-256(ct))
  const auto ct_hash = sha3::Sha3<32, B>::hash(std::span<const B>(res.ct));
  std::copy(ct_hash.begin(), ct_hash.end(),
            kr.begin() + static_cast<std::ptrdiff_t>(kHash));
  res.key = sha3::Sha3<32, B>::hash(std::span<const B>(kr));
  return res;
}

/// Saber.KEM.Decaps with implicit rejection. `decrypt(ct, pke_sk)` and
/// `encrypt(m, r, pk)` run Saber.PKE under the same backend as encaps. The
/// FO re-encryption compare uses the constant-time ct_differ_g/ct_cmov_g
/// kernels; the comparison mask is never declassified — on mismatch the
/// returned key silently derives from z instead.
template <typename B, typename Decrypt, typename Encrypt>
MessageT<B> decaps_flow(std::span<const u8> ct, std::span<const B> sk,
                        const SaberParams& params, Decrypt&& decrypt,
                        Encrypt&& encrypt) {
  constexpr std::size_t kHash = SaberParams::hash_bytes;
  SABER_REQUIRE(sk.size() == params.kem_sk_bytes(), "bad KEM secret key length");
  const auto pke_sk = sk.first(params.pke_sk_bytes());
  // The embedded public key and its hash are public by construction (both
  // are published at keygen); lifting them out of the secret-key blob is an
  // audited declassification, not a leak.
  const auto pk =
      declassify_bytes(sk.subspan(params.pke_sk_bytes(), params.pk_bytes()),
                       "decaps-embedded-pk");
  const auto pk_hash = declassify_bytes(
      sk.subspan(params.pke_sk_bytes() + params.pk_bytes(), kHash),
      "decaps-embedded-pk-hash");
  const auto z = sk.last(SaberParams::key_bytes);  // stays secret

  MessageT<B> m = decrypt(ct, pke_sk);
  ZeroizeGuard guard_msg(m);

  // Re-derive (khat', r') and re-encrypt. Every intermediate that depends on
  // the decrypted message or the rejection secret z is wiped when the scope
  // exits, normally or by exception (a poisoned batch item must not leave
  // key material on a worker's stack).
  std::array<B, 2 * kHash> buf{};
  ZeroizeGuard guard_buf(buf);
  std::copy(m.begin(), m.end(), buf.begin());
  std::copy(pk_hash.begin(), pk_hash.end(),
            buf.begin() + static_cast<std::ptrdiff_t>(kHash));
  auto kr = sha3::Sha3<64, B>().update(std::span<const B>(buf)).digest();
  ZeroizeGuard guard_kr(kr);
  SeedT<B> r{};
  ZeroizeGuard guard_r(r);
  std::copy_n(kr.begin() + static_cast<std::ptrdiff_t>(kHash), kHash, r.begin());
  const auto ct2 = encrypt(m, r, std::span<const u8>(pk));

  const auto fail = ct_differ_g(ct, std::span<const B>(ct2));

  const auto ct_hash = sha3::Sha3_256::hash(ct);
  std::copy(ct_hash.begin(), ct_hash.end(),
            kr.begin() + static_cast<std::ptrdiff_t>(kHash));
  // Implicit rejection: replace khat' with z on mismatch.
  ct_cmov_g(std::span<B>(kr).first(kHash), z, fail);
  return sha3::Sha3<32, B>::hash(std::span<const B>(kr));
}

}  // namespace flows
}  // namespace saber::kem
