// Word-generic Saber PKE/KEM flow kernels.
//
// Every step of KeyGen / Enc / Dec / Encaps / Decaps that touches secret
// data lives here, templated over the byte word type B: production
// instantiates the flows over plain u8 (see pke.cpp / kem.cpp), the
// ct_audit build over ct::Tainted<u8>. The audited code path IS the
// production code path — there is no separate "constant-time variant".
//
// The polynomial products are injected as callables, because the product
// backend is the one genuinely polymorphic piece. Production has one
// pipeline: the split-transform batch backend over one PolyMultiplier, with
// the public operands prepared before Enc runs (SaberPke::prepare_pk) and
// the secret before Dec runs (SaberPke::prepare_secret). The audit injects
// the tainted software kernels, does the public pk unpacking and A
// expansion itself, and unpacks the tainted s once per key as production
// does.
//
// Declassification policy (audited in docs/static_analysis.md):
//  * the packed pk and ciphertext are declassified by the CALLER at
//    publication, never inside a flow — decaps re-encrypts with the same
//    encrypt flow and its ciphertext must stay tainted for the FO compare;
//  * split_kem_sk_g declassifies the pk and pk-hash bytes embedded in the
//    KEM secret-key blob (public by construction: they are published at
//    keygen), once per key: SaberKemScheme::prepare_sk and the audit split
//    the key before any decapsulation, and decaps_flow takes the parts;
//  * the FO comparison mask is NEVER declassified — implicit rejection
//    selects between khat' and z with a constant-time cmov (fo_select_g,
//    which the batch pipeline's decaps runs per item as well).
#pragma once

#include <array>
#include <span>
#include <type_traits>
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

/// The core of Saber.PKE.KeyGen, after its hashing (expand_keygen_g or
/// expand_keygen_x4): b = round(A^T s + h), then pack pk and sk.
/// `mat_vec(a, s, transpose)` must return A^T s reduced mod q. Both outputs
/// come back in the flow's word type; the caller declassifies pk at
/// publication.
template <typename S, typename MatVec>
PkeKeyBytes<ct::rebind_t<S, u8>> keygen_core_g(const KeygenExpansionT<S>& ex,
                                               const SaberParams& params,
                                               MatVec&& mat_vec) {
  // KeyGen multiplies by the transpose (round-3 spec).
  auto b = round_q_to_p_g(mat_vec(ex.a, ex.s, /*transpose=*/true));
  return PkeKeyBytes<ct::rebind_t<S, u8>>{pack_pk_g(b, ex.seed_a, params),
                                          pack_secret_g(ex.s, params)};
}

/// Saber.PKE.Enc after its hashing: CBD-sample s' from its SHAKE-128
/// stream (secret_stream_bytes(params) bytes), take the products and seal.
/// `products(sp)` returns the pair (b' = A s' reduced mod q,
/// v' = <b, s'> mod p) for the target public key (A, b); the split lets
/// production share one secret transform between both products. The batch
/// pipeline squeezes four streams at a time (sha3::shake128_x4) and calls
/// this core directly.
template <typename B, typename Products>
std::vector<B> encrypt_core_g(const MessageT<B>& m, std::span<const B> sp_stream,
                              const SaberParams& params, Products&& products) {
  auto sp = sample_secret_g(sp_stream, params);
  SecretVecGuardT<ct::rebind_t<B, i8>> guard_sp{sp};
  auto [bp, vp] = products(sp);
  return encrypt_seal_g(m, std::move(bp), vp, params);
}

/// Saber.PKE.Enc: squeeze s''s stream from the coins seed_sp with
/// SHAKE-128, then encrypt_core_g. The stream is wiped when the scope exits.
template <typename B, typename Products>
std::vector<B> encrypt_flow(const MessageT<B>& m, std::span<const B> seed_sp,
                            const SaberParams& params, Products&& products) {
  SABER_REQUIRE(seed_sp.size() == SaberParams::seed_bytes, "bad seed length");
  auto stream = sha3::Shake<128, B>::hash(seed_sp, secret_stream_bytes(params));
  ZeroizeSpanGuard<B> guard_stream{std::span<B>(stream)};
  return encrypt_core_g(m, std::span<const B>(stream), params,
                        std::forward<Products>(products));
}

/// Saber.PKE.Dec. `inner(bp)` returns <b', s> mod p under the caller's
/// secret s (unpacked and transformed by the caller, once per key).
template <typename Inner>
auto decrypt_flow(std::span<const u8> ct, const SaberParams& params, Inner&& inner) {
  SABER_REQUIRE(ct.size() == params.ct_bytes(), "bad ciphertext length");
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
  const auto v = inner(bp);
  std::remove_const_t<decltype(v)> mp;
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

/// Assemble the KEM secret-key blob from PKE key bytes, SHA3-256(pk) and
/// the implicit-rejection secret z. The caller hashes pk: one key at a time
/// with Sha3<32, B>, or four in lockstep with sha3::sha3_256_x4.
template <typename B>
KemKeyBytes<B> kem_assemble_flow(PkeKeyBytes<B> pke,
                                 std::span<const B, SaberParams::hash_bytes> pk_hash,
                                 std::span<const B> z, const SaberParams& params) {
  KemKeyBytes<B> kp;
  kp.pk = std::move(pke.pk);
  kp.sk = std::move(pke.sk);
  kp.sk.insert(kp.sk.end(), kp.pk.begin(), kp.pk.end());
  kp.sk.insert(kp.sk.end(), pk_hash.begin(), pk_hash.end());
  kp.sk.insert(kp.sk.end(), z.begin(), z.end());
  SABER_ENSURE(kp.sk.size() == params.kem_sk_bytes(), "KEM secret key size mismatch");
  return kp;
}

/// The input of G = SHA3-512 in encaps and decaps: m || SHA3-256(pk). It
/// holds the message: the caller wipes it.
template <typename B>
std::array<B, 2 * SaberParams::hash_bytes> g_input_g(
    const MessageT<B>& m, std::span<const u8, SaberParams::hash_bytes> pk_hash) {
  std::array<B, 2 * SaberParams::hash_bytes> buf{};
  std::copy(m.begin(), m.end(), buf.begin());
  std::copy(pk_hash.begin(), pk_hash.end(),
            buf.begin() + static_cast<std::ptrdiff_t>(SaberParams::hash_bytes));
  return buf;
}

template <typename B>
struct EncapsBytes {
  std::vector<B> ct;
  MessageT<B> key;
};

/// Saber.KEM.Encaps from explicit message coins, under the target public
/// key's hash SHA3-256(pk) (computed once per key, with its preparation).
/// `encrypt(m, r)` runs Saber.PKE.Enc under that key. Both outputs come back
/// in the flow's word type; the caller declassifies the ciphertext at
/// publication.
template <typename B, typename Encrypt>
EncapsBytes<B> encaps_flow(std::span<const u8, SaberParams::hash_bytes> pk_hash,
                           const MessageT<B>& m_raw, Encrypt&& encrypt) {
  constexpr std::size_t kHash = SaberParams::hash_bytes;
  // m = SHA3-256(m_raw): the reference hashes the sampled message so no raw
  // RNG output enters the ciphertext.
  MessageT<B> m = sha3::Sha3<32, B>::hash(std::span<const B>(m_raw));
  ZeroizeGuard guard_msg(m);

  // (khat, r) = SHA3-512(m || SHA3-256(pk))
  auto buf = g_input_g(m, pk_hash);
  ZeroizeGuard guard_buf(buf);
  auto kr = sha3::Sha3<64, B>::hash(std::span<const B>(buf));
  ZeroizeGuard guard_kr(kr);

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

/// The parts of a KEM secret-key blob (pke_sk || pk || SHA3-256(pk) || z).
/// The embedded pk and its hash are public by construction (both are
/// published at keygen), so they come back as plain bytes; pke_sk and z stay
/// views into the blob, in its word type.
template <typename B>
struct KemSkParts {
  std::span<const B> pke_sk;
  std::vector<u8> pk;
  std::vector<u8> pk_hash;
  std::span<const B, SaberParams::key_bytes> z;
};

/// Split a KEM secret key, once per key (SaberKemScheme::prepare_sk, the
/// audit). Lifting pk and pk_hash out of the secret blob is one of
/// decapsulation's audited declassifications each, not a leak.
template <typename B>
KemSkParts<B> split_kem_sk_g(std::span<const B> sk, const SaberParams& params) {
  SABER_REQUIRE(sk.size() == params.kem_sk_bytes(), "bad KEM secret key length");
  return KemSkParts<B>{
      sk.first(params.pke_sk_bytes()),
      declassify_bytes(sk.subspan(params.pke_sk_bytes(), params.pk_bytes()),
                       "decaps-embedded-pk"),
      declassify_bytes(sk.subspan(params.pke_sk_bytes() + params.pk_bytes(),
                                  SaberParams::hash_bytes),
                       "decaps-embedded-pk-hash"),
      sk.template last<SaberParams::key_bytes>()};
}

/// The FO transform's implicit-rejection select, one body for every decaps
/// path: `kr` holds khat' || SHA3-256(ct), and khat' is replaced by z unless
/// the re-encryption ct2 equals the received ct. The compare and the select
/// are the constant-time ct_differ_g/ct_cmov_g kernels, and the comparison
/// mask is never declassified.
template <typename B>
void fo_select_g(std::span<const u8> ct, std::span<const B> ct2,
                 std::span<B, 2 * SaberParams::hash_bytes> kr,
                 std::span<const B, SaberParams::key_bytes> z) {
  const auto fail = ct_differ_g(ct, ct2);
  ct_cmov_g(std::span<B>(kr.template first<SaberParams::hash_bytes>()),
            std::span<const B>(z), fail);
}

/// Saber.KEM.Decaps with implicit rejection, under a key already split
/// (split_kem_sk_g) and prepared by the caller. `decrypt(ct)` runs
/// Saber.PKE.Dec under s and `encrypt(m, r)` Saber.PKE.Enc under the
/// embedded pk, on the same backend as encaps; fo_select_g then picks khat'
/// or z without revealing which, so on a mismatch the returned key silently
/// derives from z instead.
template <typename B, typename Decrypt, typename Encrypt>
MessageT<B> decaps_flow(std::span<const u8> ct,
                        std::span<const u8, SaberParams::hash_bytes> pk_hash,
                        std::span<const B, SaberParams::key_bytes> z, Decrypt&& decrypt,
                        Encrypt&& encrypt) {
  constexpr std::size_t kHash = SaberParams::hash_bytes;
  MessageT<B> m = decrypt(ct);
  ZeroizeGuard guard_msg(m);

  // Re-derive (khat', r') and re-encrypt. Every intermediate that depends on
  // the decrypted message or the rejection secret z is wiped when the scope
  // exits, normally or by exception (a poisoned batch item must not leave
  // key material on a worker's stack).
  auto buf = g_input_g(m, pk_hash);
  ZeroizeGuard guard_buf(buf);
  auto kr = sha3::Sha3<64, B>::hash(std::span<const B>(buf));
  ZeroizeGuard guard_kr(kr);
  SeedT<B> r{};
  ZeroizeGuard guard_r(r);
  std::copy_n(kr.begin() + static_cast<std::ptrdiff_t>(kHash), kHash, r.begin());
  const auto ct2 = encrypt(m, r);

  const auto ct_hash = sha3::Sha3_256::hash(ct);
  std::copy(ct_hash.begin(), ct_hash.end(),
            kr.begin() + static_cast<std::ptrdiff_t>(kHash));
  fo_select_g(ct, std::span<const B>(ct2), std::span<B, 2 * kHash>(kr), z);
  return sha3::Sha3<32, B>::hash(std::span<const B>(kr));
}

}  // namespace flows
}  // namespace saber::kem
