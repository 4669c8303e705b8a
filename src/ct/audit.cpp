#include "ct/audit.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.hpp"
#include "common/ctops.hpp"
#include "mult/karatsuba.hpp"
#include "mult/ntt.hpp"
#include "mult/strategy.hpp"
#include "mult/toomcook.hpp"
#include "saber/flows.hpp"
#include "saber/kem.hpp"

namespace saber::ct {

namespace {

constexpr std::size_t kN = ring::kN;

using TB = Tainted<u8>;
using TC = Tainted<u16>;
using TS = Tainted<i8>;
using TW = Tainted<i64>;
using TPoly = ring::PolyT<kN, TC>;
using TSecretPoly = ring::SecretPolyT<kN, TS>;

// --- public-operand promotion ----------------------------------------------
// Public polynomials enter the tainted kernels as untainted Tainted words:
// the values are public, so their taint bits stay clear and only genuinely
// secret-derived data propagates taint through the products.

TPoly promote_poly(const ring::Poly& p) {
  TPoly t;
  for (std::size_t i = 0; i < kN; ++i) t[i] = p[i];
  return t;
}

ring::PolyMatrixT<TC> promote_matrix(const ring::PolyMatrix& a) {
  ring::PolyMatrixT<TC> t(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) t.at(r, c) = promote_poly(a.at(r, c));
  }
  return t;
}

ring::PolyVecOf<TC> promote_vec(const ring::PolyVec& v) {
  ring::PolyVecOf<TC> t(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) t[i] = promote_poly(v[i]);
  return t;
}

// --- tainted negacyclic multiplication per backend -------------------------
// No product body lives here: each transform family composes the stage
// templates its production class runs over i64 (lift, accumulate, witness,
// reduce), instantiated over Tainted<i64> lanes (Tainted<u32> residues for
// the NTT). The backend is looked up in the registry and its configuration
// (Karatsuba depth, Toom order) read off the production instance; tables,
// recursion shapes and loop bounds are public.

using TaintedMul = std::function<TPoly(const TPoly&, const TSecretPoly&, unsigned)>;
using TSpan = std::span<const TW>;

// Convolution family: the images are the lifted coefficients and the
// accumulator is the linear convolution, filled by `acc_kernel`.
template <typename AccKernel>
TaintedMul conv_mul(AccKernel acc_kernel) {
  return [acc_kernel](const TPoly& a, const TSecretPoly& s, unsigned qbits) {
    std::vector<TW> acc(2 * kN - 1, TW{0});
    acc_kernel(TSpan(mult::centered_lift(a, qbits)), TSpan(mult::lift_secret(s)),
               std::span<TW>(acc));
    return mult::reduce_witness<kN, TW>(acc, qbits);
  };
}

TaintedMul toom_mul(const mult::ToomTables& t) {
  return [&t](const TPoly& a, const TSecretPoly& s, unsigned qbits) {
    std::vector<TW> ta(t.shape.len * t.shape.lanes), ts(ta.size());
    mult::toom_prepare_g<TW>(mult::centered_lift(a, qbits), t, std::span<TW>(ta));
    mult::toom_prepare_g<TW>(mult::lift_secret(s), t, std::span<TW>(ts));
    auto acc = mult::toom_accumulator_g<TW>(t);
    mult::lane_conv_acc_g<TW>(t.shape, acc, ta, ts);
    return mult::reduce_witness<kN, TW>(mult::toom_interpolate_g<TW>(acc, t), qbits);
  };
}

template <std::size_t K>
TPoly ntt_mul(const TPoly& a, const TSecretPoly& s, unsigned qbits) {
  const auto& t = mult::ntt_tables();
  mult::NttImage<Tainted<u32>, K> ta, ts, acc{};
  mult::ntt_prepare_g<K>(mult::centered_lift(a, qbits), ta.data(), t);
  mult::ntt_prepare_g<K>(s.c, ts.data(), t);
  mult::ntt_pointwise_acc_g<K>(acc.data(), ta.data(), ts.data(), t);
  return mult::reduce_witness<kN, TW>(mult::ntt_lift_g<K>(acc.data(), t), qbits);
}

TaintedMul make_tainted_mul(std::string_view name) {
  const auto m = mult::make_multiplier(name);
  if (dynamic_cast<const mult::SchoolbookMultiplier*>(m.get()) != nullptr) {
    return conv_mul(&mult::schoolbook_acc_g<TW>);
  }
  if (const auto* k = dynamic_cast<const mult::KaratsubaMultiplier*>(m.get())) {
    return conv_mul([levels = k->levels()](TSpan a, TSpan s, std::span<TW> acc) {
      mult::karatsuba_acc_g(a, s, acc, levels);
    });
  }
  if (const auto* t = dynamic_cast<const mult::ToomCookMultiplier*>(m.get())) {
    return toom_mul(mult::toom_tables(t->parts()));
  }
  if (dynamic_cast<const mult::NttMultiplier*>(m.get()) != nullptr) {
    // The prime count the class would pick: the lane rule on the public qbits.
    return [](const TPoly& a, const TSecretPoly& s, unsigned qbits) {
      return mult::ntt_lanes(qbits) == 1 ? ntt_mul<1>(a, s, qbits)
                                         : ntt_mul<2>(a, s, qbits);
    };
  }
  SABER_REQUIRE(false, "unknown audit backend");
  return {};
}

// --- comparison helpers (peek: audit-internal conformance checks) ----------

template <typename TaintedRange, typename PlainRange>
bool peek_eq(const TaintedRange& t, const PlainRange& p) {
  if (t.size() != p.size()) return false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (peek(t[i]) != p[i]) return false;
  }
  return true;
}

template <typename Range>
bool all_tainted(const Range& r) {
  return std::all_of(r.begin(), r.end(), [](const auto& w) { return is_tainted(w); });
}

template <std::size_t N>
std::array<TB, N> taint_array(const std::array<u8, N>& src) {
  std::array<TB, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = TB(src[i], /*taint=*/true);
  return out;
}

}  // namespace

std::vector<std::string_view> declassify_allowlist() {
  return {"secret-bound-check", "keygen-pk-publish", "encaps-ct-publish",
          "decaps-embedded-pk", "decaps-embedded-pk-hash"};
}

AuditResult audit_kem_roundtrip(std::string_view backend,
                                const kem::SaberParams& params) {
  AuditResult res;
  res.backend = std::string(backend);
  res.param_set = std::string(params.name);

  // Deterministic inputs shared with the production reference run.
  kem::Seed seed_a{}, seed_s{};
  kem::SharedSecret z{};
  kem::Message m_raw{};
  for (std::size_t i = 0; i < seed_a.size(); ++i) {
    seed_a[i] = static_cast<u8>(i + 1);
    seed_s[i] = static_cast<u8>(0x5A ^ (3 * i));
    z[i] = static_cast<u8>(0xC3 ^ i);
    m_raw[i] = static_cast<u8>(0x3C ^ (5 * i));
  }

  // Production reference (plain words, same backend, same seeds).
  kem::SaberKemScheme scheme(params, backend);
  const auto ref_kp = scheme.keygen_deterministic(seed_a, seed_s, z);
  const auto ref_enc = scheme.encaps_deterministic(ref_kp.pk, m_raw);
  const auto ref_key = scheme.decaps(ref_enc.ct, ref_kp.sk);
  auto tampered_ct = ref_enc.ct;
  tampered_ct[0] ^= 0x01;
  const auto ref_rejected = scheme.decaps(tampered_ct, ref_kp.sk);

  // Tainted run over the identical flow kernels.
  const auto mul = make_tainted_mul(backend);
  Analysis::instance().reset();
  const auto tseed_s = taint_array(seed_s);
  const auto tz = taint_array(z);
  const auto tm_raw = taint_array(m_raw);

  auto mat_vec = [&](const ring::PolyMatrix& a, const ring::SecretVecOf<TS>& s,
                     bool transpose) {
    return ring::matrix_vector_mul(promote_matrix(a), s, mul,
                                   kem::SaberParams::eq, transpose);
  };
  auto encrypt = [&](const kem::MessageT<TB>& m, const kem::SeedT<TB>& r,
                     std::span<const u8> pk) {
    // The pk and A are public: unpack and expand them in plain words.
    ring::PolyVec b;
    kem::Seed pk_seed_a{};
    kem::flows::unpack_pk_g(pk, b, pk_seed_a, params);
    const auto a = kem::gen_matrix(pk_seed_a, params);
    return kem::flows::encrypt_flow(
        m, std::span<const TB>(r), params, [&](const ring::SecretVecOf<TS>& sp) {
          auto bp = ring::matrix_vector_mul(promote_matrix(a), sp, mul,
                                            kem::SaberParams::eq, /*transpose=*/false);
          auto vp = ring::inner_product(promote_vec(b), sp, mul, kem::SaberParams::ep);
          return std::pair{std::move(bp), std::move(vp)};
        });
  };

  // KeyGen; the packed pk is declassified at publication.
  auto pke_keys = kem::flows::keygen_core_g(
      kem::expand_keygen_g(std::span<const u8>(seed_a), std::span<const TB>(tseed_s), params),
      params, mat_vec);
  const auto pk_hash_t = sha3::Sha3<32, TB>::hash(std::span<const TB>(pke_keys.pk));
  auto kp = kem::flows::kem_assemble_flow(std::move(pke_keys), std::span(pk_hash_t),
                                          std::span<const TB>(tz), params);
  const auto pk_pub =
      declassify_bytes(std::span<const TB>(kp.pk), "keygen-pk-publish");

  // Encaps with tainted coins; the ciphertext is declassified at publication.
  auto enc = kem::flows::encaps_flow(
      sha3::Sha3_256::hash(pk_pub), tm_raw,
      [&](const kem::MessageT<TB>& m, const kem::SeedT<TB>& r) {
        return encrypt(m, r, pk_pub);
      });
  const auto ct_pub =
      declassify_bytes(std::span<const TB>(enc.ct), "encaps-ct-publish");

  // Decaps of the honest ciphertext and of a tampered one under one split
  // key and one unpacked s, shared as SaberKemScheme::prepare_sk shares
  // them. The second run drives the implicit-rejection select with
  // fail = 0xff and must be exactly as silent as the first (the FO mask
  // never escapes).
  const auto parts = kem::flows::split_kem_sk_g(std::span<const TB>(kp.sk), params);
  const auto s = kem::flows::unpack_secret_g(parts.pke_sk, params);
  auto decrypt = [&](std::span<const u8> c) {
    return kem::flows::decrypt_flow(c, params, [&](const ring::PolyVec& bp) {
      return ring::inner_product(promote_vec(bp), s, mul, kem::SaberParams::ep);
    });
  };
  auto reencrypt = [&](const kem::MessageT<TB>& m, const kem::SeedT<TB>& r) {
    return encrypt(m, r, parts.pk);
  };
  const auto pk_hash = std::span<const u8, kem::SaberParams::hash_bytes>(parts.pk_hash);
  const auto key = kem::flows::decaps_flow(std::span<const u8>(ct_pub), pk_hash, parts.z,
                                           decrypt, reencrypt);
  const auto rejected = kem::flows::decaps_flow(std::span<const u8>(tampered_ct), pk_hash,
                                                parts.z, decrypt, reencrypt);

  res.violations = Analysis::instance().violations();
  res.declassifications = Analysis::instance().declassifications();

  // Taint must reach every secret-derived output: the packed b part of the
  // pk (its seed_A tail is public), the whole ciphertext and all three keys.
  const auto b_part = std::span<const TB>(kp.pk).first(params.pk_bytes() -
                                                       kem::SaberParams::seed_bytes);
  res.outputs_tainted = all_tainted(b_part) && all_tainted(enc.ct) &&
                        all_tainted(enc.key) && all_tainted(key) &&
                        all_tainted(rejected);

  res.conforms = pk_pub == ref_kp.pk && peek_eq(kp.sk, ref_kp.sk) &&
                 ct_pub == ref_enc.ct && peek_eq(enc.key, ref_enc.key) &&
                 peek_eq(key, ref_key) && peek_eq(rejected, ref_rejected);
  return res;
}

std::vector<AuditResult> audit_backends(const kem::SaberParams& params) {
  std::vector<AuditResult> out;
  for (const auto name : mult::multiplier_names()) {
    out.push_back(audit_kem_roundtrip(name, params));
  }
  return out;
}

std::vector<CtViolation> run_canary_kernels() {
  Analysis::instance().reset();
  SiteScope scope("canary");

  std::array<TB, 8> a{}, b{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = TB(static_cast<u8>(i * 17 + 2), true);
    b[i] = TB(static_cast<u8>(i * 17 + 2), true);
  }
  b[7] = TB(0x63, true);

  // Early-exit comparison: the classic memcmp leak. The loop branches on
  // secret bytes (kBranch) and the exit position leaks the match length.
  bool equal = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      equal = false;
      break;
    }
  }
  (void)equal;

  // Secret-indexed table lookup: the index escapes the taint lattice
  // (kEscape) — a cache-timing leak on real hardware.
  static constexpr u8 kTable[8] = {3, 1, 4, 1, 5, 9, 2, 6};
  const u8 looked_up = kTable[a[2] & 7];
  (void)looked_up;

  // Variable-latency arithmetic on secrets: division, modulo, and a shift
  // whose amount is secret.
  const auto quotient = a[3] / u8{3};         // kDivision
  const auto remainder = a[4] % u8{3};        // kModulo
  const auto shifted = u32{1} << (a[5] & 7);  // kShiftAmount
  (void)quotient;
  (void)remainder;
  (void)shifted;

  return Analysis::instance().violations();
}

}  // namespace saber::ct
