// End-to-end tests of the Saber PKE and KEM across all parameter sets and
// all software multiplier backends.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "mult/strategy.hpp"
#include "ring/packing.hpp"
#include "saber/gen.hpp"
#include "saber/kem.hpp"
#include "saber/params.hpp"
#include "saber/pke.hpp"
#include "saber/sampler.hpp"

namespace saber::kem {
namespace {

const SaberParams& params_by_name(std::string_view name) {
  for (const auto& p : kAllParams) {
    if (p.name == name) return p;
  }
  throw std::runtime_error("unknown parameter set");
}

// ------------------------------------------------------------------ params

TEST(Params, PublishedSizes) {
  // Sizes from the round-3 submission.
  EXPECT_EQ(kLightSaber.pk_bytes(), 672u);
  EXPECT_EQ(kLightSaber.ct_bytes(), 736u);
  EXPECT_EQ(kSaber.pk_bytes(), 992u);
  EXPECT_EQ(kSaber.ct_bytes(), 1088u);
  EXPECT_EQ(kFireSaber.pk_bytes(), 1312u);
  EXPECT_EQ(kFireSaber.ct_bytes(), 1472u);
  EXPECT_EQ(kSaber.pke_sk_bytes(), 1248u);
  EXPECT_EQ(kSaber.kem_sk_bytes(), 1248u + 992u + 32u + 32u);
}

TEST(Params, RoundingConstants) {
  EXPECT_EQ(SaberParams::h1, 4u);
  EXPECT_EQ(kSaber.h2(), 228u);            // 256 - 32 + 4
  EXPECT_EQ(kLightSaber.h2(), 196u);       // 256 - 64 + 4
  EXPECT_EQ(kFireSaber.h2(), 252u);        // 256 - 8 + 4
  EXPECT_EQ(kSaber.secret_bound(), 4u);    // the paper's -4..4 range
  EXPECT_EQ(kLightSaber.secret_bound(), 5u);
  EXPECT_EQ(kFireSaber.secret_bound(), 3u);
}

// ----------------------------------------------------------------- sampler

TEST(Sampler, RangeAndDeterminism) {
  std::vector<u8> buf(ring::kN * 8 / 8);
  Xoshiro256StarStar rng(1);
  rng.fill(buf);
  const auto s1 = cbd_sample(buf, 8);
  const auto s2 = cbd_sample(buf, 8);
  EXPECT_EQ(s1, s2);
  EXPECT_LE(s1.max_magnitude(), 4u);
}

TEST(Sampler, DistributionIsCentered) {
  // Mean over many samples should be near zero and extreme values must occur.
  std::vector<u8> buf(ring::kN * 8 / 8);
  Xoshiro256StarStar rng(2);
  long sum = 0;
  int extremes = 0;
  const int iters = 64;
  for (int i = 0; i < iters; ++i) {
    rng.fill(buf);
    const auto s = cbd_sample(buf, 8);
    for (std::size_t j = 0; j < ring::kN; ++j) {
      sum += s[j];
      if (s[j] == 4 || s[j] == -4) ++extremes;
    }
  }
  const double mean = static_cast<double>(sum) / (iters * ring::kN);
  EXPECT_LT(std::abs(mean), 0.05);
  EXPECT_GT(extremes, 0);  // P(|s|=4) = 2/256 per coefficient
}

TEST(Sampler, AllParamSetsBounds) {
  Xoshiro256StarStar rng(3);
  for (const auto& p : kAllParams) {
    std::vector<u8> buf(ring::kN * p.mu / 8);
    rng.fill(buf);
    EXPECT_LE(cbd_sample(buf, p.mu).max_magnitude(), p.secret_bound()) << p.name;
  }
}

TEST(Sampler, RejectsBadInput) {
  std::vector<u8> buf(10);
  EXPECT_THROW(cbd_sample(buf, 8), ContractViolation);
  std::vector<u8> ok(ring::kN * 6 / 8);
  EXPECT_THROW(cbd_sample(ok, 7), ContractViolation);  // odd mu
}

// --------------------------------------------------------------------- gen

TEST(Gen, MatrixIsDeterministicAndReduced) {
  Seed seed{};
  seed[0] = 0x42;
  const auto a1 = gen_matrix(seed, kSaber);
  const auto a2 = gen_matrix(seed, kSaber);
  EXPECT_EQ(a1.rows(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(a1.at(r, c), a2.at(r, c));
      EXPECT_TRUE(a1.at(r, c).reduced(SaberParams::eq));
    }
  }
  Seed other = seed;
  other[1] = 1;
  EXPECT_NE(gen_matrix(other, kSaber).at(0, 0), a1.at(0, 0));
}

TEST(Gen, SecretVectorLengthAndBound) {
  Seed seed{};
  seed[5] = 9;
  for (const auto& p : kAllParams) {
    const auto s = gen_secret(seed, p);
    EXPECT_EQ(s.size(), p.l);
    for (const auto& poly : s) {
      EXPECT_LE(poly.max_magnitude(), p.secret_bound());
    }
  }
}

// ------------------------------------------------------------ PKE and KEM

class SaberE2E
    : public ::testing::TestWithParam<std::tuple<std::string_view, std::string_view>> {
 protected:
  const SaberParams& params_ = params_by_name(std::get<0>(GetParam()));
  std::unique_ptr<mult::PolyMultiplier> algo_ =
      mult::make_multiplier(std::get<1>(GetParam()));
};

TEST_P(SaberE2E, PkeRoundTrip) {
  SaberPke pke(params_, mult::as_poly_mul(*algo_));
  Xoshiro256StarStar rng(77);
  const auto keys = pke.keygen(rng);
  EXPECT_EQ(keys.pk.size(), params_.pk_bytes());
  EXPECT_EQ(keys.sk.size(), params_.pke_sk_bytes());

  for (int iter = 0; iter < 5; ++iter) {
    Message m{};
    rng.fill(m);
    Seed r{};
    rng.fill(r);
    const auto ct = pke.encrypt(m, r, keys.pk);
    EXPECT_EQ(ct.size(), params_.ct_bytes());
    EXPECT_EQ(pke.decrypt(ct, keys.sk), m);
  }
}

TEST_P(SaberE2E, KemAgreesOnSharedSecret) {
  SaberKemScheme kem(params_, mult::as_poly_mul(*algo_));
  Xoshiro256StarStar rng(78);
  const auto kp = kem.keygen(rng);
  for (int iter = 0; iter < 3; ++iter) {
    const auto enc = kem.encaps(kp.pk, rng);
    EXPECT_EQ(kem.decaps(enc.ct, kp.sk), enc.key);
  }
}

TEST_P(SaberE2E, KemImplicitRejection) {
  SaberKemScheme kem(params_, mult::as_poly_mul(*algo_));
  Xoshiro256StarStar rng(79);
  const auto kp = kem.keygen(rng);
  const auto enc = kem.encaps(kp.pk, rng);
  auto tampered = enc.ct;
  tampered[3] ^= 0x40;
  const auto k = kem.decaps(tampered, kp.sk);
  EXPECT_NE(k, enc.key);
  // Rejection is deterministic in (ct, sk).
  EXPECT_EQ(kem.decaps(tampered, kp.sk), k);
}

INSTANTIATE_TEST_SUITE_P(
    AllParamsAllMultipliers, SaberE2E,
    ::testing::Combine(::testing::Values(std::string_view("LightSaber"),
                                         std::string_view("Saber"),
                                         std::string_view("FireSaber")),
                       ::testing::Values(std::string_view("schoolbook"),
                                         std::string_view("karatsuba-8"),
                                         std::string_view("toom3"),
                                         std::string_view("toom4"),
                                         std::string_view("ntt"))),
    [](const auto& pinfo) {
      auto name =
          std::string(std::get<0>(pinfo.param)) + "_" + std::string(std::get<1>(pinfo.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Decode-margin property: decryption recovers the message exactly when the
// accumulated noise stays inside the rounding margin, and flips it once the
// noise leaves the margin. This checks the h1/h2 recentering constants at
// the boundary — the arithmetic the spec's odd-looking
// h2 = 2^(ep-2) - 2^(ep-et-1) + 2^(eq-ep-1) exists for.
TEST(SaberDecodeMargin, RecenteringConstants) {
  const auto& p = kSaber;  // ep=10, et=4, h1=4, h2=228
  // One coefficient of Dec: m' = ((v + h2 - (cm << 6)) mod 1024) >> 9, where
  // at encryption cm = ((v' + h1 - 512 m) mod 1024) >> 6. Take v = v' + e
  // for noise e and check the decoded bit against |e|.
  auto decode = [&](u16 vprime, int e, unsigned m) {
    const i32 pmod = 1 << 10;
    const u32 cm = static_cast<u32>(((vprime + SaberParams::h1 + pmod -
                                      (static_cast<i32>(m & 1u) << 9)) %
                                     pmod)) >>
                   6;
    const i32 v = ((vprime + e) % pmod + pmod) % pmod;
    const u32 dec = static_cast<u32>((v + p.h2() + pmod -
                                      static_cast<i32>(cm << 6)) %
                                     pmod) >>
                    9;
    return dec;
  };
  Xoshiro256StarStar rng(909);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto vprime = static_cast<u16>(rng.uniform(1024));
    const auto m = static_cast<unsigned>(rng.uniform(2));
    // Inside the guaranteed margin (|e| < 224): always correct.
    const int e_small = static_cast<int>(rng.uniform_range(-223, 223));
    ASSERT_EQ(decode(vprime, e_small, m), m)
        << "v'=" << vprime << " e=" << e_small << " m=" << m;
    // Far outside (e near p/2): must flip.
    const int e_big = 512 - static_cast<int>(rng.uniform(64));
    ASSERT_NE(decode(vprime, e_big, m), m)
        << "v'=" << vprime << " e=" << e_big << " m=" << m;
  }
}

// Multiplier backends must be interchangeable: keys made with one backend
// decrypt ciphertexts made with another.
TEST(SaberInterop, CrossBackendCiphertexts) {
  const auto sb = mult::make_multiplier("schoolbook");
  const auto ntt = mult::make_multiplier("ntt");
  SaberKemScheme kem_sb(kSaber, mult::as_poly_mul(*sb));
  SaberKemScheme kem_ntt(kSaber, mult::as_poly_mul(*ntt));
  Xoshiro256StarStar rng(80);
  const auto kp = kem_sb.keygen(rng);
  const auto enc = kem_ntt.encaps(kp.pk, rng);
  EXPECT_EQ(kem_sb.decaps(enc.ct, kp.sk), enc.key);
}

TEST(SaberDeterminism, KeygenFromSeedsIsReproducible) {
  const auto sb = mult::make_multiplier("schoolbook");
  SaberPke pke(kSaber, mult::as_poly_mul(*sb));
  Seed sa{}, ss{};
  sa[0] = 1;
  ss[0] = 2;
  const auto k1 = pke.keygen(sa, ss);
  const auto k2 = pke.keygen(sa, ss);
  EXPECT_EQ(k1.pk, k2.pk);
  EXPECT_EQ(k1.sk, k2.sk);
}

TEST(SaberDeterminism, EncapsDeterministicVariant) {
  const auto sb = mult::make_multiplier("schoolbook");
  SaberKemScheme kem(kSaber, mult::as_poly_mul(*sb));
  Xoshiro256StarStar rng(81);
  const auto kp = kem.keygen(rng);
  Message m{};
  m[0] = 0xaa;
  const auto e1 = kem.encaps_deterministic(kp.pk, m);
  const auto e2 = kem.encaps_deterministic(kp.pk, m);
  EXPECT_EQ(e1.ct, e2.ct);
  EXPECT_EQ(e1.key, e2.key);
  EXPECT_EQ(kem.decaps(e1.ct, kp.sk), e1.key);
}

TEST(SaberSecretKey, PackUnpackRoundTrip) {
  const auto sb = mult::make_multiplier("schoolbook");
  SaberPke pke(kSaber, mult::as_poly_mul(*sb));
  Seed seed{};
  seed[3] = 7;
  const auto s = gen_secret(seed, kSaber);
  EXPECT_EQ(pke.unpack_secret(pke.pack_secret(s)), s);
}

// Error paths: malformed inputs must be rejected loudly, never processed.
TEST(SaberErrors, MalformedInputsRejected) {
  const auto sb = mult::make_multiplier("schoolbook");
  SaberPke pke(kSaber, mult::as_poly_mul(*sb));
  SaberKemScheme kem(kSaber, mult::as_poly_mul(*sb));
  Xoshiro256StarStar rng(4242);
  const auto keys = pke.keygen(rng);
  Message m{};
  Seed r{};

  std::vector<u8> short_pk(keys.pk.begin(), keys.pk.end() - 1);
  EXPECT_THROW(pke.encrypt(m, r, short_pk), ContractViolation);

  const auto ct = pke.encrypt(m, r, keys.pk);
  std::vector<u8> short_ct(ct.begin(), ct.end() - 1);
  EXPECT_THROW(pke.decrypt(short_ct, keys.sk), ContractViolation);
  std::vector<u8> short_sk(keys.sk.begin(), keys.sk.end() - 1);
  EXPECT_THROW(pke.decrypt(ct, short_sk), ContractViolation);

  const auto kp = kem.keygen(rng);
  const auto enc = kem.encaps(kp.pk, rng);
  std::vector<u8> bad_sk(kp.sk.begin(), kp.sk.end() - 7);
  EXPECT_THROW(kem.decaps(enc.ct, bad_sk), ContractViolation);
  std::vector<u8> bad_ct(enc.ct.begin(), enc.ct.end() - 3);
  EXPECT_THROW(kem.decaps(bad_ct, kp.sk), ContractViolation);
}

// A PKE secret key must have exactly pke_sk_bytes: a longer blob (one stray
// trailing byte, or the whole KEM secret key that embeds the PKE key as its
// prefix) is a caller error, not a key.
TEST(SaberErrors, OverLongSecretKeyRejected) {
  const auto sb = mult::make_multiplier("schoolbook");
  SaberPke pke(kSaber, mult::as_poly_mul(*sb));
  SaberKemScheme kem(kSaber, mult::as_poly_mul(*sb));
  Xoshiro256StarStar rng(4244);
  const auto keys = pke.keygen(rng);
  Message m{};
  Seed r{};
  const auto ct = pke.encrypt(m, r, keys.pk);
  ASSERT_EQ(pke.decrypt(ct, keys.sk), m);

  std::vector<u8> long_sk(keys.sk);
  long_sk.push_back(0);
  EXPECT_THROW(pke.decrypt(ct, long_sk), ContractViolation);
  EXPECT_THROW(pke.unpack_secret(long_sk), ContractViolation);

  const auto kp = kem.keygen(rng);
  ASSERT_GT(kp.sk.size(), kSaber.pke_sk_bytes());
  EXPECT_THROW(pke.unpack_secret(kp.sk), ContractViolation);
  EXPECT_THROW(pke.decrypt(ct, kp.sk), ContractViolation);
}

// A corrupted secret key whose coefficients exceed the binomial bound is a
// data-integrity failure, not valid input: unpacking rejects it.
TEST(SaberErrors, OutOfRangeSecretKeyRejected) {
  const auto sb = mult::make_multiplier("schoolbook");
  SaberPke pke(kSaber, mult::as_poly_mul(*sb));
  Xoshiro256StarStar rng(4243);
  auto keys = pke.keygen(rng);
  // Force coefficient 0 to exactly 100 (bits 0..7 = 100, bits 8..12 = 0):
  // far outside [-4, 4].
  keys.sk[0] = 100;
  keys.sk[1] = static_cast<u8>(keys.sk[1] & ~0x1f);
  EXPECT_THROW(pke.unpack_secret(keys.sk), ContractViolation);
}

// Decryption failure rate for Saber is ~2^-136; a small message sweep with
// many distinct keys must never fail.
TEST(SaberRobustness, ManyKeysManyMessages) {
  const auto ntt = mult::make_multiplier("ntt");
  SaberPke pke(kSaber, mult::as_poly_mul(*ntt));
  Xoshiro256StarStar rng(82);
  for (int key = 0; key < 3; ++key) {
    const auto keys = pke.keygen(rng);
    for (int iter = 0; iter < 4; ++iter) {
      Message m{};
      rng.fill(m);
      Seed r{};
      rng.fill(r);
      ASSERT_EQ(pke.decrypt(pke.encrypt(m, r, keys.pk), keys.sk), m);
    }
  }
}

}  // namespace
}  // namespace saber::kem
