// Cross-algorithm agreement and unit tests for the software multipliers.
// Every registered backend is checked against a direct negacyclic product
// written here in u64 arithmetic mod 2^q, which shares no code with
// src/mult. Karatsuba (all depths), Toom-Cook and the NTT must also agree
// bit-for-bit with schoolbook on every modulus.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mult/karatsuba.hpp"
#include "mult/modmath.hpp"
#include "mult/ntt.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "mult/toomcook.hpp"

namespace saber::mult {
namespace {

using ring::kN;
using ring::Poly;
using ring::SecretPoly;

// ------------------------------------------------- independent reference

// Direct negacyclic product mod 2^qbits: u64 wrap-around arithmetic is exact
// mod 2^64 and so mod 2^qbits; no centered lift.
Poly direct_product(const std::array<u64, kN>& a, const std::array<u64, kN>& b,
                    unsigned qbits) {
  std::array<u64, kN> r{};
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (i + j < kN) {
        r[i + j] += a[i] * b[j];
      } else {
        r[i + j - kN] -= a[i] * b[j];
      }
    }
  }
  Poly out;
  for (std::size_t i = 0; i < kN; ++i) {
    out[i] = static_cast<u16>(r[i] & ((u64{1} << qbits) - 1));
  }
  return out;
}

std::array<u64, kN> words(const Poly& p) {
  std::array<u64, kN> w{};
  for (std::size_t i = 0; i < kN; ++i) w[i] = p[i];
  return w;
}

class Reference
    : public ::testing::TestWithParam<std::tuple<std::string_view, unsigned>> {};

TEST_P(Reference, MultiplyMatchesDirectProduct) {
  const auto algo = make_multiplier(std::get<0>(GetParam()));
  const unsigned q = std::get<1>(GetParam());
  const auto qmax = static_cast<u16>((u32{1} << q) - 1);
  const auto half = static_cast<u16>(u32{1} << (q - 1));
  Xoshiro256StarStar rng(2024 + q);
  Poly mixed;
  for (std::size_t i = 0; i < kN; ++i) {
    const u16 pattern[] = {qmax, half, 0, 1, static_cast<u16>(half - 1)};
    mixed[i] = static_cast<u16>(pattern[(i * 7) % 5] & qmax);
  }
  const Poly cases[] = {Poly::constant(qmax), Poly::constant(half), mixed,
                        Poly::random(rng, q)};
  for (const auto& a : cases) {
    for (const auto& b : cases) {
      EXPECT_EQ(algo->multiply(a, b, q), direct_product(words(a), words(b), q))
          << algo->name() << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, Reference,
    ::testing::Combine(::testing::ValuesIn(multiplier_names()),
                       ::testing::Values(1u, 13u, 16u)),
    [](const auto& pinfo) {
      auto name = std::string(std::get<0>(pinfo.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_q" + std::to_string(std::get<1>(pinfo.param));
    });

class ReferenceSecret : public ::testing::TestWithParam<std::string_view> {};

TEST_P(ReferenceSecret, ExtremeSecretMatchesDirectProduct) {
  const auto algo = make_multiplier(GetParam());
  Xoshiro256StarStar rng(127);
  const auto a = Poly::random(rng, 16);
  SecretPoly s;
  std::array<u64, kN> sw{};
  for (std::size_t i = 0; i < kN; ++i) {
    s[i] = static_cast<i8>(i % 3 == 0 ? -127 : 127);
    sw[i] = static_cast<u64>(static_cast<i64>(s[i]));
  }
  EXPECT_EQ(algo->multiply_secret(a, s, 16), direct_product(words(a), sw, 16))
      << algo->name();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ReferenceSecret,
                         ::testing::ValuesIn(multiplier_names()), [](const auto& p) {
                           std::string name(p.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------- agreement

class Agreement
    : public ::testing::TestWithParam<std::tuple<std::string_view, unsigned>> {
 protected:
  std::unique_ptr<PolyMultiplier> algo_ = make_multiplier(std::get<0>(GetParam()));
  unsigned qbits_ = std::get<1>(GetParam());
  SchoolbookMultiplier ref_;
};

TEST_P(Agreement, RandomOperands) {
  Xoshiro256StarStar rng(1234);
  for (int iter = 0; iter < 10; ++iter) {
    const auto a = Poly::random(rng, qbits_);
    const auto b = Poly::random(rng, qbits_);
    EXPECT_EQ(algo_->multiply(a, b, qbits_), ref_.multiply(a, b, qbits_))
        << algo_->name() << " iter " << iter;
  }
}

TEST_P(Agreement, SaberShapedOperands) {
  Xoshiro256StarStar rng(99);
  for (unsigned bound : {1u, 4u, 5u}) {
    const auto a = Poly::random(rng, qbits_);
    const auto s = SecretPoly::random(rng, bound);
    EXPECT_EQ(algo_->multiply_secret(a, s, qbits_), ref_.multiply_secret(a, s, qbits_));
  }
}

TEST_P(Agreement, AdversarialOperands) {
  const auto qmax = static_cast<u16>(mask64(qbits_));
  const auto all_max = Poly::constant(qmax);
  const Poly zero{};
  Poly one{};
  one[0] = 1;
  Poly x255{};
  x255[255] = 1;
  const Poly cases[] = {zero, one, x255, all_max};
  for (const auto& a : cases) {
    for (const auto& b : cases) {
      EXPECT_EQ(algo_->multiply(a, b, qbits_), ref_.multiply(a, b, qbits_));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllModuli, Agreement,
    ::testing::Combine(::testing::Values(std::string_view("karatsuba-1"),
                                         std::string_view("karatsuba-4"),
                                         std::string_view("karatsuba-8"),
                                         std::string_view("toom3"),
                                         std::string_view("toom4"),
                                         std::string_view("ntt")),
                       ::testing::Values(10u, 13u)),
    [](const auto& pinfo) {
      auto name = std::string(std::get<0>(pinfo.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_q" + std::to_string(std::get<1>(pinfo.param));
    });

// ------------------------------------------------------------ ring algebra

TEST(Schoolbook, RingAxioms) {
  Xoshiro256StarStar rng(4321);
  SchoolbookMultiplier m;
  const unsigned q = 13;
  const auto a = Poly::random(rng, q);
  const auto b = Poly::random(rng, q);
  const auto c = Poly::random(rng, q);

  // Commutativity.
  EXPECT_EQ(m.multiply(a, b, q), m.multiply(b, a, q));
  // Associativity.
  EXPECT_EQ(m.multiply(m.multiply(a, b, q), c, q),
            m.multiply(a, m.multiply(b, c, q), q));
  // Distributivity.
  EXPECT_EQ(m.multiply(a, ring::add(b, c, q), q),
            ring::add(m.multiply(a, b, q), m.multiply(a, c, q), q));
  // Multiplicative identity.
  Poly one{};
  one[0] = 1;
  EXPECT_EQ(m.multiply(a, one, q), a);
  // x^N == -1 (negacyclic wrap).
  Poly x{};
  x[1] = 1;
  auto ax = a;
  for (int i = 0; i < 256; ++i) ax = m.multiply(ax, x, q);
  EXPECT_EQ(ring::add(ax, a, q), Poly{});
}

TEST(Schoolbook, ConvolutionLengths) {
  std::vector<i64> a = {1, 2}, b = {3, 4, 5};
  std::vector<i64> out(4);
  schoolbook_conv_g<i64>(a, b, out);
  EXPECT_EQ(out, (std::vector<i64>{3, 10, 13, 10}));
  std::vector<i64> bad(5);
  EXPECT_THROW(schoolbook_conv_g<i64>(a, b, bad), ContractViolation);
}

TEST(Karatsuba, HandlesOddLengthsViaBaseCase) {
  std::vector<i64> a = {1, -2, 3}, b = {4, 5, -6};
  std::vector<i64> kout(5), sout(5);
  karatsuba_acc_g<i64>(a, b, kout, 8);
  schoolbook_conv_g<i64>(a, b, sout);
  EXPECT_EQ(kout, sout);
}

// acc += a * b without a split (the one leaf accumulates straight into the
// output) and under splits (the lane-sliced leaves merge into it).
TEST(Karatsuba, AccumulatesIntoNonzeroOutput) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 12u}) {
    for (const unsigned levels : {0u, 1u, 8u}) {
      std::vector<i64> a(n), b(n), kout(2 * n - 1), sout(2 * n - 1);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<i64>(7 * i) - 9;
        b[i] = 11 - static_cast<i64>(5 * i);
      }
      for (std::size_t i = 0; i < kout.size(); ++i) kout[i] = sout[i] = static_cast<i64>(i) - 3;
      karatsuba_acc_g<i64>(a, b, kout, levels);
      schoolbook_acc_g<i64>(a, b, sout);
      EXPECT_EQ(kout, sout) << "n=" << n << " levels=" << levels;
    }
  }
}

TEST(Karatsuba, DepthZeroIsSchoolbook) {
  KaratsubaMultiplier k0(0);
  SchoolbookMultiplier sb;
  Xoshiro256StarStar rng(5);
  const auto a = Poly::random(rng, 13);
  const auto b = Poly::random(rng, 13);
  EXPECT_EQ(k0.multiply(a, b, 13), sb.multiply(a, b, 13));
}

TEST(ToomCook, ExactOnWorstCase) {
  // All-maximal coefficients maximize the interpolation intermediates; the
  // exact-division invariants inside conv() must hold.
  ToomCookMultiplier t(4);
  SchoolbookMultiplier sb;
  const auto a = Poly::constant(8191);
  EXPECT_EQ(t.multiply(a, a, 13), sb.multiply(a, a, 13));
}

// Products the two-prime worst case accumulates: far past the one-prime cap
// max_accumulated_terms() reports, and still inside the CRT headroom.
constexpr std::size_t kTwoPrimeTerms = std::size_t{1} << 10;

TEST(Ntt, PrimeAndRootAreValid) {
  const auto& tables = ntt_tables();
  for (std::size_t k = 0; k < kNttPrimes.size(); ++k) {
    const u64 p = kNttPrimes[k];
    EXPECT_TRUE(is_prime_u64(p));
    EXPECT_EQ((p - 1) % 512, 0u);
    EXPECT_NE((p - 1) % 1024, 0u);  // 2-adic valuation exactly 9
    EXPECT_LT(p, u64{1} << 31);
    // zetas[128] = psi^brv8(128) = psi, a primitive 512th root of unity.
    const u64 psi = tables.primes[k].zetas[128];
    EXPECT_EQ(powmod(psi, 256, p), p - 1);
  }
  // The CRT modulus P = p1 * p2 leaves P/2 > 2^40 of centered-lift headroom,
  // the bound kTwoPrimeTerms products of <= 2^30 each must stay in.
  const u64 half = u64{kNttPrimes[0]} * kNttPrimes[1] / 2;
  EXPECT_GT(half, u64{1} << 40);
  EXPECT_GT(half, kTwoPrimeTerms * (u64{1} << 30));
  // p1 alone: max_accumulated_terms() products of <= N * 2^12 * 2^7 = 2^27
  // each (qbits <= 13, any i8 secret) stay inside the centered reduce's
  // (p1 - 1)/2.
  const u64 half1 = u64{kNttPrimes[0]} / 2;
  EXPECT_GT(half1, NttMultiplier().max_accumulated_terms() * (u64{1} << 27));
  EXPECT_EQ(ntt_product_bound(kOnePrimeMaxQbits), u64{1} << 27);
  EXPECT_EQ(ntt_lanes(kOnePrimeMaxQbits), 1u);
  EXPECT_EQ(ntt_lanes(kOnePrimeMaxQbits + 1), 2u);
}

TEST(Ntt, ForwardInverseRoundTrip) {
  Xoshiro256StarStar rng(8);
  for (const auto& t : ntt_tables().primes) {
    std::array<u32, 256> v{}, orig{};
    for (auto& x : v) x = static_cast<u32>(rng.uniform(t.p));
    orig = v;
    ntt_forward_g(v, t);
    EXPECT_NE(v, orig);  // transform moved the data
    // The inverse cancels the 2^-32 of one Montgomery product; multiplying by
    // 1 (the image of the constant polynomial 1) supplies it.
    for (auto& x : v) x = ntt_mulmod_mont_g(x, u32{1}, t.p, t.p_neg_inv);
    ntt_inverse_g(v, t);
    EXPECT_EQ(v, orig);
  }
}

/// Exact negacyclic remainder of a * s from schoolbook's linear convolution.
std::vector<i64> schoolbook_remainder(const Poly& a, const SecretPoly& s, unsigned qbits) {
  SchoolbookMultiplier sb;
  auto acc = sb.make_accumulator();
  sb.pointwise_accumulate(acc, sb.prepare_public(a, qbits), sb.prepare_secret(s, qbits));
  const auto conv = sb.finalize_witness(acc);
  std::vector<i64> r(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    r[i] = conv[i] - (i + kN < conv.size() ? conv[i + kN] : 0);
  }
  return r;
}

TEST(Ntt, WorstCaseAccumulationIsExact) {
  // The documented worst case at qbits 16: every public coefficient is
  // -2^15 and |s| = 127, signed so that output coefficient 0 of a * s,
  // -2^15 * s_0 + 2^15 * sum_{j>=1} s_{N-j}, reaches N * 2^15 * 127 ~ 2^30.
  constexpr unsigned kQ = 16;
  Poly a;
  for (auto& c : a.c) c = static_cast<u16>(1u << 15);  // centered: -2^15
  SecretPoly s;
  for (auto& c : s.c) c = 127;
  s[0] = -127;

  NttMultiplier ntt;
  const auto sb = make_multiplier("schoolbook");
  const std::size_t terms = kTwoPrimeTerms;
  const auto ta = ntt.prepare_public(a, kQ);
  const auto ts = ntt.prepare_secret(s, kQ);
  auto acc = ntt.make_accumulator();
  for (std::size_t k = 0; k < terms; ++k) ntt.pointwise_accumulate(acc, ta, ts);

  auto want = schoolbook_remainder(a, s, kQ);
  ASSERT_EQ(want[0], i64{256} * (1 << 15) * 127);
  for (auto& w : want) w *= static_cast<i64>(terms);
  EXPECT_EQ(ntt.finalize_witness(acc), want);

  // Public x public at the same extreme: N * (2^15)^2 = 2^38.
  EXPECT_EQ(ntt.multiply(a, a, kQ), sb->multiply(a, a, kQ));
}

TEST(Ntt, OnePrimeWorstCaseAccumulationIsExact) {
  // The one-prime worst case at qbits 13: every public coefficient is -2^12
  // and every secret coefficient -128, so output coefficient N-1 of a * s,
  // sum_j a_j s_{N-1-j}, reaches N * 2^12 * 2^7 = 2^27.
  constexpr unsigned kQ = 13;
  Poly a;
  for (auto& c : a.c) c = static_cast<u16>(1u << 12);  // centered: -2^12
  SecretPoly s;
  for (auto& c : s.c) c = -128;

  NttMultiplier ntt;
  const std::size_t terms = ntt.max_accumulated_terms();
  EXPECT_EQ(terms, 7u);
  // The cap is tight: one more term could leave (p1 - 1)/2.
  const u64 half1 = u64{kNttPrimes[0]} / 2;
  EXPECT_LT(terms * (u64{1} << 27), half1);
  EXPECT_LE(half1, (terms + 1) * (u64{1} << 27));

  const auto ta = ntt.prepare_public(a, kQ);
  const auto ts = ntt.prepare_secret(s, kQ);
  ASSERT_EQ(ta.size(), kN / 2);  // one prime
  ASSERT_EQ(ts.size(), kN / 2);
  auto acc = ntt.make_accumulator();
  for (std::size_t k = 0; k < terms; ++k) ntt.pointwise_accumulate(acc, ta, ts);

  auto want = schoolbook_remainder(a, s, kQ);
  ASSERT_EQ(want[kN - 1], i64{1} << 27);
  for (auto& w : want) w *= static_cast<i64>(terms);
  EXPECT_EQ(ntt.finalize_witness(acc), want);
  EXPECT_EQ(ntt.finalize(acc, kQ), reduce_witness<kN>(std::span<const i64>(want), kQ));

  // Public x public at the same modulus reaches N * 2^24 = 2^32, past p1:
  // multiply runs over both primes and stays exact.
  const auto sb = make_multiplier("schoolbook");
  EXPECT_EQ(ntt.multiply(a, a, kQ), sb->multiply(a, a, kQ));
  const auto w = ntt.multiply_witness(a, a, kQ);
  EXPECT_EQ(w[kN - 1], i64{1} << 32);
}

// Products the narrow-lane worst case accumulates: a backend's whole cap when
// a unit test can afford it (Toom-4's 3158), else 64. Toom-3's cap (~2.7M)
// and the convolution default (2^30) only bound i64 accumulator headroom,
// which does not depend on the lanes: they see one product at a time.
constexpr std::size_t kAffordableCap = std::size_t{1} << 12;
constexpr std::size_t kSampledTerms = 64;

class NarrowLanes : public ::testing::TestWithParam<std::string_view> {};

TEST_P(NarrowLanes, WorstCaseAccumulationIsExact) {
  // The worst case of the i32 operand lanes at qbits 16: every public
  // coefficient -2^15 and every secret coefficient -128, so each Toom
  // evaluation and each Karatsuba pre-add reaches its largest magnitude
  // (Toom-3 2^19, Toom-4 2^27, Karatsuba-8 2^23 for public x public), and
  // output coefficient N-1 of a * s reaches N * 2^15 * 2^7 = 2^30.
  constexpr unsigned kQ = 16;
  Poly a;
  for (auto& c : a.c) c = static_cast<u16>(1u << 15);  // centered: -2^15
  SecretPoly s;
  for (auto& c : s.c) c = -128;

  const auto m = make_multiplier(GetParam());
  const auto sb = make_multiplier("schoolbook");
  const std::size_t cap = m->max_accumulated_terms();
  const std::size_t terms = cap <= kAffordableCap ? cap : kSampledTerms;
  const auto ta = m->prepare_public(a, kQ);
  const auto ts = m->prepare_secret(s, kQ);
  if (const auto* t = dynamic_cast<const ToomCookMultiplier*>(m.get())) {
    // The bound the kernel's static_asserts use is the one the leaf lanes
    // reach: the largest |evaluation| is amp * 2^15 (7 at Toom-3's point 2,
    // 40 at Toom-4's point 3), and each Karatsuba level doubles it on the
    // pre-added middle leaf. The image packs its i32 lanes two to a word.
    std::vector<i32> lanes(2 * ta.size());
    std::memcpy(lanes.data(), ta.data(), lanes.size() * sizeof(i32));
    i64 top = 0;
    for (const i32 v : lanes) top = std::max(top, v < 0 ? -i64{v} : i64{v});
    const unsigned levels = toom_tables(t->parts()).levels;
    EXPECT_EQ(levels, t->parts() == 3 ? 1u : 2u);
    EXPECT_EQ(top, static_cast<i64>(toom_amplification(t->parts())) << (15 + levels));
    EXPECT_EQ(toom_amplification(t->parts()), t->parts() == 3 ? 7u : 40u);
  }
  auto acc = m->make_accumulator();
  for (std::size_t k = 0; k < terms; ++k) m->pointwise_accumulate(acc, ta, ts);

  auto sacc = sb->make_accumulator();
  sb->pointwise_accumulate(sacc, sb->prepare_public(a, kQ), sb->prepare_secret(s, kQ));
  auto want = sb->finalize_witness(sacc);
  ASSERT_EQ(want[kN - 1], i64{1} << 30);
  for (auto& w : want) w *= static_cast<i64>(terms);
  EXPECT_EQ(m->finalize_witness(acc), want);
  EXPECT_EQ(m->finalize(acc, kQ), reduce_witness<kN>(std::span<const i64>(want), kQ));

  // Public x public at the same extreme: N * (2^15)^2 = 2^38.
  const auto w = m->multiply_witness(a, a, kQ);
  EXPECT_EQ(w[kN - 1], i64{1} << 38);
  EXPECT_EQ(m->multiply(a, a, kQ), sb->multiply(a, a, kQ));
}

INSTANTIATE_TEST_SUITE_P(NarrowLaneBackends, NarrowLanes,
                         ::testing::Values("toom3", "toom4", "karatsuba-8"),
                         [](const auto& p) {
                           std::string name(p.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ------------------------------------------------- lane-sliced schoolbook

// Lane `lane`'s linear convolution of a lane-major operand pair, in i64 (the
// operands keep every sum inside i64).
std::vector<i64> lane_reference(const std::vector<i32>& a, const std::vector<i32>& b,
                                std::size_t len, std::size_t lanes, std::size_t lane) {
  std::vector<i64> out(2 * len - 1, 0);
  for (std::size_t i = 0; i < len; ++i) {
    for (std::size_t j = 0; j < len; ++j) {
      out[i + j] += i64{a[i * lanes + lane]} * b[j * lanes + lane];
    }
  }
  return out;
}

void check_lane_shape(const LaneShape& S, Xoshiro256StarStar& rng) {
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  const auto draw = [&](i64 lo, i64 hi) { return rng.uniform_range(lo, hi); };
  // Random operands: `a` spans all of i32 (its edges included), `b` stays
  // below 2^20 so every output sum fits i64. A lone pair of edge
  // coefficients per lane (kMin * kMin = 2^62) checks the widening multiply
  // at its extremes; the pad lanes stay zero.
  for (int round = 0; round < 3; ++round) {
    std::vector<i32> a(S.len * S.lanes, 0), b(a.size(), 0);
    for (std::size_t c = 0; c < S.len; ++c) {
      for (std::size_t j = 0; j < S.leaves; ++j) {
        const std::size_t w = c * S.lanes + j;
        if (round == 2) {
          a[w] = c == j % S.len ? (j % 2 ? kMax : kMin) : 0;
          b[w] = c == (j / 2) % S.len ? (j % 3 ? kMin : kMax) : 0;
        } else {
          a[w] = round == 1 && (c + j) % 3 == 0 ? (j % 2 ? kMax : kMin)
                                                : static_cast<i32>(draw(kMin, kMax));
          b[w] = static_cast<i32>(draw(-(i64{1} << 20), i64{1} << 20));
        }
      }
    }
    std::vector<i64> seed((2 * S.len - 1) * S.lanes);
    for (auto& v : seed) v = draw(-(i64{1} << 40), i64{1} << 40);

    auto vec = seed, scalar = seed;
    lane_conv_acc_g<i64x8>(S, vec, a, b);
    lane_conv_acc_g<i64>(S, scalar, a, b);
    for (std::size_t j = 0; j < S.lanes; ++j) {
      const auto want = j < S.leaves ? lane_reference(a, b, S.len, S.lanes, j)
                                     : std::vector<i64>(2 * S.len - 1, 0);
      for (std::size_t k = 0; k < 2 * S.len - 1; ++k) {
        const std::size_t w = k * S.lanes + j;
        ASSERT_EQ(vec[w], seed[w] + want[k]) << "round " << round << " lane " << j;
        if (j < S.leaves) {
          ASSERT_EQ(scalar[w], vec[w]) << "lane " << j;
        }
      }
    }

    // Perturbing one lane's operands moves that lane's outputs only.
    const std::size_t hit = rng.uniform(S.leaves);
    for (std::size_t c = 0; c < S.len; ++c) a[c * S.lanes + hit] ^= 0x5A5A;
    auto moved = seed;
    lane_conv_acc_g<i64x8>(S, moved, a, b);
    const auto want_hit = lane_reference(a, b, S.len, S.lanes, hit);
    for (std::size_t k = 0; k < 2 * S.len - 1; ++k) {
      for (std::size_t j = 0; j < S.lanes; ++j) {
        const std::size_t w = k * S.lanes + j;
        ASSERT_EQ(moved[w], j == hit ? seed[w] + want_hit[k] : vec[w]) << "lane " << j;
      }
    }
  }
}

TEST(LaneConv, MatchesSchoolbookOnEveryLane) {
  // Both shipped shapes (Toom-3: 43 x 16 lanes, Toom-4: 16 x 64), through
  // the i64x8 word (vpmuldq under AVX-512F, element-wise otherwise) and the
  // portable i64 word, so every build runs both.
  Xoshiro256StarStar rng(0x1A4E);
  static_assert(toom_lane_shape(3).len == 43 && toom_lane_shape(3).lanes == 16 &&
                toom_lane_shape(3).leaves == 15);
  static_assert(toom_lane_shape(4).len == 16 && toom_lane_shape(4).lanes == 64 &&
                toom_lane_shape(4).leaves == 63);
  check_lane_shape(toom_lane_shape(3), rng);
  check_lane_shape(toom_lane_shape(4), rng);
}

TEST(LaneConv, WideningMultiplyReadsLowHalvesSigned) {
  // mul_lo32 is vpmuldq: each lane's low 32 bits, sign-extended, multiplied
  // exactly; the high halves are ignored.
  i64x8 x{}, y{};
  const i64 lo[8] = {-1, std::numeric_limits<i32>::min(), std::numeric_limits<i32>::max(),
                     0, 7, -12345, 1 << 20, std::numeric_limits<i32>::min()};
  const i64 hi[8] = {3, -3, 1, 5, std::numeric_limits<i32>::max(), 2, -1, 9};
  for (int j = 0; j < 8; ++j) {
    x.v[j] = static_cast<i64>((static_cast<u64>(hi[j]) << 32) | static_cast<u32>(lo[j]));
    y.v[j] = static_cast<i64>((static_cast<u64>(hi[7 - j]) << 32) | static_cast<u32>(lo[7 - j]));
  }
  const i64x8 p = mul_lo32(x, y);
  for (int j = 0; j < 8; ++j) EXPECT_EQ(p.v[j], lo[j] * lo[7 - j]) << j;
}

// --- NTT row words ------------------------------------------------------------
//
// The transforms run on 16-lane rows: u32x16 in production (vpmuludq and
// vpermt2d under AVX-512F, ymm or xmm parts elsewhere) and Row16, lane by
// lane, in the ct audit. Both are instantiated here, so every build checks
// both against scalar u32 code.

template <typename R>
class NttRow : public ::testing::Test {};
using NttRowWords = ::testing::Types<u32x16, Row16<u32>>;
TYPED_TEST_SUITE(NttRow, NttRowWords);

using Lanes16 = std::array<u32, 16>;

template <typename R>
Lanes16 lanes_of(const R& r) {
  Lanes16 out;
  r.store(out.data());
  return out;
}

/// The edge values 0, 1, p - 1, 2^31 - 1, 2^32 - 1 (the first `edges` of
/// them), rows pairing every two of them in some lane (shift s pairs lane l's
/// edge l % n with edge (l + s) % n), then random rows below `bound`.
std::vector<std::pair<Lanes16, Lanes16>> row_pairs(u32 p, std::size_t edges, u64 bound,
                                                   Xoshiro256StarStar& rng) {
  const std::array<u32, 5> edge = {0, 1, p - 1, (u32{1} << 31) - 1, ~u32{0}};
  std::vector<std::pair<Lanes16, Lanes16>> rows;
  for (std::size_t shift = 0; shift < edges; ++shift) {
    Lanes16 a, b;
    for (std::size_t l = 0; l < 16; ++l) {
      a[l] = edge[l % edges];
      b[l] = edge[(l + shift) % edges];
    }
    rows.emplace_back(a, b);
  }
  for (int i = 0; i < 500; ++i) {
    Lanes16 a, b;
    for (auto& x : a) x = static_cast<u32>(rng.uniform(bound));
    for (auto& x : b) x = static_cast<u32>(rng.uniform(bound));
    rows.emplace_back(a, b);
  }
  return rows;
}

TYPED_TEST(NttRow, MulHi32MatchesScalar) {
  using R = TypeParam;
  Xoshiro256StarStar rng(0x3A11);
  for (const auto& [a, b] : row_pairs(kNttPrimes[0], 5, u64{1} << 32, rng)) {
    const Lanes16 hi = lanes_of(mul_hi32(R::load(a.data()), R::load(b.data())));
    const Lanes16 hi_b0 = lanes_of(mul_hi32(R::load(a.data()), b[0]));
    for (std::size_t l = 0; l < 16; ++l) {
      ASSERT_EQ(hi[l], static_cast<u32>(u64{a[l]} * b[l] >> 32)) << a[l] << " * " << b[l];
      ASSERT_EQ(hi_b0[l], static_cast<u32>(u64{a[l]} * b[0] >> 32))
          << a[l] << " * " << b[0];
    }
  }
}

template <Lanes16 I, typename R>
void check_permute(const Lanes16& a, const Lanes16& b) {
  const Lanes16 out = lanes_of(permute<I>(R::load(a.data()), R::load(b.data())));
  for (std::size_t l = 0; l < 16; ++l) {
    ASSERT_EQ(out[l], I[l] < 16 ? a[I[l]] : b[I[l] - 16]) << "lane " << l;
  }
}

TYPED_TEST(NttRow, PermuteMatchesLaneIndex) {
  using R = TypeParam;
  // The transforms' four, and two more shapes: b reversed, a ++ b rotated.
  constexpr Lanes16 rev = lane_index([](u32 l) { return 31 - l; });
  constexpr Lanes16 rot = lane_index([](u32 l) { return l + 1; });
  Xoshiro256StarStar rng(0x9E3);
  for (const auto& [a, b] : row_pairs(kNttPrimes[0], 5, u64{1} << 32, rng)) {
    check_permute<kNttZipLo, R>(a, b);
    check_permute<kNttZipHi, R>(a, b);
    check_permute<kNttEven, R>(a, b);
    check_permute<kNttOdd, R>(a, b);
    check_permute<rev, R>(a, b);
    check_permute<rot, R>(a, b);
  }
}

TYPED_TEST(NttRow, ShoupButterfliesMatchScalar) {
  // Residues x < p; the forward butterfly's Shoup product also takes any
  // y < 2^32. Twiddles per lane from the tables' own, and broadcast.
  using R = TypeParam;
  Xoshiro256StarStar rng(0xB7F1);
  for (const auto& t : ntt_tables().primes) {
    const u32 p = t.p;
    for (const auto& [xy, wy] : row_pairs(p, 5, u64{1} << 32, rng)) {
      Lanes16 x, w, ws;
      for (std::size_t l = 0; l < 16; ++l) {
        x[l] = xy[l] < p ? xy[l] : static_cast<u32>(xy[l] % p);
        w[l] = t.zetas[rng.uniform(ring::kN)];
        ws[l] = ntt_twiddle(w[l], p).shoup;
      }
      Lanes16 y = wy;  // any u32 for the forward butterfly
      R fx = R::load(x.data()), fy = R::load(y.data());
      ntt_butterfly_g(fx, fy, R::load(w.data()), R::load(ws.data()), p);
      R bx = R::load(x.data()), by = R::load(y.data());
      ntt_butterfly_g(bx, by, w[0], ws[0], p);
      for (auto& v : y) v %= p;  // the inverse butterfly takes residues
      R ix = R::load(x.data()), iy = R::load(y.data());
      ntt_butterfly_inv_g(ix, iy, R::load(w.data()), R::load(ws.data()), p);
      const Lanes16 mont = lanes_of(
          ntt_mulmod_mont_g(R::load(x.data()), R::load(y.data()), p, t.p_neg_inv));
      for (std::size_t l = 0; l < 16; ++l) {
        u32 sx = x[l], sy = wy[l];
        ntt_butterfly_g(sx, sy, w[l], ws[l], p);
        ASSERT_EQ(lanes_of(fx)[l], sx) << x[l] << ", " << wy[l] << " by " << w[l];
        ASSERT_EQ(lanes_of(fy)[l], sy) << x[l] << ", " << wy[l] << " by " << w[l];
        sx = x[l], sy = wy[l];
        ntt_butterfly_g(sx, sy, w[0], ws[0], p);
        ASSERT_EQ(lanes_of(bx)[l], sx);
        ASSERT_EQ(lanes_of(by)[l], sy);
        sx = x[l], sy = y[l];
        ntt_butterfly_inv_g(sx, sy, w[l], ws[l], p);
        ASSERT_EQ(lanes_of(ix)[l], sx) << x[l] << ", " << y[l] << " by " << w[l];
        ASSERT_EQ(lanes_of(iy)[l], sy) << x[l] << ", " << y[l] << " by " << w[l];
        ASSERT_EQ(mont[l], ntt_mulmod_mont_g(x[l], y[l], p, t.p_neg_inv));
      }
    }
  }
}

TEST(Karatsuba, RejectsOperandsBeyondItsI32Lanes) {
  // n coefficients split s times leave each operand [-2^(31-s), 2^(31-s)).
  for (const auto& [n, levels] : {std::pair<std::size_t, unsigned>{256, 8}, {86, 32}, {3, 8}}) {
    const unsigned room = 31 - karatsuba_splits(n, levels);
    // Both ends of the lane, multiplied by ones so the i64 sums stay small;
    // the pre-adds reach exactly -2^31.
    std::vector<i64> edge(n, -(i64{1} << room)), ones(n, 1);
    edge[0] = (i64{1} << room) - 1;
    std::vector<i64> got(2 * n - 1, 0), want(2 * n - 1, 0);
    EXPECT_NO_THROW(karatsuba_acc_g<i64>(edge, ones, got, levels)) << n;
    schoolbook_conv_g<i64>(edge, ones, want);
    EXPECT_EQ(got, want) << n;
    for (const i64 bad : {i64{1} << room, -(i64{1} << room) - 1, i64{1} << 62}) {
      auto b = edge;
      b[n - 1] = bad;
      EXPECT_THROW(karatsuba_acc_g<i64>(ones, b, got, levels), ContractViolation)
          << n << " " << bad;
      EXPECT_THROW(karatsuba_acc_g<i64>(b, ones, got, levels), ContractViolation)
          << n << " " << bad;
    }
  }
  EXPECT_EQ(karatsuba_splits(256, 8), 8u);
  EXPECT_EQ(karatsuba_splits(86, 32), 1u);
  EXPECT_EQ(karatsuba_splits(64, 4), 4u);
}

TEST(Ntt, SecretServesPublicsAtItsModulusOrBelow) {
  Xoshiro256StarStar rng(4242);
  NttMultiplier ntt;
  SchoolbookMultiplier sb;
  const auto s = SecretPoly::random(rng, 5);
  const auto a13 = Poly::random(rng, 13);
  const auto a10 = Poly::random(rng, 10);
  const auto a16 = Poly::random(rng, 16);
  const auto product = [&](const Poly& a, unsigned qbits, const Transformed& ts) {
    auto acc = ntt.make_accumulator();
    ntt.pointwise_accumulate(acc, ntt.prepare_public(a, qbits), ts);
    return ntt.finalize(acc, qbits);
  };

  // The prime count follows the public modulus: one up to qbits 13, two above.
  EXPECT_EQ(ntt.prepare_public(a10, 10).size(), kN / 2);
  EXPECT_EQ(ntt.prepare_public(a13, 13).size(), kN / 2);
  EXPECT_EQ(ntt.prepare_public(a16, 16).size(), kN);

  // A secret prepared at 13 serves publics at 13 and 10 (SaberPke::encrypt).
  const auto s13 = ntt.prepare_secret(s, 13);
  EXPECT_EQ(product(a13, 13, s13), sb.multiply_secret(a13, s, 13));
  EXPECT_EQ(product(a10, 10, s13), sb.multiply_secret(a10, s, 10));
  // A secret prepared at 16 serves a public at 10 with its p1 half.
  const auto s16 = ntt.prepare_secret(s, 16);
  ASSERT_EQ(s16.size(), kN);
  EXPECT_EQ(product(a10, 10, s16), sb.multiply_secret(a10, s, 10));
  EXPECT_EQ(product(a16, 16, s16), sb.multiply_secret(a16, s, 16));
  // A one-prime secret cannot serve a two-prime public.
  EXPECT_THROW(product(a16, 16, s13), ContractViolation);
}

TEST(Ntt, AccumulatorKeepsItsFirstPrimeCount) {
  Xoshiro256StarStar rng(4243);
  NttMultiplier ntt;
  const auto s = SecretPoly::random(rng, 4);
  const auto p13 = ntt.prepare_public(Poly::random(rng, 13), 13);
  const auto p16 = ntt.prepare_public(Poly::random(rng, 16), 16);
  const auto s16 = ntt.prepare_secret(s, 16);

  auto one = ntt.make_accumulator();
  ntt.pointwise_accumulate(one, p13, s16);
  EXPECT_EQ(one.size(), kN / 2);
  EXPECT_THROW(ntt.pointwise_accumulate(one, p16, s16), ContractViolation);

  auto two = ntt.make_accumulator();
  ntt.pointwise_accumulate(two, p16, s16);
  EXPECT_EQ(two.size(), kN);
  EXPECT_THROW(ntt.pointwise_accumulate(two, p13, s16), ContractViolation);

  // Images of any other length are rejected.
  auto bad = p13;
  bad.pop_back();
  auto acc = ntt.make_accumulator();
  EXPECT_THROW(ntt.pointwise_accumulate(acc, bad, s16), ContractViolation);
  EXPECT_THROW(ntt.finalize(bad, 13), ContractViolation);
}

TEST(Ntt, EmptyAccumulatorFinalizesToZero) {
  NttMultiplier ntt;
  const auto acc = ntt.make_accumulator();
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(ntt.finalize(acc, 13), Poly{});
  EXPECT_EQ(ntt.finalize_witness(acc), std::vector<i64>(kN, 0));
}

TEST(Modmath, PowAndInverse) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  const u64 x = 123456789;
  for (const u64 p : kNttPrimes) EXPECT_EQ(mulmod(x, invmod_prime(x, p), p), 1u);
}

TEST(Modmath, MillerRabin) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(7919));
  EXPECT_TRUE(is_prime_u64(0xFFFFFFFFFFFFFFC5ULL));  // largest 64-bit prime
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(561));      // Carmichael
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // strong pseudoprime to 2,3,5,7
}

TEST(Strategy, FactoryKnowsAllNames) {
  for (const auto name : multiplier_names()) {
    const auto m = make_multiplier(name);
    EXPECT_EQ(m->name(), name);
  }
  EXPECT_THROW(make_multiplier("fft"), ContractViolation);
  EXPECT_THROW(make_multiplier("karatsuba-x"), ContractViolation);
}

TEST(Strategy, UnknownNameErrorListsRegisteredMultipliers) {
  try {
    make_multiplier("fft");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown multiplier name: fft"), std::string::npos) << msg;
    for (const auto name : multiplier_names()) {
      EXPECT_NE(msg.find(std::string(name)), std::string::npos)
          << "missing " << name << " in: " << msg;
    }
  }
}

TEST(Strategy, PolyMulAdapter) {
  // from_poly_mul: one fn call per product, accumulated and masked like the
  // per-product sum; images of the wrong length and witnesses are rejected.
  SchoolbookMultiplier sb;
  int calls = 0;
  const auto m = from_poly_mul([&](const Poly& a, const SecretPoly& s, unsigned q) {
    ++calls;
    return sb.multiply_secret(a, s, q);
  });
  Xoshiro256StarStar rng(9);
  const auto a = Poly::random(rng, 13);
  const auto b = Poly::random(rng, 13);
  const auto s = SecretPoly::random(rng, 4);
  EXPECT_EQ(m->multiply_secret(a, s, 13), sb.multiply_secret(a, s, 13));

  const auto pa = m->prepare_public(a, 13);
  const auto pb = m->prepare_public(b, 13);
  const auto ps = m->prepare_secret(s, 13);
  ASSERT_EQ(pa.size(), kN + 1);
  ASSERT_EQ(ps.size(), kN);
  auto acc = m->make_accumulator();
  m->pointwise_accumulate(acc, pa, ps);
  m->pointwise_accumulate(acc, pb, ps);
  EXPECT_EQ(m->finalize(acc, 13),
            ring::add(sb.multiply_secret(a, s, 13), sb.multiply_secret(b, s, 13), 13));
  EXPECT_EQ(calls, 3);

  EXPECT_THROW(m->pointwise_accumulate(acc, ps, ps), ContractViolation);
  EXPECT_THROW(m->pointwise_accumulate(acc, pa, pa), ContractViolation);
  auto short_acc = acc;
  short_acc.pop_back();
  EXPECT_THROW(m->pointwise_accumulate(short_acc, pa, ps), ContractViolation);
  EXPECT_THROW(m->finalize(short_acc, 13), ContractViolation);
  EXPECT_THROW(m->finalize_witness(acc), ContractViolation);
  EXPECT_EQ(calls, 3);
  EXPECT_THROW(from_poly_mul(nullptr), ContractViolation);
}

// ------------------------------------------- exact-integer product witnesses

// finalize_witness() is the foundation of the algebraic result checkers in
// src/robust/: its reduce must agree with finalize() for every backend, and
// its length must be one of the two documented forms.
TEST(Witness, ReducesToFinalizeForEveryBackendAndModulus) {
  Xoshiro256StarStar rng(777);
  for (const auto name : {"schoolbook", "karatsuba-8", "toom3", "toom4", "ntt"}) {
    const auto algo = make_multiplier(name);
    for (const unsigned qbits : {10u, 13u}) {
      const auto a = Poly::random(rng, qbits);
      const auto s = SecretPoly::random(rng, 4);
      auto acc = algo->make_accumulator();
      algo->pointwise_accumulate(acc, algo->prepare_public(a, qbits),
                                 algo->prepare_secret(s, qbits));
      const auto w = algo->finalize_witness(acc);
      EXPECT_TRUE(w.size() == 2 * kN - 1 || w.size() == kN)
          << name << " witness length " << w.size();
      EXPECT_EQ(reduce_witness<kN>(std::span<const i64>(w), qbits),
                algo->finalize(acc, qbits))
          << name << " q=" << qbits;
    }
  }
}

TEST(Witness, AccumulatedMatvecRowWitnessIsExact) {
  // An l = 3 accumulated row, the shape Saber's matrix-vector product builds.
  Xoshiro256StarStar rng(778);
  SchoolbookMultiplier ref;
  for (const auto name : {"toom4", "ntt", "karatsuba-4"}) {
    const auto algo = make_multiplier(name);
    Poly expect{};
    auto acc = algo->make_accumulator();
    for (int j = 0; j < 3; ++j) {
      const auto a = Poly::random(rng, 13);
      const auto s = SecretPoly::random(rng, 4);
      algo->pointwise_accumulate(acc, algo->prepare_public(a, 13),
                                 algo->prepare_secret(s, 13));
      ring::add_inplace(expect, ref.multiply_secret(a, s, 13), 13);
    }
    const auto w = algo->finalize_witness(acc);
    EXPECT_EQ(reduce_witness<kN>(std::span<const i64>(w), 13), expect) << name;
  }
}

}  // namespace
}  // namespace saber::mult
