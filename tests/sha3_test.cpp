// Known-answer and behavioural tests for the Keccak/SHA-3/SHAKE stack.
// Digest vectors were generated with an independent implementation
// (CPython's hashlib, which wraps the Keccak reference code).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <new>
#include <numeric>
#include <ostream>
#include <random>
#include <string>
#include <type_traits>

#include "common/hex.hpp"
#include "sha3/sha3.hpp"

namespace saber::sha3 {
namespace {

std::vector<u8> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<u8> iota_bytes(std::size_t n) {
  std::vector<u8> v(n);
  std::iota(v.begin(), v.end(), static_cast<u8>(0));
  return v;
}

struct Kat {
  std::vector<u8> msg;
  const char* sha3_256;
  const char* sha3_512;
  const char* shake128_32;
  const char* shake256_64;
};

const Kat kKats[] = {
    {bytes_of(""),
     "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
     "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6"
     "15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26",
     "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26",
     "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
     "d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be"},
    {bytes_of("abc"),
     "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532",
     "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e"
     "10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0",
     "5881092dd818bf5cf8a3ddb793fbcba74097d5c526a6d35f97b83351940f2cc8",
     "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739"
     "d5a15bef186a5386c75744c0527e1faa9f8726e462a12a4feb06bd8801e751e4"},
    {bytes_of("The quick brown fox jumps over the lazy dog"),
     "69070dda01975c8c120c3aada1b282394e7f032fa9cf32f4cb2259a0897dfc04",
     "01dedd5de4ef14642445ba5f5b97c15e47b9ad931326e4b0727cd94cefc44fff"
     "23f07bf543139939b49128caf436dc1bdee54fcb24023a08d9403f9b4bf0d450",
     "f4202e3c5852f9182a0430fd8144f0a74b95e7417ecae17db0f8cfeed0e3e66e",
     "2f671343d9b2e1604dc9dcf0753e5fe15c7c64a0d283cbbf722d411a0e36f6ca"
     "1d01d1369a23539cd80f7c054b6e5daf9c962cad5b8ed5bd11998b40d5734442"},
    // 200 bytes: longer than every rate in use, so multi-block absorption
    // paths are exercised.
    {iota_bytes(200),
     "5f728f63bf5ee48c77f453c0490398fa645b8d4c4e56be9a41cfec344d6ca899",
     "ea5d05f19348dd589793354793a15f37a73b4c0bb4e750b9a00757dfce2f8b65"
     "a64191bb9b137de00feef6474cfd47abf7880efbc51614a5715df12cfe0caee3",
     "0c4234ca1e31801ae606f8b8d8e0665c66f42a21d601c2681858a92c79ad5d69",
     "4ee1ca03272b05d3bfb1e1c79a967f823b9fc5e4bb3987b1ba9e9cb5afb07a5e"
     "e3a07fbd457a94364964a841e7f466e5a022e21ab7f673c18ba98cdb1d5aecfa"},
};

class Sha3Kat : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha3Kat, Sha3_256) {
  const auto& k = kKats[GetParam()];
  EXPECT_EQ(to_hex(Sha3_256::hash(k.msg)), k.sha3_256);
}

TEST_P(Sha3Kat, Sha3_512) {
  const auto& k = kKats[GetParam()];
  EXPECT_EQ(to_hex(Sha3_512::hash(k.msg)), k.sha3_512);
}

TEST_P(Sha3Kat, Shake128) {
  const auto& k = kKats[GetParam()];
  EXPECT_EQ(to_hex(Shake128::hash(k.msg, 32)), k.shake128_32);
}

TEST_P(Sha3Kat, Shake256) {
  const auto& k = kKats[GetParam()];
  EXPECT_EQ(to_hex(Shake256::hash(k.msg, 64)), k.shake256_64);
}

INSTANTIATE_TEST_SUITE_P(AllVectors, Sha3Kat,
                         ::testing::Range<std::size_t>(0, std::size(kKats)));

TEST(Sha3, IncrementalMatchesOneShot) {
  const auto msg = iota_bytes(200);
  for (std::size_t split = 0; split <= msg.size(); split += 17) {
    Sha3_256 h;
    h.update(std::span(msg).first(split));
    h.update(std::span(msg).subspan(split));
    EXPECT_EQ(h.digest(), Sha3_256::hash(msg)) << "split=" << split;
  }
}

TEST(Shake, IncrementalSqueezeMatchesOneShot) {
  const auto msg = bytes_of("saber");
  const auto expect = Shake128::hash(msg, 200);
  // Long-squeeze KAT generated with hashlib.shake_128(b"saber").
  EXPECT_EQ(to_hex(expect).substr(0, 64),
            "75222fdbe7e7ec547d1fd8f249e658c736b7dcfb97332698ca0245328b5f47f2");
  Shake128 x;
  x.update(msg);
  std::vector<u8> got;
  // Squeeze in awkward chunk sizes crossing the 168-byte rate boundary.
  for (std::size_t chunk : {1u, 7u, 160u, 13u, 19u}) {
    auto part = x.squeeze_vec(chunk);
    got.insert(got.end(), part.begin(), part.end());
  }
  EXPECT_EQ(got, std::vector<u8>(expect.begin(), expect.begin() + 200));
}

TEST(Sponge, AbsorbAfterFinalizeRejected) {
  Sponge s(168, 0x1f);
  u8 out[8];
  s.squeeze(out);
  const u8 byte[1] = {0};
  EXPECT_THROW(s.absorb(byte), ContractViolation);
}

TEST(Sponge, ResetRestoresInitialState) {
  Shake128 a, b;
  const auto m = bytes_of("hello");
  a.update(m);
  auto first = a.squeeze_vec(32);
  Sponge s(168, 0x1f);
  s.absorb(m);
  u8 o1[32], o2[32];
  s.squeeze(o1);
  s.reset();
  s.absorb(m);
  s.squeeze(o2);
  EXPECT_TRUE(std::equal(std::begin(o1), std::end(o1), std::begin(o2)));
  EXPECT_TRUE(std::equal(std::begin(o1), std::end(o1), first.begin()));
}

TEST(ShakeDrbg, DeterministicStream) {
  const auto seed = bytes_of("seed material");
  ShakeDrbg d1(seed), d2(seed);
  std::vector<u8> a(100), b(50), c(50);
  d1.fill(a);
  d2.fill(b);
  d2.fill(c);
  b.insert(b.end(), c.begin(), c.end());
  EXPECT_EQ(a, b);  // stream does not depend on read granularity
}

// Property: avalanche — flipping any single input bit flips ~half of the
// digest bits. A weak permutation or a padding bug shows up as a skewed
// Hamming distance.
TEST(Sha3, AvalancheProperty) {
  const auto base = iota_bytes(64);
  const auto d0 = Sha3_256::hash(base);
  for (std::size_t bit : {0u, 7u, 255u, 511u}) {
    auto flipped = base;
    flipped[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    const auto d1 = Sha3_256::hash(flipped);
    unsigned dist = 0;
    for (std::size_t i = 0; i < d0.size(); ++i) {
      dist += static_cast<unsigned>(std::popcount(static_cast<unsigned>(d0[i] ^ d1[i])));
    }
    // 256 output bits: expect ~128, allow a generous statistical band.
    EXPECT_GT(dist, 80u) << "bit " << bit;
    EXPECT_LT(dist, 176u) << "bit " << bit;
  }
}

// Property: domain separation — SHA-3 and SHAKE of the same message differ,
// and SHAKE-128 != SHAKE-256 prefixes.
TEST(Sha3, DomainSeparation) {
  const auto msg = bytes_of("domain");
  const auto sha = Sha3_256::hash(msg);
  const auto shake = Shake256::hash(msg, 32);
  EXPECT_NE(std::vector<u8>(sha.begin(), sha.end()), shake);
  EXPECT_NE(Shake128::hash(msg, 32), Shake256::hash(msg, 32));
}

// Property: prefix consistency — a longer SHAKE output extends a shorter one.
TEST(Shake, OutputPrefixProperty) {
  const auto msg = bytes_of("prefix");
  const auto short_out = Shake128::hash(msg, 17);
  const auto long_out = Shake128::hash(msg, 500);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

// --- four-lane lockstep sponge --------------------------------------------

// Four distinct messages of one length: lane j is a SHAKE stream of its own.
SpongeX4::Lanes<std::vector<u8>> lane_inputs(std::size_t len) {
  SpongeX4::Lanes<std::vector<u8>> in;
  for (std::size_t j = 0; j < SpongeX4::kLanes; ++j) {
    const u8 tag[2] = {static_cast<u8>(j), static_cast<u8>(len)};
    in[j] = Shake128::hash(tag, len);
  }
  return in;
}

struct SpongeRate {
  std::size_t rate;
  u8 domain;
};

void PrintTo(const SpongeRate& r, std::ostream* os) {
  *os << "rate " << r.rate << ", domain " << static_cast<unsigned>(r.domain);
}

class SpongeX4Lanes : public ::testing::TestWithParam<SpongeRate> {};

TEST_P(SpongeX4Lanes, MatchesBasicSpongeLaneByLane) {
  const auto [rate, domain] = GetParam();
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{32}, rate - 1, rate,
        rate + 1, 3 * rate + 5}) {
    const auto in = lane_inputs(len);
    // Two squeeze calls, the first a whole number of blocks: the second must
    // continue the stream at the next block.
    const std::size_t first = 2 * rate;
    const std::size_t second = rate + 13;
    SpongeX4 x4(rate, domain);
    x4.absorb({in[0], in[1], in[2], in[3]});
    SpongeX4::Lanes<std::vector<u8>> a, b;
    for (auto& o : a) o.resize(first);
    for (auto& o : b) o.resize(second);
    x4.squeeze({a[0], a[1], a[2], a[3]});
    x4.squeeze({b[0], b[1], b[2], b[3]});
    for (std::size_t j = 0; j < SpongeX4::kLanes; ++j) {
      Sponge ref(rate, domain);
      ref.absorb(in[j]);
      std::vector<u8> expect(first + second);
      ref.squeeze(expect);
      a[j].insert(a[j].end(), b[j].begin(), b[j].end());
      EXPECT_EQ(a[j], expect) << "rate=" << rate << " len=" << len << " lane=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shake128Sha3_256Sha3_512, SpongeX4Lanes,
                         ::testing::Values(SpongeRate{168, 0x1f}, SpongeRate{136, 0x06},
                                           SpongeRate{72, 0x06}));

TEST_P(Sha3Kat, Sha3_256X4) {
  const auto& k = kKats[GetParam()];
  for (const auto& d : sha3_256_x4({k.msg, k.msg, k.msg, k.msg})) {
    EXPECT_EQ(to_hex(d), k.sha3_256);
  }
}

TEST_P(Sha3Kat, Sha3_512X4) {
  const auto& k = kKats[GetParam()];
  for (const auto& d : sha3_512_x4({k.msg, k.msg, k.msg, k.msg})) {
    EXPECT_EQ(to_hex(d), k.sha3_512);
  }
}

// sha3_512_x4 against four scalar sponges at SHA3-512's rate, around its
// one-block (72-byte) boundary: distinct inputs per lane, so a lane that
// reads or writes another lane's data shows.
TEST(SpongeX4, Sha3_512X4MatchesBasicSpongeLaneByLane) {
  constexpr std::size_t kRate = 200 - 2 * Sha3_512::kDigestBytes;
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, kRate - 1, kRate, kRate + 1,
                                3 * kRate + 5}) {
    const auto in = lane_inputs(len);
    const auto got = sha3_512_x4({in[0], in[1], in[2], in[3]});
    for (std::size_t j = 0; j < SpongeX4::kLanes; ++j) {
      Sponge ref(kRate, kSha3Domain);
      ref.absorb(in[j]);
      Sha3_512::Digest expect{};
      ref.squeeze(expect);
      EXPECT_EQ(got[j], expect) << "len=" << len << " lane=" << j;
    }
  }
}

TEST_P(Sha3Kat, Shake128X4) {
  const auto& k = kKats[GetParam()];
  SpongeX4::Lanes<std::array<u8, 32>> out{};
  shake128_x4({k.msg, k.msg, k.msg, k.msg}, {out[0], out[1], out[2], out[3]});
  for (const auto& o : out) EXPECT_EQ(to_hex(o), k.shake128_32);
}

TEST(SpongeX4, UnequalLaneLengthsRejected) {
  const std::vector<u8> a(3), b(4);
  SpongeX4 x4(168, 0x1f);
  EXPECT_THROW(x4.absorb({a, a, b, a}), ContractViolation);
}

TEST(Keccak, FourLanePermutationMatchesScalar) {
  KeccakStateT<u64x4> st4{};
  std::array<KeccakState, 4> st{};
  for (std::size_t w = 0; w < 25; ++w) {
    for (std::size_t j = 0; j < 4; ++j) {
      st[j][w] = 0x9E3779B97F4A7C15ULL * (w + 1) ^ (u64{j} << 56);
      st4[w].v[j] = st[j][w];
    }
  }
  keccak_f1600_x4(st4);
  for (std::size_t j = 0; j < 4; ++j) {
    keccak_f1600_g<u64>(st[j]);
    for (std::size_t w = 0; w < 25; ++w) EXPECT_EQ(st4[w].v[j], st[j][w]) << j << " " << w;
  }
}

// The two-lane word is instantiated here explicitly, so every build tests it,
// including builds whose SingleStreamLane is plain u64. Each lane carries its
// own random state and must match the u64 body.
TEST(Keccak, TwoLanePermutationMatchesScalar) {
  std::mt19937_64 rng(0x5EEDCAFEULL);
  for (int trial = 0; trial < 1000; ++trial) {
    KeccakStateT<u64x2> st2{};
    std::array<KeccakState, 2> st{};
    for (std::size_t w = 0; w < 25; ++w) {
      for (std::size_t j = 0; j < 2; ++j) {
        st[j][w] = rng();
        st2[w].v[j] = st[j][w];
      }
    }
    keccak_f1600_g<u64x2>(st2);
    for (std::size_t j = 0; j < 2; ++j) {
      keccak_f1600_g<u64>(st[j]);
      for (std::size_t w = 0; w < 25; ++w) {
        ASSERT_EQ(st2[w].v[j], st[j][w]) << "trial " << trial << " lane " << j << " word " << w;
      }
    }
  }
}

TEST(Keccak, TwoLaneZeroStatePermutation) {
  KeccakStateT<u64x2> st{};
  keccak_f1600_g<u64x2>(st);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(st[0].v[j], 0xF1258F7940E1DDE7ULL);
    EXPECT_EQ(st[1].v[j], 0x84D5CCF933C0478AULL);
  }
  keccak_f1600_g<u64x2>(st);
  for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(st[0].v[j], 0x2D5C954DF96ECB3CULL);
}

// The production sponge (over SingleStreamLane) and the audit's sponge over
// Tainted<u8> bytes (over Tainted<u64> lanes) hash alike, around one block
// and over several, for inputs and SHAKE outputs of those lengths.
TEST(Sponge, PlainAndTaintedBytesAgree) {
  using TB = ct::Tainted<u8>;
  const auto tainted = [](const std::vector<u8>& v) {
    std::vector<TB> t;
    for (const u8 b : v) t.emplace_back(b, true);
    return t;
  };
  const auto raw = [](std::span<const TB> t) {
    std::vector<u8> v;
    for (const TB& b : t) v.push_back(b.raw());
    return v;
  };
  const auto lengths = [](std::size_t rate) {
    return std::array<std::size_t, 5>{0, rate - 1, rate, rate + 1, 3 * rate};
  };
  for (const std::size_t len : lengths(136)) {
    const auto msg = iota_bytes(len);
    const auto d = Sha3_256::hash(msg);
    const auto dt = Sha3<32, TB>::hash(tainted(msg));
    EXPECT_EQ(std::vector<u8>(d.begin(), d.end()), raw(dt)) << "SHA3-256 len=" << len;
  }
  for (const std::size_t len : lengths(72)) {
    const auto msg = iota_bytes(len);
    const auto d = Sha3_512::hash(msg);
    const auto dt = Sha3<64, TB>::hash(tainted(msg));
    EXPECT_EQ(std::vector<u8>(d.begin(), d.end()), raw(dt)) << "SHA3-512 len=" << len;
  }
  for (const std::size_t len : lengths(kShake128Rate)) {
    const auto msg = iota_bytes(len);
    for (const std::size_t out : lengths(kShake128Rate)) {
      EXPECT_EQ(Shake128::hash(msg, out), raw(Shake<128, TB>::hash(tainted(msg), out)))
          << "SHAKE-128 len=" << len << " out=" << out;
    }
  }
}

// A sponge's state derives from its input, which may be secret: destroying
// it must leave the state's storage zeroed. The state is the first member
// of a standard-layout class, so it occupies the first bytes, as many as a
// Keccak state over the sponge's word holds (200, or 400 for a two-lane
// word).
TEST(Sponge, DestroyedSpongeStorageIsZero) {
  static_assert(std::is_standard_layout_v<Sponge>);
  constexpr std::size_t kStateBytes = sizeof(KeccakStateT<Sponge::Word>);
  static_assert(kStateBytes >= sizeof(KeccakState));
  alignas(Sponge) unsigned char storage[sizeof(Sponge)];
  auto* sponge = new (storage) Sponge(136, 0x06);
  const auto msg = bytes_of("secret-derived input");
  sponge->absorb(msg);
  u8 out[32];
  sponge->squeeze(out);
  sponge->~Sponge();
  EXPECT_TRUE(std::all_of(storage, storage + kStateBytes,
                          [](unsigned char c) { return c == 0; }));
}

TEST(SpongeX4, PaddedTailIsZeroAfterAbsorb) {
  // The four-lane sponge builds its last, padded block in the member right
  // after its state and wipes it as soon as the block is absorbed.
  static_assert(std::is_standard_layout_v<SpongeX4>);
  constexpr std::size_t kStateBytes = sizeof(KeccakStateT<u64x4>);
  static_assert(sizeof(SpongeX4) >= 2 * kStateBytes);
  const auto zero = [](unsigned char c) { return c == 0; };
  for (const std::size_t len : {std::size_t{5}, std::size_t{135}, std::size_t{200}}) {
    alignas(SpongeX4) unsigned char storage[sizeof(SpongeX4)];
    auto* sponge = new (storage) SpongeX4(136, 0x1F);
    const auto in = lane_inputs(len);
    sponge->absorb({in[0], in[1], in[2], in[3]});
    EXPECT_TRUE(std::all_of(storage + kStateBytes, storage + 2 * kStateBytes, zero)) << len;
    EXPECT_FALSE(std::all_of(storage, storage + kStateBytes, zero)) << len;
    sponge->~SpongeX4();
  }
}

// Permutation sanity: Keccak-f[1600] on the zero state has a known first lane
// (from the FIPS 202 reference test vectors).
TEST(Keccak, ZeroStatePermutation) {
  KeccakState st{};
  keccak_f1600(st);
  EXPECT_EQ(st[0], 0xF1258F7940E1DDE7ULL);
  EXPECT_EQ(st[1], 0x84D5CCF933C0478AULL);
  keccak_f1600(st);
  EXPECT_EQ(st[0], 0x2D5C954DF96ECB3CULL);
}

}  // namespace
}  // namespace saber::sha3
