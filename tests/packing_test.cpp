// Tests for the bit-packing codecs (byte streams and 64-bit memory words).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ring/packing.hpp"

namespace saber::ring {
namespace {

class PackingRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(PackingRoundTrip, Bytes) {
  const unsigned bits = GetParam();
  Xoshiro256StarStar rng(bits);
  std::vector<u16> vals(kN);
  for (auto& v : vals) v = static_cast<u16>(rng.uniform(u64{1} << bits));
  const auto bytes = pack_bits(vals, bits);
  EXPECT_EQ(bytes.size(), bytes_for(kN, bits));
  std::vector<u16> back(kN);
  unpack_bits(bytes, bits, back);
  EXPECT_EQ(back, vals);
}

TEST_P(PackingRoundTrip, Words) {
  const unsigned bits = GetParam();
  Xoshiro256StarStar rng(bits + 100);
  std::vector<u16> vals(kN);
  for (auto& v : vals) v = static_cast<u16>(rng.uniform(u64{1} << bits));
  const auto words = pack_words(vals, bits);
  EXPECT_EQ(words.size(), words_for(kN, bits));
  std::vector<u16> back(kN);
  unpack_words(words, bits, back);
  EXPECT_EQ(back, vals);
}

TEST_P(PackingRoundTrip, ByteAndWordViewsAgree) {
  // The word stream must be the little-endian view of the byte stream —
  // that is what lets the hardware models and the serialized keys share one
  // layout.
  const unsigned bits = GetParam();
  Xoshiro256StarStar rng(bits + 200);
  std::vector<u16> vals(kN);
  for (auto& v : vals) v = static_cast<u16>(rng.uniform(u64{1} << bits));
  const auto bytes = pack_bits(vals, bits);
  const auto words = pack_words(vals, bits);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], static_cast<u8>(words[i / 8] >> (8 * (i % 8)))) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackingRoundTrip,
                         ::testing::Values(1u, 3u, 4u, 6u, 10u, 13u, 16u));

TEST(Packing, KnownLayout13Bit) {
  // Coefficients c0 = 1, c1 = 2: bit 0 set and bit 14 set.
  std::vector<u16> vals = {1, 2};
  const auto bytes = pack_bits(vals, 13);
  ASSERT_EQ(bytes.size(), 4u);  // ceil(26 / 8)
  EXPECT_EQ(bytes[0], 0x01);    // c0 bit0
  EXPECT_EQ(bytes[1], 0x40);    // c1 bit1 -> stream bit 14
  EXPECT_EQ(bytes[2], 0x00);
  EXPECT_EQ(bytes[3], 0x00);
}

TEST(Packing, FixedWidth13MatchesGeneric) {
  // A's unpacker (two u64 loads per 13-byte group) against the generic
  // codec, on random bytes: every bit of every group lands in one value.
  Xoshiro256StarStar rng(1313);
  for (int iter = 0; iter < 16; ++iter) {
    std::vector<u8> bytes(bytes_for(kN, 13));
    rng.fill(bytes);
    std::vector<u16> fixed(kN), generic(kN);
    unpack_bits13(bytes, fixed);
    unpack_bits(bytes, 13, generic);
    EXPECT_EQ(fixed, generic) << iter;
  }
  std::vector<u16> seven(7);
  EXPECT_THROW(unpack_bits13(std::vector<u8>(13), seven), ContractViolation);
  std::vector<u16> eight(8);
  EXPECT_THROW(unpack_bits13(std::vector<u8>(12), eight), ContractViolation);
}

TEST(Packing, RejectsOutOfRangeValues) {
  std::vector<u16> vals = {8};  // needs 4 bits
  EXPECT_THROW(pack_bits(vals, 3), ContractViolation);
  EXPECT_THROW(pack_words(vals, 3), ContractViolation);
}

TEST(Packing, RejectsShortInput) {
  std::vector<u8> data(2);
  std::vector<u16> out(3);
  EXPECT_THROW(unpack_bits(data, 13, out), ContractViolation);
}

TEST(Packing, PolyConvenienceRoundTrip) {
  Xoshiro256StarStar rng(5);
  const auto p = Poly::random(rng, 10);
  const auto bytes = pack_poly(p, 10);
  EXPECT_EQ(bytes.size(), 320u);  // Saber's b polynomial
  EXPECT_EQ(unpack_poly<kN>(bytes, 10), p);
}

TEST(Packing, SecretWordsRoundTrip) {
  Xoshiro256StarStar rng(6);
  for (unsigned bound : {4u, 5u}) {
    const auto s = SecretPoly::random(rng, bound);
    const auto words = pack_secret_words(s, 4);
    // Saber: 256 coefficients * 4 bits = 16 words of 64 bits (§2.2).
    EXPECT_EQ(words.size(), 16u);
    if (bound <= 4) {  // 4-bit two's complement holds [-8, 7]
      EXPECT_EQ(unpack_secret_words<kN>(words, 4), s);
    }
  }
}

TEST(Packing, SecretWordsSixteenCoefficientsPerWord) {
  SecretPoly s{};
  s[0] = 1;
  s[15] = -1;
  s[16] = 2;
  const auto words = pack_secret_words(s, 4);
  EXPECT_EQ(words[0] & 0xf, 1u);
  EXPECT_EQ((words[0] >> 60) & 0xf, 0xfu);  // -1 in 4-bit two's complement
  EXPECT_EQ(words[1] & 0xf, 2u);
}

TEST(Packing, PublicPolyOccupies52Words) {
  // 256 coefficients x 13 bits = 3328 bits = 52 words: the paper's loading
  // arithmetic (thirteen 64-bit blocks per 64 coefficients) depends on this.
  EXPECT_EQ(words_for(256, 13), 52u);
  EXPECT_EQ(words_for(64, 13), 13u);
}

}  // namespace
}  // namespace saber::ring
