#include "ring/packing.hpp"

#include "common/check.hpp"

namespace saber::ring {

std::vector<u8> pack_bits(std::span<const u16> values, unsigned bits) {
  return pack_bits_g(values, bits);
}

void unpack_bits(std::span<const u8> data, unsigned bits, std::span<u16> values) {
  unpack_bits_g(data, bits, values);
}

void unpack_bits13(std::span<const u8> data, std::span<u16> values) {
  SABER_REQUIRE(values.size() % 8 == 0, "unpack_bits13 takes whole groups of 8");
  SABER_REQUIRE(data.size() * 8 >= values.size() * 13, "input too short");
  constexpr u64 kMask = (u64{1} << 13) - 1;
  for (std::size_t g = 0; g < values.size() / 8; ++g) {
    const u64 lo = load_le64(data.data() + 13 * g);      // stream bits 0..63
    const u64 hi = load_le64(data.data() + 13 * g + 5);  // stream bits 40..103
    u16* v = values.data() + 8 * g;
    v[0] = static_cast<u16>(lo & kMask);
    v[1] = static_cast<u16>((lo >> 13) & kMask);
    v[2] = static_cast<u16>((lo >> 26) & kMask);
    v[3] = static_cast<u16>((lo >> 39) & kMask);
    v[4] = static_cast<u16>((hi >> 12) & kMask);
    v[5] = static_cast<u16>((hi >> 25) & kMask);
    v[6] = static_cast<u16>((hi >> 38) & kMask);
    v[7] = static_cast<u16>(hi >> 51);
  }
}

std::vector<u64> pack_words(std::span<const u16> values, unsigned bits) {
  SABER_REQUIRE(bits >= 1 && bits <= 16, "bit width out of range");
  std::vector<u64> out(words_for(values.size(), bits), 0);
  std::size_t bitpos = 0;
  for (u16 v : values) {
    SABER_REQUIRE(v <= mask64(bits), "value exceeds bit width");
    const std::size_t word = bitpos / 64;
    const unsigned off = static_cast<unsigned>(bitpos % 64);
    out[word] |= static_cast<u64>(v) << off;
    if (off + bits > 64) {
      out[word + 1] |= static_cast<u64>(v) >> (64 - off);
    }
    bitpos += bits;
  }
  return out;
}

void unpack_words(std::span<const u64> words, unsigned bits, std::span<u16> values) {
  SABER_REQUIRE(bits >= 1 && bits <= 16, "bit width out of range");
  SABER_REQUIRE(words.size() * 64 >= values.size() * bits, "input too short");
  std::size_t bitpos = 0;
  for (auto& v : values) {
    const std::size_t word = bitpos / 64;
    const unsigned off = static_cast<unsigned>(bitpos % 64);
    u64 x = words[word] >> off;
    if (off + bits > 64) {
      x |= words[word + 1] << (64 - off);
    }
    v = static_cast<u16>(low_bits(x, bits));
    bitpos += bits;
  }
}

}  // namespace saber::ring
