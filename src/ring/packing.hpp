// Bit-packing codecs.
//
// Saber serializes polynomials by packing k-bit coefficients LSB-first into a
// little-endian bit stream (the reference implementation's BS2POL/POL2BS
// family). The hardware models additionally view the same streams as 64-bit
// memory words, matching the paper's 64-bit data bus (§2.2).
//
// The byte-stream codecs are templated over the word type and branch-free in
// the data: secret keys pass through pack_bits_g/unpack_bits_g, so a
// value-dependent branch here would be a real timing leak (and is exactly
// what the original `if (bit) out |= ...` formulation was). The 64-bit word
// codecs serve the hardware bus models and stay plain.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "ct/tainted.hpp"
#include "ring/poly.hpp"

namespace saber::ring {

/// Words needed to store `count` coefficients of `bits` bits each.
constexpr std::size_t words_for(std::size_t count, unsigned bits) {
  return ceil_div<std::size_t>(count * bits, 64);
}

/// Bytes needed to store `count` coefficients of `bits` bits each.
constexpr std::size_t bytes_for(std::size_t count, unsigned bits) {
  return ceil_div<std::size_t>(count * bits, 8);
}

/// Pack values (each < 2^bits) LSB-first into a byte stream, one value at a
/// time: value i occupies stream bits [i*bits, (i+1)*bits), i.e. at most
/// three bytes starting at byte i*bits/8 (offset + width <= 7 + 16 bits).
/// Every byte after that first one is untouched by earlier values, so the
/// window's tail bytes are stored outright and only its head is OR-merged.
/// Window positions depend only on the index; the data never steers a branch.
template <typename W>
std::vector<ct::rebind_t<W, u8>> pack_bits_g(std::span<const W> values, unsigned bits) {
  using B = ct::rebind_t<W, u8>;
  SABER_REQUIRE(bits >= 1 && bits <= 16, "bit width out of range");
  const u64 mask = mask64(bits);
  std::vector<B> out(bytes_for(values.size(), bits), B{0});
  const std::size_t n = out.size();
  std::size_t bitpos = 0;
  for (const W& v : values) {
    if constexpr (!ct::is_tainted_v<W>) {
      SABER_REQUIRE(v <= mask, "value exceeds bit width");
    }
    const std::size_t byte = bitpos / 8;
    const auto x = ct::cast<u32>(v) << (bitpos % 8);
    out[byte] = ct::cast<u8>(out[byte] | x);
    if (byte + 1 < n) out[byte + 1] = ct::cast<u8>(x >> 8);
    if (byte + 2 < n) out[byte + 2] = ct::cast<u8>(x >> 16);
    bitpos += bits;
  }
  return out;
}

/// Inverse of pack_bits_g. `data` must hold at least values.size()*bits bits.
/// Each value is read through the same <= 3-byte window, clipped at the end
/// of `data` so the last value never reads past the input.
template <typename B, typename W>
void unpack_bits_g(std::span<const B> data, unsigned bits, std::span<W> values) {
  static_assert(ct::is_tainted_v<B> == ct::is_tainted_v<W>,
                "byte and value words must share a taint mode");
  SABER_REQUIRE(bits >= 1 && bits <= 16, "bit width out of range");
  SABER_REQUIRE(data.size() * 8 >= values.size() * bits, "input too short");
  const u32 mask = static_cast<u32>(mask64(bits));
  const std::size_t n = data.size();
  std::size_t bitpos = 0;
  for (auto& v : values) {
    const std::size_t byte = bitpos / 8;
    auto x = ct::cast<u32>(data[byte]);
    if (byte + 1 < n) x = x | (ct::cast<u32>(data[byte + 1]) << 8);
    if (byte + 2 < n) x = x | (ct::cast<u32>(data[byte + 2]) << 16);
    v = ct::cast<u16>((x >> (bitpos % 8)) & mask);
    bitpos += bits;
  }
}

/// Plain-word entry points (the original API).
std::vector<u8> pack_bits(std::span<const u16> values, unsigned bits);
void unpack_bits(std::span<const u8> data, unsigned bits, std::span<u16> values);

/// unpack_bits at the fixed width 13 (the public matrix A): 8 values from
/// each 13-byte group with two u64 loads, bytes 0..7 and 5..12. Plain words
/// only; `values.size()` must be a multiple of 8.
void unpack_bits13(std::span<const u8> data, std::span<u16> values);

/// Pack values LSB-first into little-endian 64-bit memory words (the layout
/// the multiplier architectures stream from BRAM).
std::vector<u64> pack_words(std::span<const u16> values, unsigned bits);

/// Inverse of pack_words.
void unpack_words(std::span<const u64> words, unsigned bits, std::span<u16> values);

/// Convenience: pack a polynomial's low `bits` bits per coefficient.
template <std::size_t N, typename C>
std::vector<ct::rebind_t<C, u8>> pack_poly(const PolyT<N, C>& p, unsigned bits) {
  std::array<C, N> masked{};
  for (std::size_t i = 0; i < N; ++i) {
    masked[i] = ct::cast<u16>(ct::low_bits_g(p[i], bits));
  }
  return pack_bits_g(std::span<const C>(masked), bits);
}

/// Convenience: unpack a polynomial (coefficients end up reduced mod 2^bits).
template <std::size_t N, typename B>
PolyT<N, ct::rebind_t<B, u16>> unpack_poly(std::span<const B> data, unsigned bits) {
  PolyT<N, ct::rebind_t<B, u16>> p;
  unpack_bits_g(data, bits, std::span<ct::rebind_t<B, u16>>(p.c));
  return p;
}

/// Plain-byte overload so callers can pass vectors/subspans directly (the
/// word-generic template above requires an exact std::span match to deduce).
template <std::size_t N>
PolyT<N> unpack_poly(std::span<const u8> data, unsigned bits) {
  return unpack_poly<N, u8>(data, bits);
}

/// Secret polynomials packed in the paper's 4-bit sign-magnitude-free layout:
/// the two's-complement low `bits` bits of each coefficient, sixteen 4-bit
/// coefficients per 64-bit word for Saber (§2.2: "we pack 16 coefficients of
/// a secret polynomial in a 64-bit memory-word").
template <std::size_t N>
std::vector<u64> pack_secret_words(const SecretPolyT<N>& s, unsigned bits) {
  std::vector<u16> vals(N);
  for (std::size_t i = 0; i < N; ++i) {
    vals[i] = static_cast<u16>(to_twos_complement(s[i], bits));
  }
  return pack_words(vals, bits);
}

template <std::size_t N>
SecretPolyT<N> unpack_secret_words(std::span<const u64> words, unsigned bits) {
  std::array<u16, N> vals{};
  unpack_words(words, bits, vals);
  SecretPolyT<N> s;
  for (std::size_t i = 0; i < N; ++i) {
    s[i] = static_cast<i8>(sign_extend(vals[i], bits));
  }
  return s;
}

}  // namespace saber::ring
