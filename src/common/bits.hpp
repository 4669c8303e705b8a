// Bit-manipulation helpers shared by the arithmetic and hardware-model layers.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/check.hpp"

#ifdef __AVX512F__
#include <immintrin.h>
#endif

namespace saber {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// N u64 lanes in one GCC vector word of 8N bytes. Four lanes (u64x4) are
/// the lane type of the four-way Keccak (sha3::SpongeX4), element j belonging
/// to stream j; two lanes (u64x2) are the single-stream Keccak word of AVX-512
/// builds (sha3::SingleStreamLane). The vector sits in a struct whose
/// operators take const references, because a bare vector_size(32) parameter
/// or return value changes the psABI between AVX and non-AVX builds (GCC's
/// -Wpsabi).
template <std::size_t N>
struct u64xN {
  u64 __attribute__((vector_size(8 * N))) v;

  friend u64xN operator^(const u64xN& a, const u64xN& b) { return {a.v ^ b.v}; }
  friend u64xN operator&(const u64xN& a, const u64xN& b) { return {a.v & b.v}; }
  friend u64xN operator|(const u64xN& a, const u64xN& b) { return {a.v | b.v}; }
  friend u64xN operator~(const u64xN& a) { return {~a.v}; }
  friend u64xN operator<<(const u64xN& a, unsigned r) { return {a.v << r}; }
  friend u64xN operator>>(const u64xN& a, unsigned r) { return {a.v >> r}; }
  u64xN& operator^=(const u64xN& b) {
    v ^= b.v;
    return *this;
  }
  /// Xor the same u64 into every lane (Keccak's iota step).
  u64xN& operator^=(u64 b) {
    v ^= b;
    return *this;
  }
};

using u64x2 = u64xN<2>;
using u64x4 = u64xN<4>;

/// Is W one of the u64xN vector words?
template <typename W>
inline constexpr bool is_u64xN_v = false;
template <std::size_t N>
inline constexpr bool is_u64xN_v<u64xN<N>> = true;

/// Eight i64 lanes in one GCC vector word, wrapped like u64xN: the lane word
/// of the lane-sliced schoolbook (mult::lane_conv_acc_g), lane j carrying
/// product j. Loads and stores are unaligned.
struct i64x8 {
  using Lanes = i64 __attribute__((vector_size(64)));
  Lanes v;

  friend i64x8 operator+(const i64x8& a, const i64x8& b) { return {a.v + b.v}; }
  i64x8& operator+=(const i64x8& b) {
    v += b.v;
    return *this;
  }
  static i64x8 load(const i64* p) {
    i64x8 w;
    std::memcpy(&w.v, p, sizeof w.v);
    return w;
  }
  /// Eight i32 at p, sign-extended (vpmovsxdq). Reads bytes, so p may point
  /// into storage of another type (Toom-Cook's i32 lanes packed two to an
  /// i64 word).
  static i64x8 widen(const i32* p) {
    i32 __attribute__((vector_size(32))) narrow;
    std::memcpy(&narrow, p, sizeof narrow);
    return {__builtin_convertvector(narrow, Lanes)};
  }
  void store(i64* p) const { std::memcpy(p, &v, sizeof v); }
};

/// Signed widening product of each lane's low 32 bits (vpmuldq's
/// semantics). Under AVX-512F this is one vpmuldq: a plain vector `*` would
/// compile to the slower full 64-bit vpmullq. Every other build sign-extends
/// the low halves with shifts and multiplies in full.
inline i64x8 mul_lo32(const i64x8& a, const i64x8& b) {
#ifdef __AVX512F__
  // The all-lanes zero-masking form: GCC 12's _mm512_mul_epi32 passes an
  // "undefined" register that -Wmaybe-uninitialized flags; both compile
  // to one vpmuldq.
  return {reinterpret_cast<i64x8::Lanes>(_mm512_maskz_mul_epi32(
      0xFF, reinterpret_cast<__m512i>(a.v), reinterpret_cast<__m512i>(b.v)))};
#else
  // Sign-extend each low half in place: the full 64-bit product of two
  // sign-extended halves is the widening product.
  return {((a.v << 32) >> 32) * ((b.v << 32) >> 32)};
#endif
}

/// The little-endian u64 at p[0..8): one unaligned load on little-endian
/// hosts.
inline u64 load_le64(const u8* p) {
  u64 x = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&x, p, sizeof x);
  } else {
    for (unsigned k = 0; k < 8; ++k) x |= u64{p[k]} << (8 * k);
  }
  return x;
}

/// Store x little-endian at p[0..8).
inline void store_le64(u8* p, u64 x) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &x, sizeof x);
  } else {
    for (unsigned k = 0; k < 8; ++k) p[k] = static_cast<u8>(x >> (8 * k));
  }
}

/// Mask with the low `bits` bits set. `bits` must be <= 64.
constexpr u64 mask64(unsigned bits) {
  SABER_REQUIRE(bits <= 64, "mask width out of range");
  return bits == 64 ? ~u64{0} : (u64{1} << bits) - 1;
}

/// Reduce `v` modulo 2^bits.
constexpr u64 low_bits(u64 v, unsigned bits) { return v & mask64(bits); }

/// Extract bit field v[hi:lo] (inclusive, Verilog-style). hi < 64, hi >= lo.
constexpr u64 bit_field(u64 v, unsigned hi, unsigned lo) {
  SABER_REQUIRE(hi < 64 && hi >= lo, "bad bit field");
  return (v >> lo) & mask64(hi - lo + 1);
}

/// Single bit v[idx] as 0/1.
constexpr unsigned bit_at(u64 v, unsigned idx) {
  SABER_REQUIRE(idx < 64, "bit index out of range");
  return static_cast<unsigned>((v >> idx) & 1u);
}

/// Sign-extend the low `bits` bits of `v` to a signed 64-bit value.
constexpr i64 sign_extend(u64 v, unsigned bits) {
  SABER_REQUIRE(bits >= 1 && bits <= 64, "sign_extend width out of range");
  if (bits == 64) return static_cast<i64>(v);
  const u64 m = u64{1} << (bits - 1);
  const u64 x = v & mask64(bits);
  return static_cast<i64>((x ^ m)) - static_cast<i64>(m);
}

/// Two's-complement encoding of a signed value into `bits` bits.
constexpr u64 to_twos_complement(i64 v, unsigned bits) {
  SABER_REQUIRE(bits >= 1 && bits <= 64, "width out of range");
  return static_cast<u64>(v) & mask64(bits);
}

/// Number of bits needed to represent `v` (0 -> 0).
constexpr unsigned bit_length(u64 v) { return static_cast<unsigned>(std::bit_width(v)); }

/// Ceiling division for unsigned integral types.
template <typename T>
  requires std::is_unsigned_v<T>
constexpr T ceil_div(T a, T b) {
  SABER_REQUIRE(b != 0, "division by zero");
  return static_cast<T>((a + b - 1) / b);
}

/// Hamming weight of the low `bits` bits.
constexpr unsigned popcount_low(u64 v, unsigned bits) {
  return static_cast<unsigned>(std::popcount(low_bits(v, bits)));
}

/// Parity (XOR of all bits) of `v`.
constexpr unsigned parity(u64 v) { return static_cast<unsigned>(std::popcount(v)) & 1u; }

}  // namespace saber
