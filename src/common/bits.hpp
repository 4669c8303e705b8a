// Bit-manipulation helpers shared by the arithmetic and hardware-model layers.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/check.hpp"

#if defined(__AVX2__) || defined(__SSE2__)
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

/// Sixteen u32 lanes, wrapped like i64x8: one row of an NTT residue image
/// (N = 256 = 16 rows x 16 lanes, mult::ntt_forward_g). Arithmetic is
/// lane-wise mod 2^32 and a u32 operand is broadcast. Loads and stores are
/// unaligned and move bytes, so a row may sit in storage of another type (an
/// NTT transform's i64 words). The lanes sit in parts of the widest vector
/// the target has: one zmm under AVX-512F, two ymm under AVX2, four xmm
/// otherwise. GCC lowers a 64-byte vector without AVX-512 through the stack,
/// lane by lane for shuffles (EXPERIMENTS.md E-ntt2).
struct u32x16 {
#if defined(__AVX512F__)
  static constexpr std::size_t kParts = 1;
#elif defined(__AVX2__)
  static constexpr std::size_t kParts = 2;
#else
  static constexpr std::size_t kParts = 4;
#endif
  static constexpr std::size_t kPartLanes = 16 / kParts;
  using Part = u32 __attribute__((vector_size(4 * kPartLanes)));
  std::array<Part, kParts> p;

  u32x16() = default;
  u32x16(const u32x16&) = default;
  // A part at a time, for the reason load gives.
  u32x16& operator=(const u32x16& o) {
    for (std::size_t k = 0; k < kParts; ++k) p[k] = o.p[k];
    return *this;
  }

  template <typename F>
  static u32x16 map(F f) {
    u32x16 r;
    for (std::size_t k = 0; k < kParts; ++k) r.p[k] = f(k);
    return r;
  }
#define SABER_U32X16_OP(op)                                             \
  friend u32x16 operator op(const u32x16& a, const u32x16& b) {         \
    return map([&](std::size_t k) { return Part(a.p[k] op b.p[k]); }); \
  }                                                                     \
  friend u32x16 operator op(const u32x16& a, u32 b) {                   \
    return map([&](std::size_t k) { return Part(a.p[k] op b); });      \
  }
  SABER_U32X16_OP(+)
  SABER_U32X16_OP(-)
  SABER_U32X16_OP(*)
  SABER_U32X16_OP(&)
#undef SABER_U32X16_OP
  friend u32x16 operator-(const u32x16& a) {
    return map([&](std::size_t k) { return Part(-a.p[k]); });
  }
  friend u32x16 operator>>(const u32x16& a, unsigned r) {
    return map([&](std::size_t k) { return Part(a.p[k] >> r); });
  }
  static u32x16 splat(u32 x) {
    return map([&](std::size_t) { return Part{} + x; });
  }
  // A part at a time: GCC copies a whole multi-part array in 16-byte pieces,
  // which a following ymm load cannot forward from.
  static u32x16 load(const void* src) {
    return map([&](std::size_t k) {
      Part x;
      std::memcpy(&x, static_cast<const char*>(src) + k * sizeof x, sizeof x);
      return x;
    });
  }
  void store(void* dst) const {
    for (std::size_t k = 0; k < kParts; ++k) {
      std::memcpy(static_cast<char*>(dst) + k * sizeof p[k], &p[k], sizeof p[k]);
    }
  }
};

#if defined(__AVX2__)
/// Lane-wise unsigned minimum: one vpminud per part. GCC keeps the generic
/// `a < b ? a : b` as a compare and a blend, so the build names the
/// instruction. Only targets that have it define min: SSE2 has no unsigned
/// compare, and its emulated one is slower than the callers' fallback
/// (mult::ntt_condadd_g, EXPERIMENTS.md E-ntt2).
inline u32x16 min(const u32x16& a, const u32x16& b) {
  using Part = u32x16::Part;
  return u32x16::map([&](std::size_t k) {
#if defined(__AVX512F__)
    // The zero-masking form for the reason mul_lo32 gives.
    return reinterpret_cast<Part>(_mm512_maskz_min_epu32(
        0xFFFF, reinterpret_cast<__m512i>(a.p[k]), reinterpret_cast<__m512i>(b.p[k])));
#else
    return reinterpret_cast<Part>(_mm256_min_epu32(reinterpret_cast<__m256i>(a.p[k]),
                                                   reinterpret_cast<__m256i>(b.p[k])));
#endif
  });
}
#endif

namespace detail {

/// The part whose lane l is f(l), built whole: GCC cannot store into one
/// lane of a vector in a constant expression.
template <typename F>
constexpr u32x16::Part part_of(F f) {
  return [&]<std::size_t... L>(std::index_sequence<L...>) {
    return u32x16::Part{static_cast<u32>(f(L))...};
  }(std::make_index_sequence<u32x16::kPartLanes>{});
}

/// How part o of permute<I>'s result reads a ++ b: a two-source shuffle of
/// parts src[0] and src[1] (parts of b follow those of a) by idx.
struct PermutePlan {
  std::size_t src[2];
  u32x16::Part idx;
};

template <std::array<u32, 16> I>
constexpr PermutePlan permute_plan(std::size_t o) {
  constexpr std::size_t n = u32x16::kPartLanes;
  PermutePlan pl{{I[o * n] / n, I[o * n] / n}, {}};
  for (std::size_t l = 0; l < n; ++l) {
    const std::size_t s = I[o * n + l] / n;
    if (pl.src[1] == pl.src[0]) pl.src[1] = s;
    SABER_REQUIRE(s == pl.src[0] || s == pl.src[1], "a permute part reads three parts");
  }
  pl.idx = part_of([&](std::size_t l) {
    return (I[o * n + l] / n == pl.src[0] ? 0 : n) + I[o * n + l] % n;
  });
  return pl;
}

template <std::array<u32, 16> I, std::size_t O>
u32x16::Part permute_part(const u32x16& a, const u32x16& b) {
  constexpr PermutePlan pl = permute_plan<I>(O);
  const auto part = [&](std::size_t s) -> const u32x16::Part& {
    return s < u32x16::kParts ? a.p[s] : b.p[s - u32x16::kParts];
  };
  return __builtin_shuffle(part(pl.src[0]), part(pl.src[1]), pl.idx);
}

}  // namespace detail

/// The permute index whose lane l is f(l).
constexpr std::array<u32, 16> lane_index(u32 (*f)(u32)) {
  std::array<u32, 16> r{};
  for (u32 l = 0; l < 16; ++l) r[l] = f(l);
  return r;
}

/// Two-source lane permute: lane l of the result is lane I[l] of the 32
/// lanes a ++ b. One vpermt2d under AVX-512; narrower parts each take their
/// lanes from at most two parts of a ++ b, one two-source shuffle apiece.
template <std::array<u32, 16> I>
u32x16 permute(const u32x16& a, const u32x16& b) {
  u32x16 r;
  [&]<std::size_t... O>(std::index_sequence<O...>) {
    ((r.p[O] = detail::permute_part<I, O>(a, b)), ...);
  }(std::make_index_sequence<u32x16::kParts>{});
  return r;
}

namespace detail {

/// The u64 products of the even lanes' u32 values, as pairs of u32 lanes
/// (low half first): one vpmuludq.
inline u32x16::Part mul_even32(const u32x16::Part& a, const u32x16::Part& b) {
  using Part = u32x16::Part;
#if defined(__AVX512F__)
  // The zero-masking form for the reason mul_lo32 gives.
  return reinterpret_cast<Part>(_mm512_maskz_mul_epu32(0xFF, reinterpret_cast<__m512i>(a),
                                                       reinterpret_cast<__m512i>(b)));
#elif defined(__AVX2__)
  return reinterpret_cast<Part>(
      _mm256_mul_epu32(reinterpret_cast<__m256i>(a), reinterpret_cast<__m256i>(b)));
#elif defined(__SSE2__)
  return reinterpret_cast<Part>(
      _mm_mul_epu32(reinterpret_cast<__m128i>(a), reinterpret_cast<__m128i>(b)));
#else
  Part r{};
  for (std::size_t i = 0; i < u32x16::kPartLanes; i += 2) {
    const u64 x = u64{a[i]} * b[i];
    r[i] = static_cast<u32>(x);
    r[i + 1] = static_cast<u32>(x >> 32);
  }
  return r;
#endif
}

/// Lane 2j + 1 copied down into lane 2j.
inline u32x16::Part odd_down(const u32x16::Part& a) {
  constexpr u32x16::Part idx = part_of([](std::size_t l) { return l | 1; });
  return __builtin_shuffle(a, idx);
}

/// High halves of the lane products of a and b, given b's odd_down.
inline u32x16::Part mul_hi32_part(const u32x16::Part& a, const u32x16::Part& b,
                                  const u32x16::Part& b_odd) {
  // Lane 2j <- the high half of even product j, lane 2j + 1 <- odd product j's.
  constexpr std::size_t n = u32x16::kPartLanes;
  constexpr u32x16::Part high =
      part_of([](std::size_t l) { return (l | 1) + (l & 1) * n; });
  return __builtin_shuffle(mul_even32(a, b), mul_even32(odd_down(a), b_odd), high);
}

}  // namespace detail

/// High half of each lane's 64-bit product: per part, one vpmuludq of the
/// even lanes, one of the odd lanes shuffled down, and one shuffle picking
/// the high halves.
inline u32x16 mul_hi32(const u32x16& a, const u32x16& b) {
  return u32x16::map([&](std::size_t k) {
    return detail::mul_hi32_part(a.p[k], b.p[k], detail::odd_down(b.p[k]));
  });
}

/// The same by a broadcast u32, which is its own odd-lane shuffle.
inline u32x16 mul_hi32(const u32x16& a, u32 b) {
  const u32x16::Part bb = u32x16::Part{} + b;
  return u32x16::map(
      [&](std::size_t k) { return detail::mul_hi32_part(a.p[k], bb, bb); });
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
