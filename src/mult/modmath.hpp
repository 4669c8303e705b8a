// Modular arithmetic over word-sized primes, used by the NTT multiplier.
//
// The u128-based helpers divide and run only on PUBLIC data (table
// construction, primality testing). The word-generic ntt_*_g arithmetic mod a
// 31-bit prime works on secret-dependent u32 residues, in production (plain
// u32) and under the ct_audit taint analysis (ct::Tainted<u32>), so it never
// branches, divides or indexes on data: every reduction ends in a sign-mask
// conditional subtract on u32 lanes, which also keeps the loops vectorizable.
#pragma once

#include <array>
#include <cstddef>
#include <type_traits>

#include "common/bits.hpp"
#include "ct/tainted.hpp"

namespace saber::mult {

__extension__ using u128 = unsigned __int128;

/// (a * b) mod m for m < 2^63. PUBLIC data only (hardware division).
constexpr u64 mulmod(u64 a, u64 b, u64 m) {
  return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

constexpr u64 addmod(u64 a, u64 b, u64 m) {
  const u64 s = a + b;
  return s >= m ? s - m : s;
}

constexpr u64 submod(u64 a, u64 b, u64 m) { return a >= b ? a - b : a + m - b; }

/// a^e mod m by square-and-multiply. PUBLIC data only.
u64 powmod(u64 a, u64 e, u64 m);

/// Modular inverse modulo a prime (via Fermat). PUBLIC data only.
u64 invmod_prime(u64 a, u64 p);

/// Deterministic Miller-Rabin, valid for all 64-bit inputs.
bool is_prime_u64(u64 n);

// --- division-free arithmetic mod a prime p < 2^31 on u32 lanes --------------
//
// Each helper takes a scalar word (u32, ct::Tainted<u32>) or a 16-lane row
// word (u32x16, Row16): the NTT runs the same helpers over whole rows.

/// High half of the 64-bit product of two u32 scalar words.
template <typename W, typename B>
  requires std::is_arithmetic_v<ct::raw_t<W>>
constexpr W mul_hi32(const W& a, const B& b) {
  return ct::cast<u32>((ct::cast<u64>(a) * ct::cast<u64>(b)) >> 32);
}

/// Sixteen lanes of a scalar word, computed one lane at a time: the NTT row
/// of every word but plain u32 (the audit's ct::Tainted<u32>), and the
/// lane-by-lane reference for u32x16.
template <typename E>
struct Row16 {
  std::array<E, 16> v;

  template <typename F>
  static Row16 map(F f) {
    Row16 r;
    for (std::size_t i = 0; i < 16; ++i) r.v[i] = f(i);
    return r;
  }
#define SABER_ROW16_OP(op)                                                            \
  friend Row16 operator op(const Row16& a, const Row16& b) {                          \
    return map([&](std::size_t i) { return E(a.v[i] op b.v[i]); });                   \
  }                                                                                   \
  friend Row16 operator op(const Row16& a, u32 b) {                                   \
    return map([&](std::size_t i) { return E(a.v[i] op b); });                        \
  }
  SABER_ROW16_OP(+)
  SABER_ROW16_OP(-)
  SABER_ROW16_OP(*)
  SABER_ROW16_OP(&)
#undef SABER_ROW16_OP
  friend Row16 operator-(const Row16& a) {
    return map([&](std::size_t i) { return E(-a.v[i]); });
  }
  friend Row16 operator>>(const Row16& a, unsigned r) {
    return map([&](std::size_t i) { return E(a.v[i] >> r); });
  }
  static Row16 splat(u32 x) {
    return map([&](std::size_t) { return E(x); });
  }
  template <typename P>
  static Row16 load(const P* p) {
    return map([&](std::size_t i) { return E(p[i]); });
  }
  void store(E* p) const {
    for (std::size_t i = 0; i < 16; ++i) p[i] = v[i];
  }
  friend Row16 mul_hi32(const Row16& a, const Row16& b) {
    return map([&](std::size_t i) { return mul_hi32(a.v[i], b.v[i]); });
  }
  friend Row16 mul_hi32(const Row16& a, u32 b) {
    return map([&](std::size_t i) { return mul_hi32(a.v[i], b); });
  }
  template <std::array<u32, 16> I>
  friend Row16 permute(const Row16& a, const Row16& b) {
    return map([&](std::size_t i) { return I[i] < 16 ? a.v[I[i]] : b.v[I[i] - 16]; });
  }
};

/// The NTT row of a residue word: one u32x16 vector for plain u32, a Row16
/// of the word otherwise.
template <typename W>
struct ntt_row {
  using type = Row16<W>;
};
template <>
struct ntt_row<u32> {
  using type = u32x16;
};
template <typename W>
using ntt_row_t = typename ntt_row<W>::type;

/// Conditional add: d + p if d is negative as an i32, else d. Reduces any
/// wrapped difference d in (-p, p) into [0, p). The sign bit, negated into a
/// mask, selects p.
template <typename W>
constexpr W ntt_condadd_g(const W& d, u32 p) {
  return d + (-(d >> 31) & p);
}

/// Conditional subtract: x - p if x >= p, else x. Requires x < 2p.
template <typename W>
constexpr W ntt_condsub_g(const W& x, u32 p) {
  return ntt_condadd_g(W(x - p), p);
}

#if defined(__AVX2__)
/// The same two on a vector row, where the target has an unsigned minimum
/// (common/bits.hpp min): an add and a vpminud each, which run a transform
/// about 20 % faster than the sign mask (EXPERIMENTS.md E-ntt2). d + p wraps
/// below d exactly when d is negative as an i32, and x - p wraps above x
/// exactly when x < p, so the minimum picks the reduced lane.
inline u32x16 ntt_condadd_g(const u32x16& d, u32 p) { return min(d, d + p); }
inline u32x16 ntt_condsub_g(const u32x16& x, u32 p) { return min(x, x - p); }
#endif

/// (a + b) mod p for a, b < p.
template <typename W>
constexpr W ntt_addmod_g(const W& a, const W& b, u32 p) {
  return ntt_condsub_g(W(a + b), p);
}

/// (a - b) mod p for a, b < p.
template <typename W>
constexpr W ntt_submod_g(const W& a, const W& b, u32 p) {
  return ntt_condadd_g(W(a - b), p);
}

/// A PUBLIC multiplier w < p with its Shoup companion floor(w * 2^32 / p).
struct Twiddle {
  u32 w = 0, shoup = 0;
};

/// Divides, so it only ever runs on public constants (the NTT tables).
constexpr Twiddle ntt_twiddle(u32 w, u32 p) {
  return {w, static_cast<u32>((u64{w} << 32) / p)};
}

/// (a * w) mod p for any a < 2^32 (Shoup's method), the multiplier w and its
/// companion w_shoup given as words of W (per lane) or as u32 (broadcast).
/// q = hi32(a * w_shoup) under-estimates floor(a*w/p) by at most one, so
/// a*w - q*p lies in [0, 2p) and is exact in wrapping u32 arithmetic; one
/// conditional subtract finishes.
template <typename W, typename T>
constexpr W ntt_mulmod_shoup_g(const W& a, const T& w, const T& w_shoup, u32 p) {
  return ntt_condsub_g(W(a * w - mul_hi32(a, w_shoup) * p), p);
}

template <typename W>
constexpr W ntt_mulmod_shoup_g(const W& a, Twiddle w, u32 p) {
  return ntt_mulmod_shoup_g(a, w.w, w.shoup, p);
}

/// Montgomery product a * b * 2^-32 mod p for a, b < p, with p_neg_inv =
/// -p^-1 mod 2^32. m = lo32(ab) * p^-1 gives lo32(m*p) = lo32(ab), so
/// (ab - m*p) / 2^32 = hi32(ab) - hi32(m*p) exactly, which lies in (-p, p):
/// one conditional add reduces it.
template <typename W>
constexpr W ntt_mulmod_mont_g(const W& a, const W& b, u32 p, u32 p_neg_inv) {
  const W m = W(a * b) * (0u - p_neg_inv);
  return ntt_condadd_g(W(mul_hi32(a, b) - mul_hi32(m, p)), p);
}

/// Cooley-Tukey butterfly of the forward NTT: (x, y) -> (x + w*y, x - w*y)
/// mod p, w with its Shoup companion.
template <typename W, typename T>
constexpr void ntt_butterfly_g(W& x, W& y, const T& w, const T& w_shoup, u32 p) {
  const W t = ntt_mulmod_shoup_g(y, w, w_shoup, p);
  y = ntt_submod_g(x, t, p);
  x = ntt_addmod_g(x, t, p);
}

/// Gentleman-Sande butterfly of the inverse NTT: (x, y) -> (x + y, (x - y)*w)
/// mod p.
template <typename W, typename T>
constexpr void ntt_butterfly_inv_g(W& x, W& y, const T& w, const T& w_shoup, u32 p) {
  const W d = ntt_submod_g(x, y, p);
  x = ntt_addmod_g(x, y, p);
  y = ntt_mulmod_shoup_g(d, w, w_shoup, p);
}

/// Residue in [0, p) of a centered value c with |c| < p, given as the i32
/// analog of any signed word. Branch-free: the u32 wrap of a negative c is
/// c + 2^32, and adding the sign-masked p leaves c + p after the wrap.
template <typename I>
constexpr ct::rebind_t<I, u32> ntt_to_residue_g(const I& c, u32 p) {
  const auto x = ct::cast<i32>(c);
  return ct::cast<u32>(ct::cast<u32>(x) + (ct::cast<u32>(x >> 31) & p));
}

}  // namespace saber::mult
