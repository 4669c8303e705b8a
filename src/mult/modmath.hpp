// Modular arithmetic over word-sized primes, used by the NTT multiplier.
//
// The u128-based helpers divide and run only on PUBLIC data (table
// construction, primality testing). The word-generic ntt_*_g arithmetic mod a
// 31-bit prime works on secret-dependent u32 residues, in production (plain
// u32) and under the ct_audit taint analysis (ct::Tainted<u32>), so it never
// branches, divides or indexes on data: every reduction ends in a sign-mask
// conditional subtract on u32 lanes, which also keeps the loops vectorizable.
#pragma once

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

/// Conditional subtract: x - p if x >= p, else x. Requires x < 2p. The
/// borrow's sign bit (as an i32) selects whether p is added back.
template <typename W>
constexpr W ntt_condsub_g(const W& x, u32 p) {
  const auto d = ct::cast<u32>(x - p);
  return ct::cast<u32>(d + (ct::cast<u32>(ct::cast<i32>(d) >> 31) & p));
}

/// (a + b) mod p for a, b < p.
template <typename W>
constexpr W ntt_addmod_g(const W& a, const W& b, u32 p) {
  return ntt_condsub_g(ct::cast<u32>(a + b), p);
}

/// (a - b) mod p for a, b < p.
template <typename W>
constexpr W ntt_submod_g(const W& a, const W& b, u32 p) {
  return ntt_condsub_g(ct::cast<u32>(a + p - b), p);
}

/// A PUBLIC multiplier w < p with its Shoup companion floor(w * 2^32 / p).
struct Twiddle {
  u32 w = 0, shoup = 0;
};

/// Divides, so it only ever runs on public constants (the NTT tables).
constexpr Twiddle ntt_twiddle(u32 w, u32 p) {
  return {w, static_cast<u32>((u64{w} << 32) / p)};
}

/// (a * w) mod p for any a < 2^32 (Shoup's method). q = hi32(a * w.shoup)
/// under-estimates floor(a*w/p) by at most one, so a*w - q*p lies in [0, 2p)
/// and is exact in wrapping u32 arithmetic; one conditional subtract finishes.
template <typename W>
constexpr W ntt_mulmod_shoup_g(const W& a, Twiddle w, u32 p) {
  const auto q = ct::cast<u32>((ct::cast<u64>(a) * w.shoup) >> 32);
  return ntt_condsub_g(ct::cast<u32>(a * w.w - q * p), p);
}

/// Montgomery product a * b * 2^-32 mod p for a, b < p, with p_neg_inv =
/// -p^-1 mod 2^32. m = lo32(ab) * (-p^-1) makes ab + m*p divisible by
/// 2^32; the sum is < p^2 + 2^32 p < 2^64 and the quotient is < 2p.
template <typename W>
constexpr W ntt_mulmod_mont_g(const W& a, const W& b, u32 p, u32 p_neg_inv) {
  const auto t = ct::cast<u64>(a) * ct::cast<u64>(b);
  const auto m = ct::cast<u32>(ct::cast<u32>(t) * p_neg_inv);
  return ntt_condsub_g(ct::cast<u32>((t + ct::cast<u64>(m) * p) >> 32), p);
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
