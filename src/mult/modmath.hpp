// Modular arithmetic over word-sized primes, used by the NTT multiplier.
//
// Two families live here:
//
//  * the u128-based mulmod/powmod/invmod helpers, used only on PUBLIC data
//    (twiddle-table construction, primality testing) — these may divide;
//  * word-generic, division-free arithmetic specialized to the Saber NTT
//    prime p' = 2^41 + 10241, used on secret-dependent residues: a
//    general mulmod for products of two data words, and Shoup's mulmod for
//    products with a public twiddle whose companion is precomputed. The
//    butterflies run these in production (plain u64) and under the ct_audit
//    taint analysis (ct::Tainted<u64>), so they must never branch, divide,
//    or index on the data. Reduction folds the identity 2^41 ≡ -10241
//    (mod p') and finishes with a sign-mask conditional subtract.
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

// --- division-free arithmetic mod p' = 2^41 + 10241 ------------------------

inline constexpr u64 kNttPrime = 2199023265793ULL;  // 2^41 + 10241
inline constexpr u64 kNttPrimeC = 10241;            // p' - 2^41

/// Conditional subtract: x - p' if x >= p', else x. Requires x < 2p'.
/// Branch-free: the borrow's sign bit selects whether p' is added back.
template <typename W>
constexpr W ntt_condsub_g(const W& x) {
  const auto d = x - kNttPrime;
  return ct::cast<u64>(d + (ct::sign_mask_g(d) & kNttPrime));
}

/// One reduction fold of the identity 2^41 ≡ -10241 (mod p'): for any
/// x < 2^64 returns a value < 2^41 + p' < 2p' congruent to x mod p'.
/// (lo + p' - c*hi is non-negative because c*hi < 2^14 * 2^23 = 2^37 < p'.)
template <typename W>
constexpr W ntt_fold_g(const W& x) {
  return ct::cast<u64>((x & mask64(41)) + kNttPrime - kNttPrimeC * (x >> 41));
}

/// (a + b) mod p' for a, b < p'.
template <typename W>
constexpr W ntt_addmod_g(const W& a, const W& b) {
  return ntt_condsub_g(ct::cast<u64>(a + b));
}

/// (a - b) mod p' for a, b < p'.
template <typename W>
constexpr W ntt_submod_g(const W& a, const W& b) {
  return ntt_condsub_g(ct::cast<u64>(a + kNttPrime - b));
}

/// (a * b) mod p' for a, b < p', with no division and no u128: split both
/// operands at 21 bits (a = a1*2^21 + a0, a1 < 2^21 since a < 2^42), reduce
/// the three partial products with the 2^41-fold, and recombine using
/// 2^42 ≡ -2c (mod p'). The added constant 2c*p' keeps every intermediate a
/// non-negative u64; the final sum is < 2^63 + 2^56 + 2^42 < 2^64.
template <typename W>
constexpr W ntt_mulmod_g(const W& a, const W& b) {
  const auto a0 = ct::cast<u64>(a & mask64(21));
  const auto a1 = ct::cast<u64>(a >> 21);
  const auto b0 = ct::cast<u64>(b & mask64(21));
  const auto b1 = ct::cast<u64>(b >> 21);
  const auto lo = a0 * b0;                                    // < 2^42
  const auto mid = ntt_condsub_g(ntt_fold_g(a1 * b0 + a0 * b1));  // < p'
  const auto hi = ntt_condsub_g(ntt_fold_g(a1 * b1));             // < p'
  const auto t =
      lo + (mid << 21) + (2 * kNttPrimeC * kNttPrime - 2 * kNttPrimeC * hi);
  return ntt_condsub_g(ntt_fold_g(t));
}

/// Shoup companion of a PUBLIC multiplier w < p': floor(w * 2^64 / p').
/// Divides, so it only ever runs on public constants (the twiddle tables).
constexpr u64 ntt_shoup(u64 w) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / kNttPrime);
}

/// (a * w) mod p' for a < p' and a public w < p' with w_shoup = ntt_shoup(w)
/// (Shoup's method). q = hi64(a * w_shoup) under-estimates floor(a*w/p') by
/// at most one, so the remainder a*w - q*p' lies in [0, 2p'); it is exact in
/// wrapping u64 arithmetic and needs one conditional subtract.
template <typename W>
constexpr W ntt_mulmod_shoup_g(const W& a, u64 w, u64 w_shoup) {
  const auto q = ct::mul_hi_g(a, w_shoup);
  return ntt_condsub_g(ct::cast<u64>(a * w - q * kNttPrime));
}

/// Lift a centered value c (|c| < p'/2), given as the i64 analog of W, into
/// [0, p'). Branch-free: the u64 wrap of a negative c is c + 2^64, and adding
/// the sign-masked p' yields exactly c + p' after the 2^64 wraps away.
template <typename W>
constexpr ct::rebind_t<W, u64> ntt_to_residue_g(const W& c) {
  return ct::cast<u64>(ct::cast<u64>(c) + (ct::sign_mask_g(c) & kNttPrime));
}

/// Exact centered lift back to Z: v in [0, p') to the representative in
/// (-p'/2, p'/2]. Branch-free: subtract the sign-mask-selected p'.
template <typename W>
constexpr ct::rebind_t<W, i64> ntt_from_residue_g(const W& v) {
  const auto m = ct::sign_mask_g(static_cast<i64>(kNttPrime / 2) - ct::cast<i64>(v));
  return ct::cast<i64>(v - (m & kNttPrime));
}

}  // namespace saber::mult
