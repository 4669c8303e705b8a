// NTT-based negacyclic multiplication over one or two NTT-friendly primes.
//
// Saber's power-of-two moduli rule out a direct NTT; the workaround used by
// Chung et al. [14] (the paper's §5.1 software comparison) multiplies over
// primes large enough to recover the integer product exactly, then reduces
// mod 2^qbits. We use the 31-bit primes p1 = 2^31 - 511 and p2 = 2^31 - 6143
// (each ≡ 1 mod 512, so each has 512th roots of unity) and one psi-twisted
// negacyclic NTT per prime. The prime count K is a compile-time parameter of
// every kernel, picked per operand from the PUBLIC modulus by ntt_lanes():
//
//  * K = 1 for qbits <= 13, i.e. every Saber product. A public coefficient
//    centered mod 2^13 is at most 2^12 in magnitude and any i8 secret at most
//    2^7 (-128 included), so one product coefficient is at most
//    N * 2^12 * 2^7 = 2^27, and 7 of them stay inside (p1 - 1)/2: the lift is
//    a centered reduce mod p1.
//  * K = 2 above that, and for every public x public multiply (N * 2^24 =
//    2^32 at qbits 13 already exceeds p1/2): a CRT to Z/P, P = p1*p2 ≈ 2^62,
//    exact while every true coefficient stays below P/2 ≈ 2^61.
//
// Lanes are u32 residues and each stage is instantiated for its compile-time
// length, so the butterflies vectorize. The kernels are word-generic (only
// lane values carry secrets): NttMultiplier runs them over plain u32 and the
// secret-independence audit over ct::Tainted<u32>. Twiddle products use
// Shoup's mulmod; data x data products use Montgomery's, whose 2^-32 the
// inverse transform's final scaling cancels.
#pragma once

#include <array>
#include <limits>
#include <type_traits>
#include <utility>

#include "mult/modmath.hpp"
#include "mult/multiplier.hpp"

namespace saber::mult {

inline constexpr std::array<u32, 2> kNttPrimes = {2147483137u,   // 0x7ffffe01
                                                  2147478017u};  // 0x7fffea01

/// Residue images of one polynomial (or accumulator) over the first K primes,
/// one array per prime.
template <typename W, std::size_t K>
using NttImage = std::array<std::array<W, ring::kN>, K>;

/// Bound on one negacyclic product coefficient of a public operand centered
/// mod 2^qbits (|a| <= 2^(qbits-1)) and any i8 secret (|s| <= 2^7 = 128, as
/// i8 includes -128): N * 2^(qbits-1) * 2^7.
constexpr u64 ntt_product_bound(unsigned qbits) {
  return u64{ring::kN} << (qbits - 1) << std::numeric_limits<i8>::digits;
}

/// Products one one-prime accumulator absorbs exactly at public modulus
/// 2^qbits: the centered reduce mod p1 is exact on |x| <= (p1 - 1)/2.
constexpr u64 ntt_one_prime_terms(unsigned qbits) {
  return (kNttPrimes[0] - 1) / 2 / ntt_product_bound(qbits);
}

/// Largest public modulus whose products run over p1 alone.
inline constexpr unsigned kOnePrimeMaxQbits = 13;

// p1 alone serves exactly the moduli at which it still holds Saber's largest
// rank (FireSaber, l = 4) of accumulated products: 7 * 2^27 = 939,524,096 <
// (p1 - 1)/2 = 1,073,741,568 at qbits 13, but only 3 * 2^28 at qbits 14.
static_assert(ntt_one_prime_terms(kOnePrimeMaxQbits) == 7);
static_assert(ntt_one_prime_terms(kOnePrimeMaxQbits + 1) < 4);
// The two-prime lift holds as many terms at the widest modulus (qbits 16).
static_assert(ntt_one_prime_terms(kOnePrimeMaxQbits) * ntt_product_bound(16) <
              u64{kNttPrimes[0]} * kNttPrimes[1] / 2);

/// The lane rule: how many primes an operand prepared at public modulus
/// 2^qbits is transformed over. Public data only; NttMultiplier and the ct
/// audit both pick K with it.
constexpr std::size_t ntt_lanes(unsigned qbits) {
  return qbits <= kOnePrimeMaxQbits ? 1 : 2;
}

/// Tables of one prime. zetas are the powers of psi in bit-reversed order, as
/// consumed by the butterflies; the Shoup companions sit in separate arrays
/// so that stages vectorized across groups load both contiguously. Public.
struct NttPrimeTables {
  u32 p = 0;
  u32 p_neg_inv = 0;  ///< -p^-1 mod 2^32 (Montgomery)
  std::array<u32, ring::kN> zetas{}, zetas_shoup{};
  std::array<u32, ring::kN> zetas_inv{}, zetas_inv_shoup{};
  Twiddle n_inv_mont{};  ///< N^-1 * 2^32
};

struct NttTables {
  std::array<NttPrimeTables, kNttPrimes.size()> primes{};
  Twiddle crt{};  ///< p1^-1 mod p2
};

/// Build (once) and return the tables for kNttPrimes.
const NttTables& ntt_tables();

// One butterfly stage of span Len (group g: twiddle N/(2*Len) + g). The inner
// loop stays a loop so that Len >= 8 runs as whole vectors, not transposes.
template <std::size_t Len, typename W>
void ntt_forward_stage_g(std::array<W, ring::kN>& v, const NttPrimeTables& t) {
  constexpr std::size_t groups = ring::kN / (2 * Len);
  const u32 p = t.p;
  for (std::size_t g = 0; g < groups; ++g) {
    const Twiddle w{t.zetas[groups + g], t.zetas_shoup[groups + g]};
    W* lo = v.data() + 2 * Len * g;
#pragma GCC unroll 2
    for (std::size_t j = 0; j < Len; ++j) {
      const W tw = ntt_mulmod_shoup_g(lo[j + Len], w, p);
      lo[j + Len] = ntt_submod_g(lo[j], tw, p);
      lo[j] = ntt_addmod_g(lo[j], tw, p);
    }
  }
}

template <std::size_t Len, typename W>
void ntt_inverse_stage_g(std::array<W, ring::kN>& v, const NttPrimeTables& t) {
  constexpr std::size_t groups = ring::kN / (2 * Len);
  const u32 p = t.p;
  for (std::size_t g = 0; g < groups; ++g) {
    const Twiddle w{t.zetas_inv[groups + g], t.zetas_inv_shoup[groups + g]};
    W* lo = v.data() + 2 * Len * g;
#pragma GCC unroll 2
    for (std::size_t j = 0; j < Len; ++j) {
      const W x = lo[j];
      lo[j] = ntt_addmod_g(x, lo[j + Len], p);
      lo[j + Len] = ntt_mulmod_shoup_g(ntt_submod_g(x, lo[j + Len], p), w, p);
    }
  }
}

/// Forward negacyclic NTT mod t.p (psi-twisted, bit-reversed output) in place.
template <typename W>
void ntt_forward_g(std::array<W, ring::kN>& v, const NttPrimeTables& t) {
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    (ntt_forward_stage_g<(ring::kN / 2 >> S)>(v, t), ...);
  }(std::make_index_sequence<8>{});
}

/// Inverse negacyclic NTT mod t.p (bit-reversed input) in place, scaled by
/// N^-1 * 2^32: that cancels the 2^-32 every Montgomery pointwise product
/// leaves, so inverse(forward(x)) alone is x * 2^32.
template <typename W>
void ntt_inverse_g(std::array<W, ring::kN>& v, const NttPrimeTables& t) {
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    (ntt_inverse_stage_g<(std::size_t{1} << S)>(v, t), ...);
  }(std::make_index_sequence<8>{});
  for (auto& x : v) x = ntt_mulmod_shoup_g(x, t.n_inv_mont, t.p);
}

/// CRT of (r1 mod p1, r2 mod p2) and centered lift into (-P/2, P/2):
/// x = r1 + p1 * ((r2 - r1) * p1^-1 mod p2) lies in [0, P), and the
/// sign-masked P is subtracted above P/2. Branch-free.
template <typename W>
constexpr ct::rebind_t<W, i64> ntt_crt_lift_g(const W& r1, const W& r2,
                                              const NttTables& t) {
  constexpr u32 p1 = kNttPrimes[0];
  constexpr u32 p2 = kNttPrimes[1];
  constexpr u64 P = u64{p1} * p2;
  const auto d = ntt_submod_g(r2, ntt_condsub_g(r1, p2), p2);  // r1 < p1 < 2*p2
  const auto h = ntt_mulmod_shoup_g(d, t.crt, p2);
  const auto x = ct::cast<u64>(r1) + ct::cast<u64>(h) * p1;
  const auto m = ct::sign_mask_g(static_cast<i64>(P / 2) - ct::cast<i64>(x));
  return ct::cast<i64>(x - (m & P));
}

/// Centered lift of a residue r mod p into [-(p-1)/2, (p-1)/2]: r - p when
/// r > (p-1)/2. Branch-free on i32 lanes (r < p < 2^31).
template <typename W>
constexpr ct::rebind_t<W, i64> ntt_center_g(const W& r, u32 p) {
  const auto x = ct::cast<i32>(r);
  const auto m = (static_cast<i32>((p - 1) / 2) - x) >> 31;
  return ct::cast<i64>(x - (m & static_cast<i32>(p)));
}

/// Forward images mod the first K primes of N centered integer coefficients
/// x[i] (|x[i]| < p), given as any signed word analog.
template <std::size_t K, typename Coeffs>
auto ntt_prepare_g(const Coeffs& x, const NttTables& t) {
  NttImage<ct::rebind_t<std::remove_cvref_t<decltype(x[0])>, u32>, K> img;
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t i = 0; i < ring::kN; ++i) {
      img[k][i] = ntt_to_residue_g(x[i], t.primes[k].p);
    }
    ntt_forward_g(img[k], t.primes[k]);
  }
  return img;
}

/// acc += a * s per prime (Montgomery: each term carries 2^-32 until the lift).
template <typename W, std::size_t K>
void ntt_pointwise_acc_g(NttImage<W, K>& acc, const NttImage<W, K>& a,
                         const NttImage<W, K>& s, const NttTables& t) {
  for (std::size_t k = 0; k < K; ++k) {
    const u32 p = t.primes[k].p;
    const u32 p_neg_inv = t.primes[k].p_neg_inv;
    for (std::size_t i = 0; i < ring::kN; ++i) {
      acc[k][i] =
          ntt_addmod_g(acc[k][i], ntt_mulmod_mont_g(a[k][i], s[k][i], p, p_neg_inv), p);
    }
  }
}

/// Exact integer negacyclic remainder of an accumulator (consumed): one
/// inverse NTT per prime, then the centered reduce mod p1 (K = 1) or the CRT
/// lift (K = 2). Exact while the true accumulated coefficients stay inside
/// (-p1/2, p1/2), respectively (-P/2, P/2).
template <typename W, std::size_t K>
auto ntt_lift_g(NttImage<W, K>& acc, const NttTables& t) {
  static_assert(K == 1 || K == 2);
  for (std::size_t k = 0; k < K; ++k) {
    ntt_inverse_g(acc[k], t.primes[k]);
  }
  std::array<ct::rebind_t<W, i64>, ring::kN> w;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    if constexpr (K == 1) {
      w[i] = ntt_center_g(acc[0][i], t.primes[0].p);
    } else {
      w[i] = ntt_crt_lift_g(acc[0][i], acc[1][i], t);
    }
  }
  return w;
}

class NttMultiplier final : public PolyMultiplier {
 public:
  static constexpr u64 kGenerator = 5;  // a non-residue mod both primes

  NttMultiplier();

  std::string_view name() const override { return "ntt"; }

  /// Public x public products: always over both primes, since N * 2^24 =
  /// 2^32 at qbits 13 already exceeds p1/2. multiply() reduces this witness.
  std::vector<i64> multiply_witness(const ring::Poly& a, const ring::Poly& b,
                                    unsigned qbits) const override;

  // Split-transform API: a transform holds the forward spectra mod the first
  // ntt_lanes(qbits) primes, N/2 i64 words per prime, so its length records
  // its prime count. The accumulator starts empty and takes the prime count
  // of the first public operand it absorbs; a secret image with more primes
  // contributes only its p1 half, so a secret prepared at qbits serves
  // publics prepared at qbits or less. finalize runs the inverse NTTs and the
  // centered reduce mod p1 or the CRT lift.
  Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  Transformed prepare_secret(const ring::SecretPoly& s, unsigned qbits) const override;
  Transformed make_accumulator() const override { return {}; }
  void pointwise_accumulate(Transformed& acc, const Transformed& a,
                            const Transformed& s) const override;
  ring::Poly finalize(const Transformed& acc, unsigned qbits) const override;

  /// Exact integer negacyclic remainder (no modular mask), length N; zero for
  /// an accumulator that absorbed nothing.
  std::vector<i64> finalize_witness(const Transformed& acc) const override;

  /// The one-prime cap, 7 (ntt_one_prime_terms at qbits 13); the two-prime
  /// images hold far more. Saber needs l <= 4.
  std::size_t max_accumulated_terms() const override {
    return ntt_one_prime_terms(kOnePrimeMaxQbits);
  }
};

}  // namespace saber::mult
