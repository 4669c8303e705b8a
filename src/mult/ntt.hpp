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
// One residue image is 16 rows of 16 u32 lanes (N = 256 = 16 x 16), and a
// transform keeps all 16 rows in registers (given AVX2 or AVX-512) for its
// eight stages (Seiler, 2018): spans 128..16 pair whole rows, spans 8..1
// pair lanes of a row pair after a two-source lane permute. The kernels are
// word-generic (only lane values carry secrets): NttMultiplier runs them over
// plain u32 in u32x16 rows and the secret-independence audit over
// ct::Tainted<u32> in element-wise Row16 rows. Twiddle products use Shoup's
// mulmod; data x data products use Montgomery's, whose 2^-32 the inverse
// transform's final scaling cancels.
#pragma once

#include <array>
#include <limits>

#include "mult/modmath.hpp"
#include "mult/multiplier.hpp"

namespace saber::mult {

inline constexpr std::array<u32, 2> kNttPrimes = {2147483137u,   // 0x7ffffe01
                                                  2147478017u};  // 0x7fffea01

/// Residue images of one polynomial (or accumulator) over the first K primes:
/// prime k's N residues at k * N.
template <typename W, std::size_t K>
using NttImage = std::array<W, K * ring::kN>;

/// Rows of one residue image: residue 16r + j is lane j of row r.
inline constexpr std::size_t kNttRows = ring::kN / 16;

/// Loops unroll fully where a u32x16 row is one or two vector registers, so
/// the rows stay in registers; four xmm parts spill anyway, and unrolled they
/// outgrow the instruction cache (EXPERIMENTS.md E-ntt2).
inline constexpr unsigned kNttUnroll = u32x16::kParts <= 2 ? kNttRows : 1;

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

/// Per-lane twiddle rows of the in-row stages: [s][i][l] serves lane l of row
/// pair i at a direction's s-th in-row stage, in the lane order it keeps.
using NttLaneTwiddles = std::array<std::array<std::array<u32, 16>, kNttRows / 2>, 4>;

/// Tables of one prime. zetas are the powers of psi in bit-reversed order, as
/// consumed by the butterflies, with their Shoup companions; the lane_ tables
/// spread the in-row stages' zetas over lanes. Public.
struct NttPrimeTables {
  u32 p = 0;
  u32 p_neg_inv = 0;  ///< -p^-1 mod 2^32 (Montgomery)
  std::array<u32, ring::kN> zetas{}, zetas_shoup{};
  std::array<u32, ring::kN> zetas_inv{}, zetas_inv_shoup{};
  NttLaneTwiddles lane_zetas{}, lane_zetas_shoup{};
  NttLaneTwiddles lane_zetas_inv{}, lane_zetas_inv_shoup{};
  Twiddle n_inv_mont{};  ///< N^-1 * 2^32
};

struct NttTables {
  std::array<NttPrimeTables, kNttPrimes.size()> primes{};
  Twiddle crt{};  ///< p1^-1 mod p2
};

/// Build (once) and return the tables for kNttPrimes.
const NttTables& ntt_tables();

// In-row stages hold row pair (2i, 2i+1) as two rows x, y. With the pair's
// 32 residues numbered e = 0..31, the stage of span 2^b keeps residue e at
// position rotl5(e, 4 - b) of x ++ y, so lane l of x meets lane l of y. A
// zip of x and y rotates every position one bit left, an unzip one bit
// right: forward zips before each stage, inverse unzips, and one more step
// returns to rows (five rotations of five bits).
inline constexpr auto kNttZipLo = lane_index([](u32 l) { return l / 2 + (l & 1) * 16; });
inline constexpr auto kNttZipHi = lane_index([](u32 l) { return 8 + kNttZipLo[l]; });
inline constexpr auto kNttEven = lane_index([](u32 l) { return 2 * l; });
inline constexpr auto kNttOdd = lane_index([](u32 l) { return 2 * l + 1; });

template <std::array<u32, 16> X, std::array<u32, 16> Y, typename R>
void ntt_permute_pair(R& x, R& y) {
  const R x2 = permute<X>(x, y);
  y = permute<Y>(x, y);
  x = x2;
}

/// Forward negacyclic NTT mod t.p (psi-twisted, bit-reversed output) of the N
/// residues at `in`, written to `out` (which may be `in`).
template <typename W>
void ntt_forward_g(const W* in, W* out, const NttPrimeTables& t) {
  using R = ntt_row_t<W>;
  const u32 p = t.p;
  std::array<R, kNttRows> r;
  for (std::size_t i = 0; i < kNttRows; ++i) r[i] = R::load(in + 16 * i);
  // Spans 128..16: rows i and i + d, one twiddle per group of 2d rows.
#pragma GCC unroll kNttUnroll
  for (std::size_t d = kNttRows / 2; d > 0; d /= 2) {
#pragma GCC unroll kNttUnroll
    for (std::size_t i = 0; i < kNttRows; ++i) {
      if ((i & d) != 0) continue;
      const std::size_t z = (kNttRows + i) / (2 * d);
      ntt_butterfly_g(r[i], r[i + d], t.zetas[z], t.zetas_shoup[z], p);
    }
  }
  // Spans 8..1 within each row pair.
#pragma GCC unroll kNttUnroll
  for (std::size_t i = 0; i < kNttRows; i += 2) {
#pragma GCC unroll kNttUnroll
    for (std::size_t s = 0; s < 4; ++s) {
      ntt_permute_pair<kNttZipLo, kNttZipHi>(r[i], r[i + 1]);
      ntt_butterfly_g(r[i], r[i + 1], R::load(t.lane_zetas[s][i / 2].data()),
                      R::load(t.lane_zetas_shoup[s][i / 2].data()), p);
    }
    ntt_permute_pair<kNttZipLo, kNttZipHi>(r[i], r[i + 1]);
  }
  for (std::size_t i = 0; i < kNttRows; ++i) r[i].store(out + 16 * i);
}

template <typename W>
void ntt_forward_g(std::array<W, ring::kN>& v, const NttPrimeTables& t) {
  ntt_forward_g(v.data(), v.data(), t);
}

/// Inverse negacyclic NTT mod t.p (bit-reversed input) of the N residues at
/// `in`, written to `out`, scaled by N^-1 * 2^32: that cancels the 2^-32
/// every Montgomery pointwise product leaves, so inverse(forward(x)) alone
/// is x * 2^32.
template <typename W>
void ntt_inverse_g(const W* in, W* out, const NttPrimeTables& t) {
  using R = ntt_row_t<W>;
  const u32 p = t.p;
  std::array<R, kNttRows> r;
  for (std::size_t i = 0; i < kNttRows; ++i) r[i] = R::load(in + 16 * i);
  // Spans 1..8 within each row pair.
#pragma GCC unroll kNttUnroll
  for (std::size_t i = 0; i < kNttRows; i += 2) {
#pragma GCC unroll kNttUnroll
    for (std::size_t s = 0; s < 4; ++s) {
      ntt_permute_pair<kNttEven, kNttOdd>(r[i], r[i + 1]);
      ntt_butterfly_inv_g(r[i], r[i + 1], R::load(t.lane_zetas_inv[s][i / 2].data()),
                          R::load(t.lane_zetas_inv_shoup[s][i / 2].data()), p);
    }
    ntt_permute_pair<kNttEven, kNttOdd>(r[i], r[i + 1]);
  }
  // Spans 16..128: rows i and i + d.
#pragma GCC unroll kNttUnroll
  for (std::size_t d = 1; d < kNttRows; d *= 2) {
#pragma GCC unroll kNttUnroll
    for (std::size_t i = 0; i < kNttRows; ++i) {
      if ((i & d) != 0) continue;
      const std::size_t z = (kNttRows + i) / (2 * d);
      ntt_butterfly_inv_g(r[i], r[i + d], t.zetas_inv[z], t.zetas_inv_shoup[z], p);
    }
  }
  for (std::size_t i = 0; i < kNttRows; ++i) {
    ntt_mulmod_shoup_g(r[i], t.n_inv_mont, p).store(out + 16 * i);
  }
}

template <typename W>
void ntt_inverse_g(std::array<W, ring::kN>& v, const NttPrimeTables& t) {
  ntt_inverse_g(v.data(), v.data(), t);
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
/// x[i] (|x[i]| < p), given as any signed word analog, written to the K
/// images at `out`.
template <std::size_t K, typename Coeffs, typename W>
void ntt_prepare_g(const Coeffs& x, W* out, const NttTables& t) {
  std::array<W, ring::kN> r;
  for (std::size_t k = 0; k < K; ++k) {
    const u32 p = t.primes[k].p;
    for (std::size_t i = 0; i < ring::kN; ++i) r[i] = ntt_to_residue_g(x[i], p);
    ntt_forward_g(r.data(), out + k * ring::kN, t.primes[k]);
  }
}

/// acc += a * s over the K images, a row at a time (Montgomery: each term
/// carries 2^-32 until the lift).
template <std::size_t K, typename W>
void ntt_pointwise_acc_g(W* acc, const W* a, const W* s, const NttTables& t) {
  using R = ntt_row_t<W>;
  for (std::size_t k = 0; k < K; ++k) {
    const u32 p = t.primes[k].p;
    const u32 p_neg_inv = t.primes[k].p_neg_inv;
    for (std::size_t i = k * ring::kN; i < (k + 1) * ring::kN; i += 16) {
      const R prod = ntt_mulmod_mont_g(R::load(a + i), R::load(s + i), p, p_neg_inv);
      ntt_addmod_g(R::load(acc + i), prod, p).store(acc + i);
    }
  }
}

/// Exact integer negacyclic remainder of the K accumulator images at `acc`:
/// one inverse NTT per prime, then the centered reduce mod p1 (K = 1) or the
/// CRT lift (K = 2). Exact while the true accumulated coefficients stay
/// inside (-p1/2, p1/2), respectively (-P/2, P/2).
template <std::size_t K, typename W>
auto ntt_lift_g(const W* acc, const NttTables& t) {
  static_assert(K == 1 || K == 2);
  NttImage<W, K> img;
  for (std::size_t k = 0; k < K; ++k) {
    ntt_inverse_g(acc + k * ring::kN, img.data() + k * ring::kN, t.primes[k]);
  }
  std::array<ct::rebind_t<W, i64>, ring::kN> w;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    if constexpr (K == 1) {
      w[i] = ntt_center_g(img[i], t.primes[0].p);
    } else {
      w[i] = ntt_crt_lift_g(img[i], img[ring::kN + i], t);
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
