// NTT-based negacyclic multiplication over two NTT-friendly primes with CRT.
//
// Saber's power-of-two moduli rule out a direct NTT; the workaround used by
// Chung et al. [14] (the paper's §5.1 software comparison) multiplies over
// primes large enough to recover the integer product exactly, then reduces
// mod 2^qbits. We use the 31-bit primes p1 = 2^31 - 511 and p2 = 2^31 - 6143
// (each ≡ 1 mod 512, so each has 512th roots of unity), one psi-twisted
// negacyclic NTT per prime, and a CRT to Z/P, P = p1*p2 ≈ 2^62: the centered
// lift is exact while every true coefficient stays below P/2 ≈ 2^61.
//
// Lanes are u32 residues and each stage is instantiated for its compile-time
// length, so the butterflies vectorize. The kernels are word-generic (only
// lane values carry secrets): NttMultiplier runs them over plain u32 and the
// secret-independence audit over ct::Tainted<u32>. Twiddle products use
// Shoup's mulmod; data x data products use Montgomery's, whose 2^-32 the
// inverse transform's final scaling cancels.
#pragma once

#include <array>
#include <type_traits>
#include <utility>

#include "mult/modmath.hpp"
#include "mult/multiplier.hpp"

namespace saber::mult {

inline constexpr std::array<u32, 2> kNttPrimes = {2147483137u,   // 0x7ffffe01
                                                  2147478017u};  // 0x7fffea01

/// Residue images of one polynomial (or accumulator), one array per prime.
template <typename W>
using NttImage = std::array<std::array<W, ring::kN>, kNttPrimes.size()>;

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
void ntt_forward_g(std::array<W, ring::kN>& v, const NttPrimeTables& t, OpCounts& ops) {
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    (ntt_forward_stage_g<(ring::kN / 2 >> S)>(v, t), ...);
  }(std::make_index_sequence<8>{});
  ops.coeff_mults += ring::kN / 2 * 8;
  ops.coeff_adds += ring::kN * 8;
}

/// Inverse negacyclic NTT mod t.p (bit-reversed input) in place, scaled by
/// N^-1 * 2^32: that cancels the 2^-32 every Montgomery pointwise product
/// leaves, so inverse(forward(x)) alone is x * 2^32.
template <typename W>
void ntt_inverse_g(std::array<W, ring::kN>& v, const NttPrimeTables& t, OpCounts& ops) {
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    (ntt_inverse_stage_g<(std::size_t{1} << S)>(v, t), ...);
  }(std::make_index_sequence<8>{});
  for (auto& x : v) x = ntt_mulmod_shoup_g(x, t.n_inv_mont, t.p);
  ops.coeff_mults += ring::kN / 2 * 8 + ring::kN;
  ops.coeff_adds += ring::kN * 8;
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

/// Forward images of N centered integer coefficients x[i] (|x[i]| < p),
/// given as any signed word analog.
template <typename Coeffs>
auto ntt_prepare_g(const Coeffs& x, const NttTables& t, OpCounts& ops) {
  NttImage<ct::rebind_t<std::remove_cvref_t<decltype(x[0])>, u32>> img;
  for (std::size_t k = 0; k < img.size(); ++k) {
    for (std::size_t i = 0; i < ring::kN; ++i) {
      img[k][i] = ntt_to_residue_g(x[i], t.primes[k].p);
    }
    ntt_forward_g(img[k], t.primes[k], ops);
  }
  return img;
}

/// acc += a * s per prime (Montgomery: each term carries 2^-32 until the lift).
template <typename W>
void ntt_pointwise_acc_g(NttImage<W>& acc, const NttImage<W>& a, const NttImage<W>& s,
                         const NttTables& t, OpCounts& ops) {
  for (std::size_t k = 0; k < acc.size(); ++k) {
    const u32 p = t.primes[k].p;
    const u32 p_neg_inv = t.primes[k].p_neg_inv;
    for (std::size_t i = 0; i < ring::kN; ++i) {
      acc[k][i] =
          ntt_addmod_g(acc[k][i], ntt_mulmod_mont_g(a[k][i], s[k][i], p, p_neg_inv), p);
    }
  }
  ops.coeff_mults += acc.size() * ring::kN;
  ops.coeff_adds += acc.size() * ring::kN;
}

/// Exact integer negacyclic remainder of an accumulator (consumed): one
/// inverse NTT per prime, then the CRT lift. Exact while the true accumulated
/// coefficients stay inside (-P/2, P/2).
template <typename W>
auto ntt_lift_g(NttImage<W>& acc, const NttTables& t, OpCounts& ops) {
  for (std::size_t k = 0; k < acc.size(); ++k) {
    ntt_inverse_g(acc[k], t.primes[k], ops);
  }
  std::array<ct::rebind_t<W, i64>, ring::kN> w;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    w[i] = ntt_crt_lift_g(acc[0][i], acc[1][i], t);
  }
  ops.coeff_mults += ring::kN;
  ops.coeff_adds += ring::kN;
  return w;
}

class NttMultiplier final : public PolyMultiplier {
 public:
  static constexpr u64 kGenerator = 5;  // a non-residue mod both primes

  NttMultiplier();

  std::string_view name() const override { return "ntt"; }

  // Split-transform API: a transform holds the forward spectra mod p1 and p2
  // (256 i64 words); finalize runs the inverse NTTs and the CRT lift, exact
  // while the accumulated coefficients stay below P/2 (max_accumulated_terms).
  Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  Transformed prepare_secret(const ring::SecretPoly& s, unsigned qbits) const override;
  Transformed make_accumulator() const override;
  void pointwise_accumulate(Transformed& acc, const Transformed& a,
                            const Transformed& s) const override;
  ring::Poly finalize(const Transformed& acc, unsigned qbits) const override;

  /// Exact integer negacyclic remainder (no modular mask), length N.
  std::vector<i64> finalize_witness(const Transformed& acc) const override;

  /// One negacyclic product coefficient is bounded by N * (q/2) * |s|_max
  /// <= 2^8 * 2^15 * 2^7 = 2^30 at qbits <= 16, so 2^10 accumulated products
  /// stay below 2^40, far inside the P/2 ≈ 2^61 centered-lift headroom even
  /// for worst-case i8 secrets (Saber's |s| <= 5 leaves far more room).
  std::size_t max_accumulated_terms() const override {
    return std::size_t{1} << 10;
  }
};

}  // namespace saber::mult
