// Toom-Cook linear convolution, generic over the splitting order.
//
// Toom-4 is the algorithm used by Saber's original software implementation
// [3] and the M4 implementation [6] (which layer Karatsuba under the seven
// size-64 sub-multiplications); Toom-3 is provided as the intermediate
// design point between Karatsuba (= Toom-2) and Toom-4.
//
// Interpolation uses an exact rational inverse of the evaluation matrix over
// small integer points. The per-row denominator divisions are exact over Z,
// which lets them be computed without a division instruction: divide out the
// trailing power of two with an arithmetic shift, then multiply by the odd
// part's inverse mod 2^64 (a bijection on odd residues). That keeps the
// interpolation constant-time in the data, so the same kernel runs over
// plain i64 in production and ct::Tainted<i64> under the secret-independence
// audit; plain builds additionally verify exactness by re-multiplication
// (multiply-only — no data-dependent division anywhere).
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "mult/karatsuba.hpp"
#include "mult/multiplier.hpp"

namespace saber::mult {

/// Exact division by a known constant, division-free. For den = s * 2^k * o
/// (o odd), an exact quotient v/den equals ((v >> k) * inv) mod 2^64 where
/// inv is the mod-2^64 inverse of the signed odd part s*o.
struct ExactDiv {
  i64 den = 1;
  unsigned shift = 0;  ///< trailing zero bits of den
  u64 inv_odd = 1;     ///< inverse of (den >> shift) mod 2^64
};

/// Precompute the shift/inverse pair for a nonzero denominator.
ExactDiv make_exact_div(i64 den);

/// Exact quotient v / d.den for v known to be divisible by d.den. The
/// arithmetic shift and wrapping multiply are branch-free; plain builds
/// verify exactness by re-multiplying (no division instruction either way).
template <typename W>
constexpr W exact_div_g(const W& v, const ExactDiv& d) {
  const auto q =
      ct::cast<i64>(ct::cast<u64>(ct::cast<i64>(v) >> d.shift) * d.inv_odd);
  if constexpr (!ct::is_tainted_v<W>) {
    SABER_ENSURE(q * d.den == v, "Toom-Cook interpolation not exact");
  }
  return q;
}

/// Highest supported Toom-Cook order.
inline constexpr unsigned kMaxToomParts = 4;

/// Limb length of order `parts`: kN padded to a multiple of parts, split.
constexpr std::size_t toom_part_len(unsigned parts) {
  return (ring::kN + parts - 1) / parts;
}

/// Finite evaluation points in order; order k uses the first 2k-2 (the last
/// matrix row is the point at infinity).
inline constexpr i64 kToomPoints[] = {0, 1, -1, 2, -2, 3, -3};

/// Largest |evaluation| per unit limb magnitude: the max over order `parts`'s
/// finite points x of sum_l |x|^l (the infinity row is the bare leading limb).
constexpr u64 toom_amplification(unsigned parts) {
  u64 amp = 1;
  for (unsigned i = 0; i < 2 * parts - 2; ++i) {
    const u64 ax = static_cast<u64>(kToomPoints[i] < 0 ? -kToomPoints[i] : kToomPoints[i]);
    u64 sum = 0, pw = 1;
    for (unsigned l = 0; l < parts; ++l) {
      sum += pw;
      pw *= ax;
    }
    amp = std::max(amp, sum);
  }
  return amp;
}

// The limb products run in karatsuba_acc_g's i32 lanes: evaluations of
// public operands at qbits 16 (|a| <= 2^15) must survive every pre-add level
// of the limb recursion (one for Toom-3's 86-coefficient limbs, six for
// Toom-4's 64).
static_assert(karatsuba_lanes_hold(static_cast<i64>(toom_amplification(3)) << 15,
                                   toom_part_len(3), 32),
              "Toom-3 evaluations overflow the i32 lanes");
static_assert(karatsuba_lanes_hold(static_cast<i64>(toom_amplification(4)) << 15,
                                   toom_part_len(4), 32),
              "Toom-4 evaluations overflow the i32 lanes");

/// All constants of one Toom-Cook order: evaluation points, the row-scaled
/// exact inverse of the evaluation matrix, per-row exact-division data, and
/// the derived split-transform accumulation cap.
struct ToomTables {
  unsigned parts = 0;
  unsigned points = 0;
  std::vector<i64> eval_points;               ///< finite points; last row is infinity
  std::vector<std::vector<i64>> interp_num;   ///< row-scaled exact inverse
  std::vector<ExactDiv> interp_div;           ///< per-row denominator
  std::size_t max_terms = 0;                  ///< see max_accumulated_terms()
  std::size_t padded_len = 0;                 ///< kN padded to a multiple of parts
  std::size_t part_len = 0;                   ///< padded_len / parts
};

/// Build (and cache) the tables for order 3 or 4.
const ToomTables& toom_tables(unsigned parts);

/// Evaluate the `parts` limbs of a lifted operand (public or secret, length
/// N, implicitly zero-padded to t.padded_len) at every point; returns the
/// flattened points x part matrix. Horner over public points — constant-time
/// in the data for any word type.
template <typename W>
std::vector<W> toom_evaluate_g(std::span<const W> p, const ToomTables& t) {
  SABER_REQUIRE(p.size() == ring::kN && t.parts <= kMaxToomParts,
                "operand not in this Toom-Cook domain");
  const std::size_t part = t.part_len;
  std::vector<W> evals(static_cast<std::size_t>(t.points) * part, W{0});
  for (std::size_t k = 0; k < part; ++k) {
    std::array<W, kMaxToomParts> limbs{};
    for (unsigned l = 0; l < t.parts; ++l) {
      const std::size_t idx = l * part + k;  // public index; the pad reads 0
      if (idx < p.size()) limbs[l] = p[idx];
    }
    for (std::size_t i = 0; i < t.eval_points.size(); ++i) {
      const i64 x = t.eval_points[i];
      W acc = limbs[t.parts - 1];
      for (unsigned l = t.parts - 1; l > 0; --l) {
        acc = ct::cast<i64>(acc * x + limbs[l - 1]);
      }
      evals[i * part + k] = acc;
    }
    evals[static_cast<std::size_t>(t.points - 1) * part + k] =
        limbs[t.parts - 1];  // infinity
  }
  return evals;
}

/// Fresh zero accumulator: points segments of length 2*part-1.
template <typename W>
std::vector<W> toom_accumulator_g(const ToomTables& t) {
  return std::vector<W>(static_cast<std::size_t>(t.points) * (2 * t.part_len - 1), W{0});
}

/// acc += a * s point-wise: one Karatsuba limb product per evaluation point,
/// as in the layered software multipliers [6].
template <typename W>
void toom_pointwise_acc_g(std::span<W> acc, std::span<const W> a, std::span<const W> s,
                          const ToomTables& t) {
  const std::size_t part = t.part_len;
  SABER_REQUIRE(a.size() == t.points * part && s.size() == a.size(),
                "operand not in this Toom-Cook transform domain");
  SABER_REQUIRE(acc.size() == t.points * (2 * part - 1),
                "accumulator not in this Toom-Cook transform domain");
  for (unsigned i = 0; i < t.points; ++i) {
    karatsuba_acc_g(a.subspan(i * part, part), s.subspan(i * part, part),
                    acc.subspan(i * (2 * part - 1), 2 * part - 1), /*levels=*/32);
  }
}

/// Interpolate the accumulated per-point limb products, recombine at x^part
/// and drop the padded tail: the signed linear convolution, length 2N-1.
/// Interpolation is linear, so a sum of products interpolates with the same
/// exact divisions. The tail is provably zero; plain words assert it, while
/// tainted words skip the check, which would branch on secret data.
template <typename W>
std::vector<W> toom_interpolate_g(std::span<const W> acc, const ToomTables& t) {
  const std::size_t part = t.part_len;
  const std::size_t seg = 2 * part - 1;
  // One output row at a time, summed segment-wise so the inner loop runs
  // along contiguous words; Toom-3's limbs are the longest.
  std::array<W, 2 * toom_part_len(3) - 1> sum{};
  SABER_REQUIRE(acc.size() == t.points * seg && seg <= sum.size(),
                "accumulator not in this Toom-Cook transform domain");
  std::vector<W> out(2 * t.padded_len - 1, W{0});
  for (unsigned j = 0; j < t.points; ++j) {
    std::fill_n(sum.begin(), seg, W{0});
    for (unsigned i = 0; i < t.points; ++i) {
      const i64 c = t.interp_num[j][i];
      const auto row = acc.subspan(i * seg, seg);
      for (std::size_t k = 0; k < seg; ++k) sum[k] += c * row[k];
    }
    for (std::size_t k = 0; k < seg; ++k) {
      out[j * part + k] += exact_div_g(sum[k], t.interp_div[j]);
    }
  }
  if constexpr (!ct::is_tainted_v<W>) {
    for (std::size_t i = 2 * ring::kN - 1; i < out.size(); ++i) {
      SABER_ENSURE(out[i] == 0, "padded convolution tail must vanish");
    }
  }
  out.resize(2 * ring::kN - 1);
  return out;
}

class ToomCookMultiplier : public PolyMultiplier {
 public:
  /// `parts`: splitting order k (3 or 4); operand length must be divisible
  /// by k. Evaluation points: {0, ±1, ±2, ..., ∞} (2k-1 points).
  explicit ToomCookMultiplier(unsigned parts);

  std::string_view name() const override { return name_; }
  unsigned parts() const { return tables_.parts; }

  // Split-transform API: the cached transform is the per-point limb
  // evaluation (the E step of E-M-I); pointwise products and accumulation
  // happen point-wise, and one interpolation per accumulator replaces one
  // per product. Linearity of interpolation keeps the exact-division
  // property for sums of products.
  Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  Transformed prepare_secret(const ring::SecretPoly& s, unsigned qbits) const override;
  Transformed make_accumulator() const override;
  void pointwise_accumulate(Transformed& acc, const Transformed& a,
                            const Transformed& s) const override;
  ring::Poly finalize(const Transformed& acc, unsigned qbits) const override;

  /// The interpolated (pre-fold) linear convolution, length 2N-1.
  std::vector<i64> finalize_witness(const Transformed& acc) const override;

  /// Derived from the actual evaluation amplification and interpolation
  /// constants: the largest T for which the interpolation dot product over T
  /// accumulated worst-case point products (qbits <= 16, |s| <= 128)
  /// provably stays inside i64.
  std::size_t max_accumulated_terms() const override { return tables_.max_terms; }

 private:
  const ToomTables& tables_;
  std::string name_;
};

/// The paper-lineage configuration ([3]/[6]): Toom-Cook-4.
class ToomCook4Multiplier final : public ToomCookMultiplier {
 public:
  ToomCook4Multiplier() : ToomCookMultiplier(4) {}
};

/// Intermediate design point.
class ToomCook3Multiplier final : public ToomCookMultiplier {
 public:
  ToomCook3Multiplier() : ToomCookMultiplier(3) {}
};

}  // namespace saber::mult
