// Toom-Cook linear convolution, generic over the splitting order.
//
// Toom-4 is the algorithm used by Saber's original software implementation
// [3] and the M4 implementation [6] (which layer Karatsuba under the seven
// size-64 sub-multiplications); Toom-3 is provided as the intermediate
// design point between Karatsuba (= Toom-2) and Toom-4.
//
// The layering is Toom ∘ Karatsuba-in-prepare ∘ lane schoolbook: prepare
// evaluates the limbs at every point and splits each by a fixed number of
// Karatsuba levels into leaves that sit side by side in lanes (Toom-3: 15 of
// 43 coefficients, Toom-4: 63 of 16); pointwise is one lane-sliced schoolbook
// (lane_conv_acc_g) over all of them; finalize recombines each point's
// leaves, then interpolates, once per accumulator.
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

/// Karatsuba levels prepare applies under each Toom point: one for Toom-3
/// (86 -> 43 coefficients, where the odd length stops it), two for Toom-4
/// (64 -> 16, the 16-coefficient schoolbook of [3]/[6]).
constexpr unsigned toom_karatsuba_levels(unsigned parts) { return parts == 3 ? 1 : 2; }

/// The lane-sliced shape of order `parts`: (2 parts - 1) points times
/// 3^levels Karatsuba leaves, rounded up to whole 16-lane rows (one i64x8
/// pair, and whole i32 pairs in a Transformed word). Toom-3: 15 leaves of 43
/// coefficients in 16 lanes; Toom-4: 63 leaves of 16 in 64.
constexpr LaneShape toom_lane_shape(unsigned parts) {
  const unsigned levels = toom_karatsuba_levels(parts);
  const std::size_t leaves = (2 * parts - 1) * pow3(levels);
  return {toom_part_len(parts) >> levels, (leaves + 15) / 16 * 16, leaves};
}

// Leaf operands fit their i32 lanes: the largest public evaluation, amp *
// 2^15 at qbits 16, doubles per Karatsuba level (Toom-3 2^18.8, Toom-4 2^22.3).
static_assert((i64{toom_amplification(3)} << (15 + toom_karatsuba_levels(3))) < (i64{1} << 31) &&
                  (i64{toom_amplification(4)} << (15 + toom_karatsuba_levels(4))) < (i64{1} << 31),
              "Toom leaf operands overflow the i32 lanes");

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
  unsigned levels = 0;                        ///< toom_karatsuba_levels(parts)
  LaneShape shape;                            ///< toom_lane_shape(parts)
};

/// Build (and cache) the tables for order 3 or 4.
const ToomTables& toom_tables(unsigned parts);

/// The prepared image of a lifted operand (public or secret, length N,
/// zero-padded to t.padded_len): its `parts` limbs evaluated at every point
/// by Horner over the public points (the last point, infinity, is the
/// leading limb), each evaluation split t.levels times by Karatsuba straight
/// into the lane-major Img words of t.shape in `img` — lane i * 3^levels + j
/// holds leaf j of point i; the pad lanes are zeroed. Constant-time in the
/// data for any word type.
template <typename W, typename Img = W>
void toom_prepare_g(std::span<const W> p, const ToomTables& t, std::span<Img> img) {
  const std::size_t part = t.part_len;
  const LaneShape& sh = t.shape;
  std::array<W, kMaxToomParts * toom_part_len(3)> x{};
  SABER_REQUIRE(p.size() == ring::kN && t.padded_len <= x.size() &&
                    img.size() == sh.len * sh.lanes,
                "operand not in this Toom-Cook domain");
  std::ranges::copy(p, x.begin());
  std::ranges::fill(img, Img{0});
  std::array<W, toom_part_len(3)> ev;
  for (unsigned i = 0; i < t.points; ++i) {
    const W* top = x.data() + (t.parts - 1) * part;
    std::copy(top, top + part, ev.begin());
    if (i + 1 < t.points) {
      const i64 pt = t.eval_points[i];
      for (unsigned l = t.parts - 1; l > 0; --l) {
        const W* limb = x.data() + (l - 1) * part;
        for (std::size_t k = 0; k < part; ++k) ev[k] = ct::cast<i64>(ev[k] * pt + limb[k]);
      }
    }
    karatsuba_split_g<W, Img>(std::span<const W>(ev).first(part), t.levels,
                              img.subspan(i * sh.leaves / t.points), sh.lanes);
  }
}

/// Fresh zero accumulator: the lane-major leaf products, (2 len - 1) x lanes.
/// pointwise is lane_conv_acc_g over t.shape, one body for both orders.
template <typename W>
std::vector<W> toom_accumulator_g(const ToomTables& t) {
  return std::vector<W>((2 * t.shape.len - 1) * t.shape.lanes, W{0});
}

/// Recombine every point's Karatsuba leaves, interpolate the per-point limb
/// products, recombine at x^part and drop the padded tail: the signed linear
/// convolution, length 2N-1. Both steps are linear, so a sum of products
/// recombines and interpolates with the same exact divisions. The tail is
/// provably zero; plain words assert it, while tainted words skip the check,
/// which would branch on secret data.
template <typename W>
std::vector<W> toom_interpolate_g(std::span<const W> acc, const ToomTables& t) {
  const std::size_t part = t.part_len;
  const std::size_t seg = 2 * part - 1;
  const LaneShape& sh = t.shape;
  SABER_REQUIRE(acc.size() == (2 * sh.len - 1) * sh.lanes,
                "accumulator not in this Toom-Cook transform domain");
  std::array<W, (2 * kMaxToomParts - 1) * (2 * toom_part_len(3) - 1)> limbs;
  std::array<W, karatsuba_merge_words(toom_part_len(4), 2)> scratch;  // Toom-3's is 0
  std::fill_n(limbs.begin(), t.points * seg, W{0});
  for (unsigned i = 0; i < t.points; ++i) {
    karatsuba_merge_g<W>(acc.subspan(i * sh.leaves / t.points), sh.lanes, t.levels,
                         std::span<W>(limbs).subspan(i * seg, seg), scratch);
  }

  // One output row at a time, summed segment-wise so the inner loop runs
  // along contiguous words; Toom-3's limbs are the longest. Each output
  // word costs `points` mults and adds: the first term starts the sum.
  std::array<W, 2 * toom_part_len(3) - 1> sum;
  SABER_REQUIRE(seg <= sum.size(), "accumulator not in this Toom-Cook transform domain");
  std::vector<W> out(2 * t.padded_len - 1, W{0});
  for (unsigned j = 0; j < t.points; ++j) {
    for (std::size_t k = 0; k < seg; ++k) sum[k] = t.interp_num[j][0] * limbs[k];
    for (unsigned i = 1; i < t.points; ++i) {
      const i64 c = t.interp_num[j][i];
      const auto row = std::span<const W>(limbs).subspan(i * seg, seg);
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

class ToomCookMultiplier final : public PolyMultiplier {
 public:
  /// `parts`: splitting order k, 4 (the paper lineage [3]/[6]) or 3 (the
  /// intermediate design point). Evaluation points: {0, ±1, ±2, ..., ∞}
  /// (2k-1 points).
  explicit ToomCookMultiplier(unsigned parts);

  std::string_view name() const override { return name_; }
  unsigned parts() const { return tables_.parts; }

  // Split-transform API: the cached transform is the per-point limb
  // evaluation (the E step of E-M-I) split into its Karatsuba leaves, as i32
  // lanes packed two to a word; pointwise products run on all leaves at once
  // in one lane-sliced schoolbook, and one Karatsuba recombination and
  // interpolation per accumulator replace one per product. Linearity of
  // both keeps the exact-division property for sums of products.
  Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  Transformed prepare_secret(const ring::SecretPoly& s, unsigned qbits) const override;
  Transformed make_accumulator() const override;
  void pointwise_accumulate(Transformed& acc, const Transformed& a,
                            const Transformed& s) const override;
  ring::Poly finalize(const Transformed& acc, unsigned qbits) const override;

  /// The interpolated (pre-fold) linear convolution, length 2N-1.
  std::vector<i64> finalize_witness(const Transformed& acc) const override;

  /// Derived from the actual evaluation amplification and interpolation
  /// constants: the largest T for which T accumulated worst-case leaf
  /// products (qbits <= 16, |s| <= 128), their Karatsuba recombination and
  /// the interpolation dot product provably stay inside i64.
  std::size_t max_accumulated_terms() const override { return tables_.max_terms; }

 private:
  const ToomTables& tables_;
  std::string name_;
};

}  // namespace saber::mult
