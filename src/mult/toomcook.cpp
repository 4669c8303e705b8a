#include "mult/toomcook.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/check.hpp"

namespace saber::mult {

namespace {

// Minimal exact rational arithmetic for the one-time matrix inversion.
struct Rational {
  i64 num = 0;
  i64 den = 1;

  void normalize() {
    SABER_ENSURE(den != 0, "rational with zero denominator");
    if (den < 0) {
      num = -num;
      den = -den;
    }
    const i64 g = std::gcd(num < 0 ? -num : num, den);
    if (g > 1) {
      num /= g;
      den /= g;
    }
  }
};

Rational make_rat(i64 n, i64 d = 1) {
  Rational r{n, d};
  r.normalize();
  return r;
}

Rational operator*(Rational a, Rational b) { return make_rat(a.num * b.num, a.den * b.den); }
Rational operator/(Rational a, Rational b) {
  SABER_REQUIRE(b.num != 0, "division by zero rational");
  return make_rat(a.num * b.den, a.den * b.num);
}
Rational operator-(Rational a, Rational b) {
  return make_rat(a.num * b.den - b.num * a.den, a.den * b.den);
}

// Invert the (2k-1)x(2k-1) evaluation matrix by Gauss-Jordan over Q.
std::vector<std::vector<Rational>> invert_evaluation_matrix(
    std::span<const i64> finite_points, unsigned points) {
  const unsigned n = points;
  std::vector<std::vector<Rational>> m(n, std::vector<Rational>(2 * n));
  for (unsigned r = 0; r < n; ++r) {
    if (r < finite_points.size()) {
      i64 pw = 1;
      for (unsigned c = 0; c < n; ++c) {
        m[r][c] = make_rat(pw);
        pw *= finite_points[r];
      }
    } else {
      m[r][n - 1] = make_rat(1);  // infinity row: the leading coefficient
    }
    m[r][n + r] = make_rat(1);
  }

  for (unsigned col = 0; col < n; ++col) {
    unsigned pivot = col;
    while (pivot < n && m[pivot][col].num == 0) ++pivot;
    SABER_ENSURE(pivot < n, "evaluation matrix is singular");
    std::swap(m[col], m[pivot]);
    const Rational inv_p = make_rat(1) / m[col][col];
    for (auto& v : m[col]) v = v * inv_p;
    for (unsigned r = 0; r < n; ++r) {
      if (r == col || m[r][col].num == 0) continue;
      const Rational f = m[r][col];
      for (unsigned c = 0; c < 2 * n; ++c) m[r][c] = m[r][c] - f * m[col][c];
    }
  }

  std::vector<std::vector<Rational>> inv(n, std::vector<Rational>(n));
  for (unsigned r = 0; r < n; ++r) {
    for (unsigned c = 0; c < n; ++c) inv[r][c] = m[r][n + c];
  }
  return inv;
}

ToomTables make_toom_tables(unsigned parts) {
  SABER_REQUIRE(parts == 3 || parts == 4, "supported Toom-Cook orders: 3, 4");
  ToomTables t;
  t.parts = parts;
  t.points = 2 * parts - 1;
  t.part_len = toom_part_len(parts);
  t.padded_len = t.part_len * parts;
  t.levels = toom_karatsuba_levels(parts);
  t.shape = toom_lane_shape(parts);
  t.eval_points.assign(kToomPoints, kToomPoints + (t.points - 1));

  const auto inv = invert_evaluation_matrix(t.eval_points, t.points);
  t.interp_num.assign(t.points, std::vector<i64>(t.points));
  t.interp_div.resize(t.points);
  for (unsigned r = 0; r < t.points; ++r) {
    i64 lcm = 1;
    for (unsigned c = 0; c < t.points; ++c) lcm = std::lcm(lcm, inv[r][c].den);
    t.interp_div[r] = make_exact_div(lcm);
    for (unsigned c = 0; c < t.points; ++c) {
      t.interp_num[r][c] = inv[r][c].num * (lcm / inv[r][c].den);
    }
  }

  // Exactness cap for the split-transform accumulator. One accumulated point
  // product coefficient is bounded by part * (E * q/2) * (E * |s|_max) with
  // E = max_x sum_l |x|^l the Horner amplification (q/2 <= 2^15,
  // |s|_max <= 2^7). A Karatsuba leaf product is at most 2^levels times that
  // and its recombination sums three (factor 3 * 2^levels); finalize's
  // interpolation dot product (factor max-row sum of |interp_num_|), the
  // recombination of two overlapping limb segments and the negacyclic fold's
  // subtraction of two coefficients give factor 4 * row sum. Cap T so the
  // larger chain stays below 2^62.
  const u64 amp = toom_amplification(parts);
  u64 row_sum = 1;
  for (const auto& row : t.interp_num) {
    u64 s = 0;
    for (const i64 v : row) s += static_cast<u64>(v < 0 ? -v : v);
    row_sum = std::max(row_sum, s);
  }
  // Nested floor divisions only under-estimate the true quotient, which is
  // the conservative direction, and keep every intermediate inside u64
  // (per_term < 2^40 for both supported orders).
  const u64 per_term = (static_cast<u64>(t.part_len) * amp * amp) << (15 + 7);
  const u64 chain = std::max(row_sum * 4, u64{3} << t.levels);
  t.max_terms = static_cast<std::size_t>((u64{1} << 62) / per_term / chain);
  SABER_ENSURE(t.max_terms >= 4, "Toom-Cook headroom below Saber's rank");
  return t;
}

}  // namespace

ExactDiv make_exact_div(i64 den) {
  SABER_REQUIRE(den != 0, "exact division by zero");
  ExactDiv d;
  d.den = den;
  u64 u = static_cast<u64>(den);
  d.shift = 0;
  while ((u & 1) == 0) {
    u >>= 1;
    ++d.shift;
  }
  // Newton iteration doubles correct low bits each step; 6 steps cover 64
  // bits from the 5-bit-correct seed x*x ≡ 1 (mod 16) for odd x.
  u64 inv = u;
  for (int i = 0; i < 6; ++i) inv *= 2 - u * inv;
  SABER_ENSURE(u * inv == 1, "odd-part inverse failed");
  d.inv_odd = inv;
  return d;
}

const ToomTables& toom_tables(unsigned parts) {
  static const ToomTables t3 = make_toom_tables(3);
  static const ToomTables t4 = make_toom_tables(4);
  SABER_REQUIRE(parts == 3 || parts == 4, "supported Toom-Cook orders: 3, 4");
  return parts == 3 ? t3 : t4;
}

ToomCookMultiplier::ToomCookMultiplier(unsigned parts)
    : tables_(toom_tables(parts)), name_("toom" + std::to_string(parts)) {}

namespace {

// i32 lanes of the larger (Toom-4) operand image.
constexpr std::size_t kMaxLaneOperand = toom_lane_shape(4).len * toom_lane_shape(4).lanes;

// A Transformed operand holds the i32 leaf lanes of a toom_prepare_g image,
// lane-major, two to an i64 word (the bytes of the i32 array, as ntt.cpp
// stores its u32 residues). The leaf-bound static_assert in toomcook.hpp
// makes the narrowing exact. The lanes are built on the stack and copied in
// once: i32 stores into the vector's i64 words would break type-based
// aliasing.
template <typename Coeffs>
Transformed prepare(const Coeffs& x, const ToomTables& t) {
  std::array<i32, kMaxLaneOperand> lanes;
  const auto img = std::span<i32>(lanes).first(t.shape.len * t.shape.lanes);
  toom_prepare_g<i64, i32>(std::span<const i64>(x), t, img);
  Transformed v(img.size() / 2);
  std::memcpy(v.data(), img.data(), img.size_bytes());
  return v;
}

/// The i32 lanes packed in an operand, read in place (LaneAccess reads
/// i32 lanes bytewise).
std::span<const i32> packed_lanes(const Transformed& v, const LaneShape& sh) {
  SABER_REQUIRE(v.size() * 2 == sh.len * sh.lanes,
                "operand not in this Toom-Cook transform domain");
  return {reinterpret_cast<const i32*>(v.data()), v.size() * 2};
}

}  // namespace

Transformed ToomCookMultiplier::prepare_public(const ring::Poly& a,
                                               unsigned qbits) const {
  return prepare(centered_lift(a, qbits), tables_);
}

// Small signed secrets embed into Z directly: qbits is unused.
Transformed ToomCookMultiplier::prepare_secret(const ring::SecretPoly& s,
                                               unsigned) const {
  return prepare(lift_secret(s), tables_);
}

Transformed ToomCookMultiplier::make_accumulator() const {
  return toom_accumulator_g<i64>(tables_);
}

void ToomCookMultiplier::pointwise_accumulate(Transformed& acc, const Transformed& a,
                                              const Transformed& s) const {
  const LaneShape& sh = tables_.shape;
  lane_conv_acc_g<LaneWord>(sh, acc, packed_lanes(a, sh), packed_lanes(s, sh));
}

std::vector<i64> ToomCookMultiplier::finalize_witness(const Transformed& acc) const {
  return toom_interpolate_g<i64>(acc, tables_);
}

ring::Poly ToomCookMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  return fold_negacyclic<ring::kN>(std::span<const i64>(finalize_witness(acc)),
                                   qbits);
}

}  // namespace saber::mult
