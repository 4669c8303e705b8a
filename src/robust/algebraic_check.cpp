#include "robust/algebraic_check.hpp"

#include <random>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mult/modmath.hpp"

namespace saber::robust {

using mult::u128;

namespace {

constexpr std::size_t kTwoN = 2 * ring::kN;  // 512, the negacyclic order
/// Rows of the all-root evaluation: two 31-bit halves per root.
constexpr std::size_t kLanes = 2 * PointChecker::kNumSharedRoots;
using Evals = PointChecker::RootEvals;

/// Smallest prime above 2^60 with P == 1 (mod 2N), found once at first use.
/// 2^60 comfortably exceeds the 2^13 * 256 * q bound the check needs (every
/// witness coefficient and every single-bit defect is nonzero mod P) while
/// keeping x0 powers in u64 and lazy u128 accumulation overflow-free.
u64 find_prime() {
  u64 p = ((u64{1} << 60) / kTwoN) * kTwoN + 1;
  while (!mult::is_prime_u64(p)) p += kTwoN;
  return p;
}

/// An element of order exactly 2N mod p: c = g^((p-1)/2N) for the first g
/// with c^N == -1 (order divides 2N and is not a divisor of N).
u64 find_root(u64 p) {
  for (u64 g = 2;; ++g) {
    const u64 c = mult::powmod(g, (p - 1) / kTwoN, p);
    if (mult::powmod(c, ring::kN, p) == p - 1) return c;
  }
}

}  // namespace

PointChecker::PointChecker(unsigned coset_index) {
  build(std::span<const unsigned>(&coset_index, 1));
}

PointChecker::PointChecker(std::span<const unsigned> coset_indices) {
  build(coset_indices);
}

void PointChecker::build(std::span<const unsigned> coset_indices) {
  SABER_REQUIRE(!coset_indices.empty() && coset_indices.size() <= kNumSharedRoots,
                "point checker needs one to kNumSharedRoots roots");
  prime_ = find_prime();
  num_roots_ = coset_indices.size();
  const u64 omega = find_root(prime_);
  pow_.resize(num_roots_ * kPowStride);
  pow_sums_.resize(num_roots_);
  halves_.assign(ring::kN * kLanes, 0);
  for (std::size_t r = 0; r < num_roots_; ++r) {
    // Odd powers of omega are exactly the roots of x^N + 1 mod P.
    const u64 xr = mult::powmod(
        omega, 2 * (coset_indices[r] % ring::kN) + 1, prime_);
    u64* row = pow_.data() + r * kPowStride;
    row[0] = 1;
    for (std::size_t i = 1; i < kPowStride; ++i) {
      row[i] = mult::mulmod(row[i - 1], xr, prime_);
    }
    for (std::size_t i = 0; i < ring::kN; ++i) {
      halves_[2 * r * ring::kN + i] = static_cast<i64>(row[i] & ((u64{1} << 31) - 1));
      halves_[(2 * r + 1) * ring::kN + i] = static_cast<i64>(row[i] >> 31);
    }
    u64 sum = 0;
    for (std::size_t i = 0; i < kPowStride; ++i) {
      sum = mult::addmod(sum, row[i], prime_);
      if (i + 1 == ring::kN) pow_sums_[r][0] = sum;
    }
    pow_sums_[r][1] = sum;
  }
}

const u64* PointChecker::powers(std::size_t root) const {
  SABER_REQUIRE(root < num_roots_, "root index out of range");
  return pow_.data() + root * kPowStride;
}

std::size_t PointChecker::draw_root() const {
  return clock_.fetch_add(1, std::memory_order_relaxed) % num_roots_;
}

// |c_i| <= 2^15 and halves below 2^31: a row sums 256 signed products below
// 2^46, and v = hi * 2^31 + lo lies inside +-2^86. The offset P * 2^26 makes
// v nonnegative (the casts wrap mod 2^128, so the sum is exact), and
// 2^60 == -(P - 2^60) (mod P) folds it below 2P without a division.
template <typename W>
Evals PointChecker::eval_lanes(const std::array<i64, ring::kN>& c) const {
  using LA = mult::LaneAccess<W>;
  std::array<i64, kLanes> sums{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    W acc{};
    for (std::size_t i = 0; i < ring::kN; i += LA::kWidth) {
      acc += LA::mul(LA::load(&c[i]), LA::load(&halves_[l * ring::kN + i]));
    }
    std::array<i64, LA::kWidth> part;
    LA::store(part.data(), acc);
    for (const i64 x : part) sums[l] += x;
  }
  RootEvals e{};
  for (std::size_t r = 0; r < num_roots_; ++r) {
    const u128 v = (static_cast<u128>(sums[2 * r + 1]) << 31) +
                   static_cast<u128>(sums[2 * r]) + (static_cast<u128>(prime_) << 26);
    const u64 x = static_cast<u64>(v & ((u128{1} << 60) - 1)) + prime_ -
                  static_cast<u64>(v >> 60) * (prime_ - (u64{1} << 60));
    e[r] = x >= prime_ ? x - prime_ : x;
  }
  return e;
}

template <typename W>
Evals PointChecker::eval_all(const ring::Poly& a, unsigned qbits) const {
  std::array<i64, ring::kN> c;
  for (std::size_t i = 0; i < ring::kN; ++i) c[i] = ring::centered(a[i], qbits);
  return eval_lanes<W>(c);
}

template <typename W>
Evals PointChecker::eval_all(const ring::SecretPoly& s) const {
  std::array<i64, ring::kN> c;
  for (std::size_t i = 0; i < ring::kN; ++i) c[i] = s[i];
  return eval_lanes<W>(c);
}

template Evals PointChecker::eval_all<i64>(const ring::Poly&, unsigned) const;
template Evals PointChecker::eval_all<i64x8>(const ring::Poly&, unsigned) const;
template Evals PointChecker::eval_all<i64>(const ring::SecretPoly&) const;
template Evals PointChecker::eval_all<i64x8>(const ring::SecretPoly&) const;

u64 PointChecker::eval_public(const ring::Poly& a, unsigned qbits,
                              std::size_t root) const {
  SABER_REQUIRE(root < num_roots_, "root index out of range");
  return eval_all(a, qbits)[root];
}

u64 PointChecker::eval_secret(const ring::SecretPoly& s, std::size_t root) const {
  SABER_REQUIRE(root < num_roots_, "root index out of range");
  return eval_all(s)[root];
}

// The witness adds (c_i + 2^55) * x^i >= 0 and subtracts 2^55 * sum_i x^i
// (precomputed per root and length) once: no branch on a coefficient's sign.
// Biased coefficients stay below 2^56 and powers below 2^61, so up to 2N-1
// lazily accumulated products stay below 2^126. |w_i| < 2^55 is checked once
// over the whole witness: the per-coefficient test is a flag OR.
u64 PointChecker::eval_witness(std::span<const i64> w, std::size_t root) const {
  constexpr i64 kMaxMag = i64{1} << 55;
  SABER_REQUIRE(w.size() == ring::kN || w.size() == kPowStride,
                "witness length is neither N nor 2N-1");
  bool out_of_range = false;
  for (const i64 c : w) out_of_range |= (c >= kMaxMag) | (c <= -kMaxMag);
  SABER_REQUIRE(!out_of_range, "witness coefficient too large");
  const u64* pw = powers(root);
  u128 acc = 0, odd = 0;  // two chains of carries
  std::size_t i = 0;
  for (; i + 1 < w.size(); i += 2) {
    acc += static_cast<u128>(static_cast<u64>(w[i] + kMaxMag)) * pw[i];
    odd += static_cast<u128>(static_cast<u64>(w[i + 1] + kMaxMag)) * pw[i + 1];
  }
  if (i < w.size()) acc += static_cast<u128>(static_cast<u64>(w[i] + kMaxMag)) * pw[i];
  acc += odd;
  const u64 pw_sum = pow_sums_[root][w.size() == ring::kN ? 0 : 1];
  return mult::submod(static_cast<u64>(acc % prime_),
                      mult::mulmod(u64{1} << 55, pw_sum, prime_), prime_);
}

bool PointChecker::verify(u64 ea, u64 es, u64 ew) const {
  return mult::mulmod(ea, es, prime_) == ew;
}

u64 PointChecker::mul(u64 a, u64 b) const { return mult::mulmod(a, b, prime_); }

u64 PointChecker::add(u64 a, u64 b) const { return mult::addmod(a, b, prime_); }

const PointChecker& shared_point_checker() {
  static const PointChecker checker = [] {
    // Draw kNumSharedRoots distinct coset indices once per process, seeded
    // from hardware entropy: an adversarial defect polynomial crafted
    // against any fixed published root set does not know this process's draw.
    std::random_device rd;
    Xoshiro256StarStar rng((static_cast<u64>(rd()) << 32) ^ rd());
    std::array<unsigned, PointChecker::kNumSharedRoots> idx{};
    for (std::size_t i = 0; i < idx.size(); ++i) {
      bool fresh;
      do {
        idx[i] = static_cast<unsigned>(rng.uniform(ring::kN));
        fresh = true;
        for (std::size_t j = 0; j < i; ++j) fresh = fresh && idx[j] != idx[i];
      } while (!fresh);
    }
    return PointChecker(std::span<const unsigned>(idx));
  }();
  return checker;
}

}  // namespace saber::robust
