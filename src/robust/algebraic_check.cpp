#include "robust/algebraic_check.hpp"

#include <random>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mult/modmath.hpp"

namespace saber::robust {

using mult::u128;

namespace {

constexpr std::size_t kTwoN = 2 * ring::kN;  // 512, the negacyclic order

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
  SABER_REQUIRE(!coset_indices.empty(), "point checker needs at least one root");
  prime_ = find_prime();
  num_roots_ = coset_indices.size();
  const u64 omega = find_root(prime_);
  pow_.resize(num_roots_ * kPowStride);
  pow_sums_.resize(num_roots_);
  for (std::size_t r = 0; r < num_roots_; ++r) {
    // Odd powers of omega are exactly the roots of x^N + 1 mod P.
    const u64 xr = mult::powmod(
        omega, 2 * (coset_indices[r] % ring::kN) + 1, prime_);
    u64* row = pow_.data() + r * kPowStride;
    row[0] = 1;
    for (std::size_t i = 1; i < kPowStride; ++i) {
      row[i] = mult::mulmod(row[i - 1], xr, prime_);
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

// The evaluations add (c_i + bias) * x^i, which is never negative, and
// subtract bias * sum_i x^i (precomputed per root and length) once: no branch
// on the sign of a coefficient, and the same residue the signed sum has.
// Biased coefficients stay below 2^56 and powers below 2^61, so up to 2N-1
// lazily accumulated products stay below 2^126 < 2^128.
template <typename Coeff>
u64 PointChecker::eval_biased(std::size_t n, Coeff coeff, u64 bias,
                              std::size_t root) const {
  SABER_REQUIRE(n == ring::kN || n == kPowStride, "witness length is neither N nor 2N-1");
  const u64* pw = powers(root);
  u128 acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<u128>(static_cast<u64>(coeff(i)) + bias) * pw[i];
  }
  const u64 pw_sum = pow_sums_[root][n == ring::kN ? 0 : 1];
  return mult::submod(static_cast<u64>(acc % prime_),
                      mult::mulmod(bias % prime_, pw_sum, prime_), prime_);
}

u64 PointChecker::eval_public(const ring::Poly& a, unsigned qbits,
                              std::size_t root) const {
  // Centered lift so the evaluation matches the integers every backend
  // actually convolves. A u16 coefficient lifts to at least -2^15 at any
  // qbits, and below 2^16.
  return eval_biased(
      ring::kN, [&](std::size_t i) -> i64 { return ring::centered(a[i], qbits); },
      u64{1} << 15, root);
}

u64 PointChecker::eval_secret(const ring::SecretPoly& s, std::size_t root) const {
  return eval_biased(
      ring::kN, [&](std::size_t i) -> i64 { return s[i]; }, 128, root);
}

u64 PointChecker::eval_witness(std::span<const i64> w, std::size_t root) const {
  // |w_i| < 2^55, checked once over the whole witness: the per-coefficient
  // test is a flag OR, not a branch.
  constexpr i64 kMaxMag = i64{1} << 55;
  bool out_of_range = false;
  for (const i64 c : w) out_of_range |= (c >= kMaxMag) | (c <= -kMaxMag);
  SABER_REQUIRE(!out_of_range, "witness coefficient too large");
  return eval_biased(
      w.size(), [&](std::size_t i) { return w[i]; }, static_cast<u64>(kMaxMag), root);
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
