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
  for (std::size_t r = 0; r < num_roots_; ++r) {
    // Odd powers of omega are exactly the roots of x^N + 1 mod P.
    const u64 xr = mult::powmod(
        omega, 2 * (coset_indices[r] % ring::kN) + 1, prime_);
    u64* row = pow_.data() + r * kPowStride;
    row[0] = 1;
    for (std::size_t i = 1; i < kPowStride; ++i) {
      row[i] = mult::mulmod(row[i - 1], xr, prime_);
    }
  }
}

const u64* PointChecker::powers(std::size_t root) const {
  SABER_REQUIRE(root < num_roots_, "root index out of range");
  return pow_.data() + root * kPowStride;
}

std::size_t PointChecker::draw_root() const {
  return clock_.fetch_add(1, std::memory_order_relaxed) % num_roots_;
}

u64 PointChecker::eval_public(const ring::Poly& a, unsigned qbits,
                              std::size_t root) const {
  const u64* pw = powers(root);
  // Centered lift so the evaluation matches the integers every backend
  // actually convolves.
  u128 pos = 0, neg = 0;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    const i64 c = ring::centered(a[i], qbits);
    if (c >= 0) {
      pos += static_cast<u128>(static_cast<u64>(c)) * pw[i];
    } else {
      neg += static_cast<u128>(static_cast<u64>(-c)) * pw[i];
    }
  }
  return mult::submod(static_cast<u64>(pos % prime_),
                      static_cast<u64>(neg % prime_), prime_);
}

u64 PointChecker::eval_secret(const ring::SecretPoly& s, std::size_t root) const {
  const u64* pw = powers(root);
  u128 pos = 0, neg = 0;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    const i64 c = s[i];
    if (c >= 0) {
      pos += static_cast<u128>(static_cast<u64>(c)) * pw[i];
    } else {
      neg += static_cast<u128>(static_cast<u64>(-c)) * pw[i];
    }
  }
  return mult::submod(static_cast<u64>(pos % prime_),
                      static_cast<u64>(neg % prime_), prime_);
}

u64 PointChecker::eval_witness(std::span<const i64> w, std::size_t root) const {
  SABER_REQUIRE(w.size() == ring::kN || w.size() == 2 * ring::kN - 1,
                "witness length is neither N nor 2N-1");
  const u64* pw = powers(root);
  // Lazy reduction: |w_i| < 2^55 and pow < 2^61 keep each product below
  // 2^116; 511 terms stay below 2^125 < 2^128.
  constexpr i64 kMaxMag = i64{1} << 55;
  u128 pos = 0, neg = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const i64 c = w[i];
    SABER_REQUIRE(c < kMaxMag && c > -kMaxMag, "witness coefficient too large");
    if (c >= 0) {
      pos += static_cast<u128>(static_cast<u64>(c)) * pw[i];
    } else {
      neg += static_cast<u128>(static_cast<u64>(-c)) * pw[i];
    }
  }
  return mult::submod(static_cast<u64>(pos % prime_),
                      static_cast<u64>(neg % prime_), prime_);
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
