// Algebraic result checking for polynomial products: evaluate the operands
// and the exact-integer witness of the product at a point mod a large prime
// and compare. Costs O(N) multiplies instead of the O(N^2) schoolbook
// re-derivation the reference check pays, which is what pushes the `full`
// checking policy from ~1.12x down to ~1.01x per multiply.
//
// Soundness only holds on *pre-mask* integers, which is why the check runs
// on `PolyMultiplier::finalize_witness()` output (the signed linear
// convolution, or the NTT backend's exact negacyclic remainder) and never on
// values already reduced mod 2^qbits: a masked coefficient has discarded its
// carries, and without the carry polynomial no black-box point identity
// exists mod a power of two.
#pragma once

#include <array>
#include <atomic>
#include <span>
#include <vector>

#include "mult/multiplier.hpp"
#include "ring/poly.hpp"

namespace saber::robust {

/// Evaluates polynomials at points of the coset {x : x^N == -1} mod a ~2^60
/// prime P with P == 1 (mod 2N). Because x0^N == -1, the negacyclic identity
/// a(x) * s(x) == w(x) (mod x^N + 1) survives evaluation for BOTH witness
/// forms: the length-2N-1 linear convolution and the length-N folded
/// remainder give the same value at every such x0.
///
/// A checker holds one or more precomputed roots. A fixed, publicly-known
/// evaluation point has a soundness gap: an adversarially-crafted defect
/// polynomial d(x) with d(x0) == 0 (mod P) passes the check at x0 while
/// changing the product. Rotating among several roots closes that gap to
/// defects vanishing at EVERY checked root simultaneously — each extra root
/// multiplies the escape probability of a degree-d defect by <= d/P (see
/// docs/robustness.md). `draw_root()` gives the per-check rotation.
///
/// All checkers share one prime; everything reached through
/// shared_point_checker() also shares one root set. Tests may pick explicit
/// coset indices via the span constructor.
///
/// Detection: a fault that perturbs the witness by a defect polynomial d(x)
/// escapes root r iff d(x_r) == 0 (mod P). Single-coefficient defects (the
/// injected fault model) have d = c * x^i with 0 < |c| < 2^63 < P, and P
/// prime means d(x_r) != 0 -- they are ALWAYS caught, at every root.
class PointChecker {
 public:
  static constexpr unsigned kDefaultCosetIndex = 97;
  /// Number of rotation roots the process-wide shared checker precomputes.
  static constexpr std::size_t kNumSharedRoots = 4;

  /// Single fixed root (the pre-rotation behavior; tests use this to model
  /// the adversary's target).
  explicit PointChecker(unsigned coset_index = kDefaultCosetIndex);

  /// One root per coset index, in order. Index i selects the odd power
  /// omega^(2*(i mod N) + 1), i.e. a root of x^N + 1 mod P.
  explicit PointChecker(std::span<const unsigned> coset_indices);

  std::size_t num_roots() const { return num_roots_; }
  u64 prime() const { return prime_; }
  u64 point(std::size_t root = 0) const { return powers(root)[1]; }

  /// Evaluate a full-width operand (centered lift, matching what every
  /// backend multiplies) at root `root`. Result in [0, P).
  u64 eval_public(const ring::Poly& a, unsigned qbits, std::size_t root = 0) const;

  /// Evaluate a small signed secret at root `root`.
  u64 eval_secret(const ring::SecretPoly& s, std::size_t root = 0) const;

  /// Evaluate a finalize_witness() result (length 2N-1 or N) at root `root`.
  /// Coefficient magnitudes must stay below 2^55 (far above any realizable
  /// accumulation; keeps the lazily-reduced u128 sums inside range).
  u64 eval_witness(std::span<const i64> w, std::size_t root = 0) const;

  /// Does ea * es == ew (mod P)? (All three must be evaluations at the SAME
  /// root.)
  bool verify(u64 ea, u64 es, u64 ew) const;

  /// Rotating per-check root selection: consecutive calls cycle through the
  /// precomputed roots (atomic; thread-safe). Which root a particular check
  /// lands on is scheduling-dependent under concurrency — soundness does not
  /// care, every root accepts every true product.
  std::size_t draw_root() const;

  u64 mul(u64 a, u64 b) const;
  u64 add(u64 a, u64 b) const;

 private:
  // x_r^i for i < 2N-1 (the longest witness), one stride per root.
  static constexpr std::size_t kPowStride = 2 * ring::kN - 1;

  void build(std::span<const unsigned> coset_indices);
  const u64* powers(std::size_t root) const;
  /// sum_i c_i x_r^i mod P over n <= kPowStride signed coefficients with
  /// |c_i| <= bias, without a sign branch (see algebraic_check.cpp).
  template <typename Coeff>
  u64 eval_biased(std::size_t n, Coeff coeff, u64 bias, std::size_t root) const;

  u64 prime_ = 0;
  std::size_t num_roots_ = 0;
  std::vector<u64> pow_;  ///< num_roots_ x kPowStride, row-major
  /// Per root: sum_{i<N} x_r^i and sum_{i<2N-1} x_r^i mod P.
  std::vector<std::array<u64, 2>> pow_sums_;
  mutable std::atomic<u64> clock_{0};  ///< draw_root rotation
};

/// The process-wide shared checker (thread-safe magic-static initialization;
/// immutable afterwards). Holds kNumSharedRoots roots whose coset indices
/// are drawn once per process from an entropy-seeded draw: an adversary
/// cannot know at build time which roots a running process will evaluate.
/// Every root accepts every true product, so the draw changes no result.
const PointChecker& shared_point_checker();

}  // namespace saber::robust
