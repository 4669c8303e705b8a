// Algebraic result checking for polynomial products: evaluate the operands
// and the exact-integer witness of the product at a point mod a large prime
// and compare. Costs O(N) multiplies instead of the O(N^2) schoolbook
// re-derivation the reference check pays. A checked operand carries its
// evaluations at every root from prepare time, so a checked row's finalize
// evaluates only its witness (docs/robustness.md has the cost table).
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
#include "mult/schoolbook.hpp"
#include "ring/poly.hpp"

namespace saber::robust {

/// Evaluates polynomials at points of the coset {x : x^N == -1} mod a ~2^60
/// prime P with P == 1 (mod 2N). Because x0^N == -1, the negacyclic identity
/// a(x) * s(x) == w(x) (mod x^N + 1) survives evaluation for BOTH witness
/// forms (the length-2N-1 linear convolution and the length-N remainder).
///
/// A fixed, publicly-known point has a soundness gap: a crafted defect d(x)
/// with d(x0) == 0 (mod P) passes at x0 while changing the product. Rotating
/// among several roots (`draw_root()`) narrows it to defects vanishing at
/// EVERY checked root; each extra root multiplies the escape probability of
/// a degree-d defect by <= d/P (docs/robustness.md). All checkers share one
/// prime; shared_point_checker() also shares one root set.
///
/// Single-coefficient defects (the injected fault model) have d = c * x^i
/// with 0 < |c| < 2^63 < P, so d(x_r) != 0: they are caught at every root.
class PointChecker {
 public:
  static constexpr unsigned kDefaultCosetIndex = 97;
  /// Number of rotation roots the process-wide shared checker precomputes.
  static constexpr std::size_t kNumSharedRoots = 4;

  /// One operand's evaluations at every root (entries past num_roots() are 0).
  using RootEvals = std::array<u64, kNumSharedRoots>;

  /// Single fixed root (the pre-rotation behavior; tests use this to model
  /// the adversary's target).
  explicit PointChecker(unsigned coset_index = kDefaultCosetIndex);

  /// One root per coset index (at most kNumSharedRoots), in order. Index i
  /// selects the odd power omega^(2*(i mod N) + 1), a root of x^N + 1 mod P.
  explicit PointChecker(std::span<const unsigned> coset_indices);

  std::size_t num_roots() const { return num_roots_; }
  u64 prime() const { return prime_; }
  u64 point(std::size_t root = 0) const { return powers(root)[1]; }

  /// Evaluate a full-width operand (centered lift, matching what every
  /// backend multiplies) or a small signed secret at root `root`, in [0, P).
  u64 eval_public(const ring::Poly& a, unsigned qbits, std::size_t root = 0) const;
  u64 eval_secret(const ring::SecretPoly& s, std::size_t root = 0) const;

  /// The same evaluations at every root in one lane pass, what a checked
  /// operand carries. Row 2r + h of the power table holds the h-th 31-bit
  /// half of x_r^i; W sums c_i times it over its lanes with vpmuldq's signed
  /// widening product, so centered coefficients need no bias. Each root
  /// reduces mod P once, at the end. Production runs mult::LaneWord; the
  /// tests run both words.
  template <typename W = mult::LaneWord>
  RootEvals eval_all(const ring::Poly& a, unsigned qbits) const;
  template <typename W = mult::LaneWord>
  RootEvals eval_all(const ring::SecretPoly& s) const;

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
  template <typename W>
  RootEvals eval_lanes(const std::array<i64, ring::kN>& c) const;

  u64 prime_ = 0;
  std::size_t num_roots_ = 0;
  std::vector<u64> pow_;  ///< num_roots_ x kPowStride, row-major
  /// Per root: sum_{i<N} x_r^i and sum_{i<2N-1} x_r^i mod P.
  std::vector<std::array<u64, 2>> pow_sums_;
  /// 2 * kNumSharedRoots rows of kN: the 31-bit halves of x_r^i.
  std::vector<i64> halves_;
  /// draw_root rotation; own cache line, as every check writes it.
  alignas(64) mutable std::atomic<u64> clock_{0};
};

/// The process-wide shared checker (thread-safe magic-static initialization;
/// immutable afterwards). Holds kNumSharedRoots roots whose coset indices
/// are drawn once per process from an entropy-seeded draw: an adversary
/// cannot know at build time which roots a running process will evaluate.
/// Every root accepts every true product, so the draw changes no result.
const PointChecker& shared_point_checker();

}  // namespace saber::robust
