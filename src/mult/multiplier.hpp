// Software polynomial-multiplier strategy interface.
//
// Every algorithm computes the negacyclic product in R_q with q = 2^qbits.
// They form the functional ground truth for the cycle-accurate hardware
// models and the §5.1 software-comparison benchmarks; their operation counts,
// behind the paper's algorithm-level cost discussion, are closed forms in the
// public lengths (analysis::product_ops).
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "ct/tainted.hpp"
#include "ring/poly.hpp"

namespace saber::mult {

/// Transform-domain image of one operand (or one accumulator) under a
/// particular algorithm's split-transform API. The layout is private to the
/// algorithm that produced it: a centered-lift coefficient vector for the
/// convolution algorithms, per-point limb evaluations for Toom-Cook, mod-p1/p2
/// NTT spectra for the NTT backend. Values always fit i64.
using Transformed = std::vector<i64>;

/// Thread safety: the software backends hold no mutable state, so
/// concurrent const calls on one instance are safe. Decorators state their
/// own contract: CheckedMultiplier may be shared, a from_poly_mul adapter
/// over a cycle-accurate core may not (the core is stateful). Transformed
/// images are plain data and may be shared between instances of the same
/// name().
class PolyMultiplier {
 public:
  virtual ~PolyMultiplier() = default;

  virtual std::string_view name() const = 0;

  /// Negacyclic product of two general ring elements, reduced mod 2^qbits:
  /// multiply_witness below, reduced. Decorators override it to intercept
  /// whole products.
  virtual ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                              unsigned qbits) const;

  /// Exact-integer witness (see finalize_witness) of the product of two
  /// general ring elements. The default is the split pipeline below with both
  /// operands prepared as public, so a backend implements only its stages;
  /// the NTT overrides it because a public x public product needs more
  /// headroom than its split images carry.
  virtual std::vector<i64> multiply_witness(const ring::Poly& a, const ring::Poly& b,
                                            unsigned qbits) const;

  /// Product with a small signed secret (Saber's case). The two's-complement
  /// embedding makes this exact for any algorithm working modulo 2^qbits.
  /// (Named distinctly so derived-class `multiply` overrides do not hide it.)
  ring::Poly multiply_secret(const ring::Poly& a, const ring::SecretPoly& s,
                             unsigned qbits) const {
    return multiply(a, s.to_poly(qbits), qbits);
  }

  // --- split-transform API -------------------------------------------------
  //
  // Saber's matrix-vector product reuses each secret s_j in l products and
  // sums l products per row; computing `multiply` per term therefore repeats
  // the operand transform (centered lift / Toom evaluation / forward NTT) and
  // the inverse transform l times per row. The split API transforms each
  // operand exactly once, accumulates in the transform domain, and inverts
  // once per row:
  //
  //   auto acc = m.make_accumulator();
  //   m.pointwise_accumulate(acc, m.prepare_public(a, q), m.prepare_secret(s, q));
  //   ... more terms ...
  //   row = m.finalize(acc, q);
  //
  // Exactness requires the accumulated integer magnitudes to stay inside the
  // backend's headroom. Each backend derives its own safe cap and exposes it
  // as max_accumulated_terms(); the batch helpers reject larger
  // accumulations. Saber's l <= 4 with |s| <= mu/2 is far inside every cap
  // (see docs/modeling.md).

  /// Transform a public (full-width) operand once for reuse across products.
  virtual Transformed prepare_public(const ring::Poly& a, unsigned qbits) const;

  /// Transform a small signed secret once for reuse across products. Small
  /// secrets embed into Z directly, so qbits can at most widen the image (the
  /// NTT picks its prime count from it): a secret prepared at qbits serves
  /// public operands prepared at qbits or less. Callers rely on this to share
  /// one secret transform across moduli, e.g. SaberPke::encrypt prepares it
  /// at q for the mod-q matrix product and reuses it for the mod-p inner
  /// product.
  virtual Transformed prepare_secret(const ring::SecretPoly& s, unsigned qbits) const;

  /// Fresh zero accumulator in this algorithm's transform domain (the NTT's
  /// is empty until its first product fixes the prime count).
  virtual Transformed make_accumulator() const;

  /// acc += a * s in the transform domain (no inverse transform, no modular
  /// masking; exact integer / residue accumulation).
  virtual void pointwise_accumulate(Transformed& acc, const Transformed& a,
                                    const Transformed& s) const;

  /// Inverse-transform the accumulator and reduce mod 2^qbits.
  virtual ring::Poly finalize(const Transformed& acc, unsigned qbits) const;

  /// Exact-integer witness of the accumulated product, before any modular
  /// masking: either the signed linear convolution sum_k a_k * s_k of length
  /// 2N-1 (convolution and Toom-Cook backends) or the exact negacyclic
  /// remainder of length N (NTT backend, whose transform domain never holds
  /// the unfolded convolution). `reduce_witness` turns either form into the
  /// same polynomial `finalize` would return; the algebraic result checkers
  /// in src/robust/ verify the witness at a point mod a large prime, which
  /// is only sound on these pre-mask integers (a masked value mod 2^qbits
  /// has no black-box point check: the discarded carries are unknown).
  virtual std::vector<i64> finalize_witness(const Transformed& acc) const;

  /// Largest number of products one accumulator may safely absorb before
  /// finalize loses exactness, assuming the worst representable inputs
  /// (qbits <= 16, |s| <= 128). Each backend derives its own bound: the
  /// convolution default from i64 range, the NTT backend from its one-prime
  /// lift at qbits <= 13 (p1/2), Toom-Cook from its evaluation/interpolation
  /// constants.
  /// Saber needs l <= 4.
  virtual std::size_t max_accumulated_terms() const;

 protected:
  /// Hook for the default (convolution-domain) split-transform path:
  /// accumulate the signed linear convolution a * s into `acc`
  /// (acc.size() == a.size() + s.size() - 1). schoolbook_acc_g by default;
  /// Karatsuba overrides it with karatsuba_acc_g. Algorithms with a genuine
  /// transform domain (Toom-Cook, NTT) override the five stages instead.
  virtual void conv_accumulate(std::span<const i64> a, std::span<const i64> s,
                               std::span<i64> acc) const;
};

/// Negacyclic fold of a signed linear convolution (length 2N-1) followed by
/// reduction mod 2^qbits. Shared by all convolution-based algorithms.
/// Word-generic: W is the i64 analog (plain or tainted); indices are public.
template <std::size_t N, typename W>
ring::PolyT<N, ct::rebind_t<W, u16>> fold_negacyclic_g(std::span<const W> conv,
                                                       unsigned qbits) {
  SABER_REQUIRE(conv.size() == 2 * N - 1, "convolution length mismatch");
  ring::PolyT<N, ct::rebind_t<W, u16>> r;
  for (std::size_t i = 0; i < N; ++i) {
    W v = conv[i];
    if (i + N < conv.size()) v -= conv[i + N];
    r[i] = ct::cast<u16>(ct::to_twos_complement_g(v, qbits));
  }
  return r;
}

/// Plain-word entry point (the original API).
template <std::size_t N>
ring::PolyT<N> fold_negacyclic(std::span<const i64> conv, unsigned qbits) {
  return fold_negacyclic_g<N, i64>(conv, qbits);
}

/// Reduce a finalize_witness() result to the product polynomial: negacyclic
/// fold for the length-2N-1 convolution form, plain two's-complement masking
/// for the length-N exact-remainder form. `reduce_witness(finalize_witness(acc))
/// == finalize(acc)` for every backend (asserted in tests/mult_test.cpp).
/// Word-generic like fold_negacyclic_g.
template <std::size_t N, typename W = i64>
ring::PolyT<N, ct::rebind_t<W, u16>> reduce_witness(std::span<const W> w,
                                                    unsigned qbits) {
  if (w.size() == 2 * N - 1) return fold_negacyclic_g<N, W>(w, qbits);
  SABER_REQUIRE(w.size() == N, "witness length is neither 2N-1 nor N");
  ring::PolyT<N, ct::rebind_t<W, u16>> r;
  for (std::size_t i = 0; i < N; ++i) {
    r[i] = ct::cast<u16>(ct::to_twos_complement_g(w[i], qbits));
  }
  return r;
}

/// Centered coefficient lift used before integer convolution: interpreting
/// each coefficient mod 2^qbits as a signed value in [-q/2, q/2) keeps the
/// convolution values small without changing the result mod q. Word-generic
/// (and branch-free: the lift is a sign extension of the low qbits).
template <std::size_t N, typename C>
std::vector<ct::rebind_t<C, i64>> centered_lift(const ring::PolyT<N, C>& p,
                                                unsigned qbits) {
  std::vector<ct::rebind_t<C, i64>> v(N);
  for (std::size_t i = 0; i < N; ++i) v[i] = ct::centered_g(p[i], qbits);
  return v;
}

/// Convolution-domain image of a small signed secret: its coefficients
/// sign-extended into the i64 analog (no centering, so no qbits).
template <std::size_t N, typename S>
std::vector<ct::rebind_t<S, i64>> lift_secret(const ring::SecretPolyT<N, S>& s) {
  std::vector<ct::rebind_t<S, i64>> v(N);
  for (std::size_t i = 0; i < N; ++i) v[i] = ct::cast<i64>(s[i]);
  return v;
}

}  // namespace saber::mult
