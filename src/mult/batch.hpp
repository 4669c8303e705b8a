// Transform-cached (batched) matrix-vector arithmetic on top of the
// PolyMultiplier split-transform API.
//
// Saber's hot path is the l x l negacyclic matrix-vector product. Computed
// one `multiply` at a time it forward-transforms every operand per product
// and inverse-transforms every product; the helpers here transform each
// a_ij and each s_j exactly once, accumulate rows in the transform domain,
// and inverse-transform once per row — the software analogue of the paper's
// HS-I trick of computing shared secret multiples once instead of 256 times.
//
// PreparedMatrix / PreparedVector additionally cache the public-operand
// transforms across calls, which lets a server amortize them (and the SHAKE
// expansion of A) over a whole batch of encapsulations against one key.
#pragma once

#include <string>
#include <string_view>

#include "mult/multiplier.hpp"
#include "ring/polyvec.hpp"

namespace saber::mult {

/// Public matrix with every element pre-transformed by one multiplier
/// strategy. Valid for consumption by any multiplier instance of the same
/// configuration (same `name()`); the transform layout is per-algorithm, not
/// per-instance. The preparing multiplier's name is recorded, and the
/// prepared overloads below reject a consumer that reports another one.
class PreparedMatrix {
 public:
  PreparedMatrix(const ring::PolyMatrix& a, const PolyMultiplier& m, unsigned qbits);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  unsigned qbits() const { return qbits_; }
  std::string_view algorithm() const { return algorithm_; }
  const Transformed& at(std::size_t r, std::size_t c) const {
    return elems_[r * cols_ + c];
  }

  /// Total i64 values held across every prepared element — the memory
  /// footprint a multiplier's transform layout imposes on a cached matrix
  /// (the supervised lazy layout is measured against the old eager one with
  /// this, see bench_fault_campaign).
  std::size_t value_count() const;

 private:
  std::size_t rows_, cols_;
  unsigned qbits_;
  std::string algorithm_;
  std::vector<Transformed> elems_;
};

/// Public vector (e.g. the key vector b) with pre-transformed elements; the
/// same name-keyed compatibility rule as PreparedMatrix.
class PreparedVector {
 public:
  PreparedVector(const ring::PolyVec& v, const PolyMultiplier& m, unsigned qbits);

  std::size_t size() const { return elems_.size(); }
  unsigned qbits() const { return qbits_; }
  std::string_view algorithm() const { return algorithm_; }
  const Transformed& at(std::size_t i) const { return elems_[i]; }

  /// Total i64 values held across every prepared element.
  std::size_t value_count() const;

 private:
  unsigned qbits_;
  std::string algorithm_;
  std::vector<Transformed> elems_;
};

/// Transform every secret of `s` once. The result is valid at `qbits` and at
/// every smaller modulus (small secrets embed into Z directly; qbits can only
/// widen the image, e.g. the NTT's prime count), so one prepared vector can be
/// shared across products at different moduli — SaberPke::encrypt prepares
/// at q and feeds the same transforms to the mod-q matrix product and the
/// mod-p inner product.
std::vector<Transformed> prepare_secrets(const ring::SecretVec& s,
                                         const PolyMultiplier& m, unsigned qbits);

/// r = A s (or A^T s when `transpose`), reduced mod 2^qbits, with each
/// operand transformed once and one inverse transform per row. Bit-identical
/// to ring::matrix_vector_mul over the same strategy.
ring::PolyVec matrix_vector_mul(const ring::PolyMatrix& a, const ring::SecretVec& s,
                                const PolyMultiplier& m, unsigned qbits,
                                bool transpose);

/// As above, with the public matrix transforms already cached.
ring::PolyVec matrix_vector_mul(const PreparedMatrix& a, const ring::SecretVec& s,
                                const PolyMultiplier& m, bool transpose);

/// As above, with the secret transforms also prepared by the caller
/// (prepare_secrets), e.g. for reuse by a following inner_product.
ring::PolyVec matrix_vector_mul(const ring::PolyMatrix& a,
                                std::span<const Transformed> ts,
                                const PolyMultiplier& m, unsigned qbits,
                                bool transpose);
ring::PolyVec matrix_vector_mul(const PreparedMatrix& a,
                                std::span<const Transformed> ts,
                                const PolyMultiplier& m, bool transpose);

/// <b, s> with each operand transformed once and a single inverse transform.
ring::Poly inner_product(const ring::PolyVec& b, const ring::SecretVec& s,
                         const PolyMultiplier& m, unsigned qbits);

/// As above, with the public vector transforms already cached.
ring::Poly inner_product(const PreparedVector& b, const ring::SecretVec& s,
                         const PolyMultiplier& m);

/// As above, with the secret transforms also prepared by the caller.
ring::Poly inner_product(const ring::PolyVec& b, std::span<const Transformed> ts,
                         const PolyMultiplier& m, unsigned qbits);
ring::Poly inner_product(const PreparedVector& b, std::span<const Transformed> ts,
                         const PolyMultiplier& m);

}  // namespace saber::mult
