#include "mult/batch.hpp"

#include "common/check.hpp"

namespace saber::mult {

std::vector<Transformed> prepare_secrets(const ring::SecretVec& s,
                                         const PolyMultiplier& m, unsigned qbits) {
  std::vector<Transformed> ts;
  ts.reserve(s.size());
  for (const auto& sj : s) ts.push_back(m.prepare_secret(sj, qbits));
  return ts;
}

PreparedMatrix::PreparedMatrix(const ring::PolyMatrix& a, const PolyMultiplier& m,
                               unsigned qbits)
    : rows_(a.rows()), cols_(a.cols()), qbits_(qbits), algorithm_(m.name()) {
  elems_.reserve(rows_ * cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      elems_.push_back(m.prepare_public(a.at(r, c), qbits));
    }
  }
}

PreparedVector::PreparedVector(const ring::PolyVec& v, const PolyMultiplier& m,
                               unsigned qbits)
    : qbits_(qbits), algorithm_(m.name()) {
  elems_.reserve(v.size());
  for (const auto& p : v) elems_.push_back(m.prepare_public(p, qbits));
}

std::size_t PreparedMatrix::value_count() const {
  std::size_t n = 0;
  for (const auto& t : elems_) n += t.size();
  return n;
}

std::size_t PreparedVector::value_count() const {
  std::size_t n = 0;
  for (const auto& t : elems_) n += t.size();
  return n;
}

ring::PolyVec matrix_vector_mul(const PreparedMatrix& a,
                                std::span<const Transformed> ts,
                                const PolyMultiplier& m, bool transpose) {
  SABER_REQUIRE(a.algorithm() == m.name(),
                "prepared matrix was transformed by another multiplier");
  SABER_REQUIRE(a.rows() == a.cols(), "matrix must be square");
  SABER_REQUIRE(a.cols() == ts.size(), "dimension mismatch");
  SABER_REQUIRE(ts.size() <= m.max_accumulated_terms(),
                "batch accumulation exceeds exactness headroom");
  const std::size_t l = a.rows();

  ring::PolyVec r(l);
  for (std::size_t i = 0; i < l; ++i) {
    auto acc = m.make_accumulator();
    for (std::size_t j = 0; j < l; ++j) {
      const Transformed& aij = transpose ? a.at(j, i) : a.at(i, j);
      m.pointwise_accumulate(acc, aij, ts[j]);
    }
    r[i] = m.finalize(acc, a.qbits());
  }
  return r;
}

ring::PolyVec matrix_vector_mul(const PreparedMatrix& a, const ring::SecretVec& s,
                                const PolyMultiplier& m, bool transpose) {
  // Each secret transform is shared by all l rows (the per-product loop
  // recomputes it l times); each row runs one inverse transform.
  const auto ts = prepare_secrets(s, m, a.qbits());
  return matrix_vector_mul(a, ts, m, transpose);
}

ring::PolyVec matrix_vector_mul(const ring::PolyMatrix& a,
                                std::span<const Transformed> ts,
                                const PolyMultiplier& m, unsigned qbits,
                                bool transpose) {
  return matrix_vector_mul(PreparedMatrix(a, m, qbits), ts, m, transpose);
}

ring::PolyVec matrix_vector_mul(const ring::PolyMatrix& a, const ring::SecretVec& s,
                                const PolyMultiplier& m, unsigned qbits,
                                bool transpose) {
  return matrix_vector_mul(PreparedMatrix(a, m, qbits), s, m, transpose);
}

ring::Poly inner_product(const PreparedVector& b, std::span<const Transformed> ts,
                         const PolyMultiplier& m) {
  SABER_REQUIRE(b.algorithm() == m.name(),
                "prepared vector was transformed by another multiplier");
  SABER_REQUIRE(b.size() == ts.size(), "dimension mismatch");
  SABER_REQUIRE(ts.size() <= m.max_accumulated_terms(),
                "batch accumulation exceeds exactness headroom");
  auto acc = m.make_accumulator();
  for (std::size_t i = 0; i < b.size(); ++i) {
    m.pointwise_accumulate(acc, b.at(i), ts[i]);
  }
  return m.finalize(acc, b.qbits());
}

ring::Poly inner_product(const PreparedVector& b, const ring::SecretVec& s,
                         const PolyMultiplier& m) {
  const auto ts = prepare_secrets(s, m, b.qbits());
  return inner_product(b, ts, m);
}

ring::Poly inner_product(const ring::PolyVec& b, std::span<const Transformed> ts,
                         const PolyMultiplier& m, unsigned qbits) {
  return inner_product(PreparedVector(b, m, qbits), ts, m);
}

ring::Poly inner_product(const ring::PolyVec& b, const ring::SecretVec& s,
                         const PolyMultiplier& m, unsigned qbits) {
  return inner_product(PreparedVector(b, m, qbits), s, m);
}

}  // namespace saber::mult
