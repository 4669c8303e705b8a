// Tests for the vector/matrix layer that Saber's module structure uses.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mult/schoolbook.hpp"
#include "ring/polyvec.hpp"

namespace saber::ring {
namespace {

constexpr unsigned kQ = 13;

class PolyVecTest : public ::testing::Test {
 protected:
  PolyVecTest()
      : mul_([this](const Poly& a, const SecretPoly& s, unsigned qbits) {
          return sb_.multiply_secret(a, s, qbits);
        }) {}

  PolyMatrix random_matrix(std::size_t l) {
    PolyMatrix m(l, l);
    for (std::size_t r = 0; r < l; ++r) {
      for (std::size_t c = 0; c < l; ++c) m.at(r, c) = Poly::random(rng_, kQ);
    }
    return m;
  }

  SecretVec random_secrets(std::size_t l) {
    SecretVec s(l);
    for (auto& poly : s) poly = SecretPoly::random(rng_, 4);
    return s;
  }

  Xoshiro256StarStar rng_{2024};
  mult::SchoolbookMultiplier sb_;
  PolyMulFn mul_;
};

TEST_F(PolyVecTest, MatrixVectorMatchesManualExpansion) {
  const std::size_t l = 3;
  const auto a = random_matrix(l);
  const auto s = random_secrets(l);
  const auto r = matrix_vector_mul(a, s, mul_, kQ, /*transpose=*/false);
  ASSERT_EQ(r.size(), l);
  for (std::size_t i = 0; i < l; ++i) {
    Poly expect{};
    for (std::size_t j = 0; j < l; ++j) {
      expect = add(expect, sb_.multiply_secret(a.at(i, j), s[j], kQ), kQ);
    }
    EXPECT_EQ(r[i], expect) << "row " << i;
  }
}

TEST_F(PolyVecTest, TransposeUsesColumnElements) {
  const std::size_t l = 2;
  const auto a = random_matrix(l);
  const auto s = random_secrets(l);
  const auto rt = matrix_vector_mul(a, s, mul_, kQ, /*transpose=*/true);
  // Build the explicit transpose and multiply without the flag.
  PolyMatrix at(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) at.at(r, c) = a.at(c, r);
  }
  EXPECT_EQ(rt, matrix_vector_mul(at, s, mul_, kQ, false));
}

TEST_F(PolyVecTest, TransposeMattersForAsymmetricMatrices) {
  const std::size_t l = 2;
  auto a = random_matrix(l);
  a.at(0, 1) = Poly::constant(1);
  a.at(1, 0) = Poly::constant(2);
  const auto s = random_secrets(l);
  EXPECT_NE(matrix_vector_mul(a, s, mul_, kQ, false),
            matrix_vector_mul(a, s, mul_, kQ, true));
}

TEST_F(PolyVecTest, InnerProductMatchesSum) {
  const std::size_t l = 4;
  PolyVec b(l);
  for (auto& poly : b) poly = Poly::random(rng_, 10);
  const auto s = random_secrets(l);
  const auto ip = inner_product(b, s, mul_, 10);
  Poly expect{};
  for (std::size_t i = 0; i < l; ++i) {
    expect = add(expect, sb_.multiply_secret(b[i], s[i], 10), 10);
  }
  EXPECT_EQ(ip, expect);
}

TEST_F(PolyVecTest, InnerProductIsBilinearInTheSecretSide) {
  PolyVec b(1);
  b[0] = Poly::random(rng_, kQ);
  SecretVec s1(1), s2(1), sum(1);
  s1[0] = SecretPoly::random(rng_, 2);
  s2[0] = SecretPoly::random(rng_, 2);
  for (std::size_t i = 0; i < kN; ++i) {
    sum[0][i] = static_cast<i8>(s1[0][i] + s2[0][i]);
  }
  const auto lhs = inner_product(b, sum, mul_, kQ);
  const auto rhs =
      add(inner_product(b, s1, mul_, kQ), inner_product(b, s2, mul_, kQ), kQ);
  EXPECT_EQ(lhs, rhs);
}

TEST_F(PolyVecTest, DimensionChecks) {
  PolyMatrix a(2, 2);
  SecretVec s(3);
  EXPECT_THROW(matrix_vector_mul(a, s, mul_, kQ, false), ContractViolation);
  PolyVec b(2);
  EXPECT_THROW(inner_product(b, s, mul_, kQ), ContractViolation);
}

TEST_F(PolyVecTest, MatrixAccessors) {
  PolyMatrix a(3, 3);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 3u);
  a.at(2, 1)[0] = 7;
  EXPECT_EQ(std::as_const(a).at(2, 1)[0], 7u);
}

}  // namespace
}  // namespace saber::ring
