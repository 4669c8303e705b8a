// Differential harness: every implementation of negacyclic multiplication in
// the repository — every registered software algorithm and hardware
// architecture model — must agree pairwise on randomized and structured
// inputs. A single run exercises tens of thousands of coefficient
// cross-checks; any divergence pinpoints the odd implementation out.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"

namespace saber {
namespace {

constexpr unsigned kQ = 13;

struct Implementations {
  std::vector<std::unique_ptr<mult::PolyMultiplier>> sw;
  std::vector<std::unique_ptr<arch::HwMultiplier>> hw;

  Implementations() {
    for (const auto name : mult::multiplier_names()) {
      sw.push_back(mult::make_multiplier(name));
    }
    for (const auto name : arch::architecture_names()) {
      hw.push_back(arch::make_architecture(name));
    }
  }

  // Returns all products of (a, s); the test asserts they are identical.
  std::vector<std::pair<std::string, ring::Poly>> all_products(
      const ring::Poly& a, const ring::SecretPoly& s) {
    std::vector<std::pair<std::string, ring::Poly>> out;
    for (const auto& m : sw) {
      out.emplace_back(std::string(m->name()), m->multiply_secret(a, s, kQ));
    }
    for (const auto& m : hw) {
      out.emplace_back(std::string(m->name()), m->multiply(a, s).product);
    }
    return out;
  }
};

void expect_all_equal(const std::vector<std::pair<std::string, ring::Poly>>& products,
                      const char* context) {
  for (std::size_t i = 1; i < products.size(); ++i) {
    EXPECT_EQ(products[i].second, products[0].second)
        << context << ": " << products[i].first << " vs " << products[0].first;
  }
}

TEST(Differential, RandomizedSweep) {
  Implementations impls;
  Xoshiro256StarStar rng(424242);
  for (int iter = 0; iter < 8; ++iter) {
    const auto a = ring::Poly::random(rng, kQ);
    const auto s = ring::SecretPoly::random(rng, 4);
    expect_all_equal(impls.all_products(a, s), "random");
  }
}

TEST(Differential, StructuredOperands) {
  Implementations impls;
  // Structured patterns that historically break multiplier datapaths:
  // impulses at the wrap boundary, alternating signs, saturated values,
  // sparse-but-extreme coefficients.
  std::vector<std::pair<ring::Poly, ring::SecretPoly>> cases;
  {
    ring::Poly imp{};
    imp[255] = 8191;
    ring::SecretPoly sp{};
    sp[255] = -4;
    cases.emplace_back(imp, sp);
  }
  {
    ring::Poly alt{};
    ring::SecretPoly sp{};
    for (std::size_t i = 0; i < ring::kN; ++i) {
      alt[i] = (i % 2 == 0) ? 8191 : 1;
      sp[i] = static_cast<i8>((i % 3 == 0) ? 4 : ((i % 3 == 1) ? -4 : 0));
    }
    cases.emplace_back(alt, sp);
  }
  {
    ring::Poly sparse{};
    ring::SecretPoly sp{};
    for (std::size_t i = 0; i < ring::kN; i += 64) {
      sparse[i] = 4096;
      sp[i + 63] = static_cast<i8>((i / 64) % 2 == 0 ? 4 : -4);
    }
    cases.emplace_back(sparse, sp);
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    expect_all_equal(impls.all_products(cases[c].first, cases[c].second),
                     ("structured case " + std::to_string(c)).c_str());
  }
}

TEST(Differential, AccumulationChains) {
  // Inner-product chains (the Saber usage pattern): software accumulation
  // must equal every architecture's MAC mode after l terms.
  Implementations impls;
  Xoshiro256StarStar rng(31415);
  const std::size_t l = 3;
  std::vector<ring::Poly> as(l);
  std::vector<ring::SecretPoly> ss(l);
  for (std::size_t i = 0; i < l; ++i) {
    as[i] = ring::Poly::random(rng, kQ);
    ss[i] = ring::SecretPoly::random(rng, 4);
  }
  // Software reference.
  ring::Poly expect{};
  for (std::size_t i = 0; i < l; ++i) {
    expect = ring::add(expect, impls.sw[0]->multiply_secret(as[i], ss[i], kQ), kQ);
  }
  for (const auto& m : impls.hw) {
    ring::Poly acc{};
    for (std::size_t i = 0; i < l; ++i) {
      acc = m->multiply(as[i], ss[i], i == 0 ? nullptr : &acc).product;
    }
    EXPECT_EQ(acc, expect) << m->name();
  }
}

}  // namespace
}  // namespace saber
