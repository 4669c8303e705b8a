// Randomized conformance harness: a seeded, loopable property-based sweep
// asserting that every registered software backend and every cycle-accurate
// architecture core computes the same negacyclic products as the schoolbook
// reference — coefficient for coefficient — including the split-transform
// prepare/pointwise/finalize path and the exactness contract
// reduce_witness(finalize_witness(acc)) == finalize(acc).
//
// Unlike differential_test.cpp's fixed one-shot checks, the iteration count
// and seed come from the environment, so CI can dial the fuzz budget up
// (scripts/run_all.sh runs a larger sweep than the tier-1 default) and any
// failure reports the exact per-iteration seed to replay it:
//
//   SABER_CONFORMANCE_ITERS=64 SABER_CONFORMANCE_SEED=0x1234 ./conformance_test
//
// The harness also pins Table 1: every `measured` row of the checked-in
// table1.csv must reproduce bit-for-bit against a fresh run of the
// corresponding core, so the paper's headline cycle counts can never drift
// silently.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "conformance_env.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"

namespace saber {
namespace {

constexpr unsigned kQ = 13;

using conformance::base_seed;
using conformance::iter_seed;
using conformance::iterations;

/// Every implementation in the repository, constructed once per suite (the
/// LW cores are expensive to build).
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
};

Implementations& impls() {
  static Implementations i;
  return i;
}

TEST(Conformance, AllBackendsAndCoresAgreeWithSchoolbook) {
  auto& im = impls();
  const auto ref = mult::make_multiplier("schoolbook");
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    const u64 seed = iter_seed(base, iter);
    Xoshiro256StarStar rng(seed);
    const auto a = ring::Poly::random(rng, kQ);
    const auto s = ring::SecretPoly::random(rng, 4);
    const auto expect = ref->multiply_secret(a, s, kQ);
    for (const auto& m : im.sw) {
      EXPECT_EQ(m->multiply_secret(a, s, kQ), expect)
          << m->name() << " diverges from schoolbook (seed 0x" << std::hex << seed
          << ")";
    }
    for (const auto& m : im.hw) {
      EXPECT_EQ(m->multiply(a, s).product, expect)
          << m->name() << " diverges from schoolbook (seed 0x" << std::hex << seed
          << ")";
    }
    // Software backends must also agree at a second modulus (the KEM's
    // mod-p rounding products); the architectures are fixed at kQ.
    const auto a10 = ring::Poly::random(rng, 10);
    const auto expect10 = ref->multiply_secret(a10, s, 10);
    for (const auto& m : im.sw) {
      EXPECT_EQ(m->multiply_secret(a10, s, 10), expect10)
          << m->name() << " diverges at qbits=10 (seed 0x" << std::hex << seed
          << ")";
    }
  }
}

TEST(Conformance, SplitTransformPipelineAndWitnessMatchSchoolbook) {
  auto& im = impls();
  const auto ref = mult::make_multiplier("schoolbook");
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    const u64 seed = iter_seed(base, iter) ^ 0x517EULL;
    Xoshiro256StarStar rng(seed);
    const std::size_t l = 1 + static_cast<std::size_t>(rng.uniform(4));
    const unsigned qbits = rng.uniform(2) == 0 ? 10 : 13;
    std::vector<ring::Poly> as(l);
    std::vector<ring::SecretPoly> ss(l);
    ring::Poly expect{};
    for (std::size_t i = 0; i < l; ++i) {
      as[i] = ring::Poly::random(rng, qbits);
      ss[i] = ring::SecretPoly::random(rng, 4);
      expect = ring::add(expect, ref->multiply_secret(as[i], ss[i], qbits), qbits);
    }
    for (const auto& m : im.sw) {
      if (l > m->max_accumulated_terms()) continue;
      auto acc = m->make_accumulator();
      for (std::size_t i = 0; i < l; ++i) {
        m->pointwise_accumulate(acc, m->prepare_public(as[i], qbits),
                                m->prepare_secret(ss[i], qbits));
      }
      // The witness must be exact: folding the pre-mask integers yields the
      // very polynomial finalize returns (the contract the algebraic fault
      // checks rest on).
      const auto w = m->finalize_witness(acc);
      const auto product = m->finalize(acc, qbits);
      EXPECT_EQ(product, expect)
          << m->name() << " split pipeline diverges (l=" << l << " qbits=" << qbits
          << " seed 0x" << std::hex << seed << ")";
      EXPECT_EQ(mult::reduce_witness<ring::kN>(std::span<const i64>(w), qbits),
                product)
          << m->name() << " witness is not exact (l=" << l << " qbits=" << qbits
          << " seed 0x" << std::hex << seed << ")";
    }
  }
}

// --- Table 1 cycle-count regression -----------------------------------------

struct CsvRow {
  std::string design;
  u64 cycles = 0;
};

/// Parse the first block (the Table 1 reproduction) of table1.csv, returning
/// the `measured` rows. The second block (the design-space sweep) is
/// separated by a blank line and not this test's subject.
std::vector<CsvRow> measured_rows(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<CsvRow> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line) && !line.empty()) {
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string f;
    while (std::getline(ss, f, ',')) fields.push_back(f);
    if (fields.size() < 11 || fields.back() != "measured") continue;
    rows.push_back({fields[0], std::strtoull(fields[2].c_str(), nullptr, 10)});
  }
  return rows;
}

/// Mirror of the design -> architecture mapping in src/analysis/table1.cpp.
/// Kept static here on purpose: if the table generator remaps a design, this
/// test fails loudly instead of silently following along.
const char* arch_for_design(const std::string& design) {
  if (design == "LW (4 MACs)") return "lw4";
  if (design == "HS-I 256") return "hs1-256";
  if (design == "HS-I 512") return "hs1-512";
  if (design == "HS-II (128 DSP)") return "hs2";
  if (design == "[10] re-impl. 256 MACs") return "baseline-256";
  if (design == "[10] re-impl. 512 MACs") return "baseline-512";
  if (design == "[11] Karatsuba (our model)") return "karatsuba-hw";
  return nullptr;
}

TEST(Conformance, Table1MeasuredCyclesMatchFreshRunBitForBit) {
  const auto rows = measured_rows(SABER_TABLE1_CSV);
  ASSERT_GE(rows.size(), 7u) << "table1.csv block 1 lost measured rows";
  Xoshiro256StarStar rng(base_seed());
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  for (const auto& row : rows) {
    const char* arch_name = arch_for_design(row.design);
    ASSERT_NE(arch_name, nullptr)
        << "unmapped measured design in table1.csv: " << row.design;
    const auto arch = arch::make_architecture(arch_name);
    // The CSV records the headline count; a fresh run must reproduce it under
    // the core's documented convention (total for LW, compute+pipeline for
    // the high-speed designs). Both equalities bit-for-bit.
    EXPECT_EQ(arch->headline_cycles(), row.cycles)
        << row.design << " headline drifted from checked-in table1.csv";
    const auto res = arch->multiply(a, s);
    const u64 fresh = arch->headline_includes_overhead()
                          ? res.cycles.total
                          : res.cycles.compute + res.cycles.pipeline;
    EXPECT_EQ(fresh, row.cycles)
        << row.design << " (" << arch_name
        << "): fresh simulation no longer reproduces Table 1";
  }
}

TEST(Conformance, Table1PaperHeadlinesArePinned) {
  // The four paper designs, hard-coded (DAC 2021, Table 1): even a
  // regenerated CSV cannot silently move these.
  const std::pair<const char*, u64> pinned[] = {
      {"lw4", 19057}, {"hs1-256", 256}, {"hs1-512", 128}, {"hs2", 131}};
  for (const auto& [name, cycles] : pinned) {
    EXPECT_EQ(arch::make_architecture(name)->headline_cycles(), cycles) << name;
  }
}

}  // namespace
}  // namespace saber
