// Tests for the analysis/reporting layer: table rendering, Table-1 assembly,
// KEM cycle profile, and the derived §5 claims.
#include <gtest/gtest.h>

#include "analysis/comparisons.hpp"
#include "analysis/csv.hpp"
#include "analysis/profile.hpp"
#include "analysis/table.hpp"
#include "analysis/table1.hpp"
#include "mult/karatsuba.hpp"
#include "mult/ntt.hpp"
#include "mult/strategy.hpp"
#include "mult/toomcook.hpp"

namespace saber::analysis {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(std::uint64_t{19471}), "19471");
  EXPECT_EQ(TextTable::num(0.399, 2), "0.40");
  EXPECT_EQ(TextTable::num(56.04, 1), "56.0");
}

TEST(Table1, ContainsEveryPaperRow) {
  const auto rows = build_table1();
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0].design, "LW (4 MACs)");
  EXPECT_TRUE(rows[0].measured);
  EXPECT_EQ(rows[0].paper_cycles, 19471u);
  EXPECT_FALSE(rows[4].measured);  // [7] literature row
  EXPECT_EQ(rows[4].cycles, 8176u);
  EXPECT_EQ(rows[7].design, "[11] Karatsuba (our model)");
}

TEST(Table1, MeasuredValuesWithinTenPercentOfPaper) {
  for (const auto& row : build_table1()) {
    if (!row.measured || !row.paper_cycles) continue;
    ASSERT_TRUE(row.paper_cycles && row.paper_lut && row.paper_ff);
    EXPECT_NEAR(static_cast<double>(row.cycles), static_cast<double>(*row.paper_cycles),
                0.05 * static_cast<double>(*row.paper_cycles))
        << row.design;
    EXPECT_NEAR(static_cast<double>(row.lut), static_cast<double>(*row.paper_lut),
                0.10 * static_cast<double>(*row.paper_lut))
        << row.design;
    EXPECT_EQ(row.dsp, *row.paper_dsp) << row.design;
  }
}

TEST(Table1, RenderingIncludesPaperValues) {
  const auto rows = build_table1();
  const auto text = render_table1(rows);
  EXPECT_NE(text.find("(19471)"), std::string::npos);
  EXPECT_NE(text.find("(15625)"), std::string::npos);
  EXPECT_NE(text.find("reported"), std::string::npos);
}

TEST(Table1, ClaimsAndStructures) {
  const auto claims = render_claims(build_table1());
  EXPECT_NE(claims.find("paper 22%"), std::string::npos);
  EXPECT_NE(claims.find("paper 46%"), std::string::npos);
  const auto structures = render_structures();
  EXPECT_NE(structures.find("Fig. 4"), std::string::npos);
  EXPECT_NE(structures.find("central multiple generator"), std::string::npos);
}

TEST(Profile, HighSpeedMultShareNearPaper) {
  // §1: multiplication takes "up to 56%" of the KEM time on the [10]-class
  // design; our coprocessor model must land in that neighbourhood.
  auto arch = arch::make_architecture("baseline-256");
  const auto p = profile_kem(kem::kSaber, *arch);
  EXPECT_GT(p.encaps.mult_share(), 0.45);
  EXPECT_LT(p.encaps.mult_share(), 0.65);
  EXPECT_GT(p.mult_share(), 0.45);
  EXPECT_LT(p.mult_share(), 0.70);
}

TEST(Profile, FasterMultiplierLowersShare) {
  auto slow = arch::make_architecture("hs1-256");
  auto fast = arch::make_architecture("hs1-512");
  const auto ps = profile_kem(kem::kSaber, *slow);
  const auto pf = profile_kem(kem::kSaber, *fast);
  EXPECT_LT(pf.mult_share(), ps.mult_share());
  EXPECT_LT(pf.total(), ps.total());
}

TEST(Profile, LightweightIsMultiplicationBound) {
  auto lw = arch::make_architecture("lw4");
  const auto p = profile_kem(kem::kSaber, *lw);
  EXPECT_GT(p.mult_share(), 0.95);
}

TEST(Profile, DecapsCostsMoreThanKeygen) {
  // decaps = decrypt + full re-encryption: always the most expensive phase.
  auto arch = arch::make_architecture("hs1-256");
  const auto p = profile_kem(kem::kSaber, *arch);
  EXPECT_GT(p.decaps.total(), p.encaps.total());
  EXPECT_GT(p.encaps.total(), p.keygen.total());
}

TEST(Profile, RenderMentionsPaperClaim) {
  auto arch = arch::make_architecture("hs1-256");
  const auto p = profile_kem(kem::kSaber, *arch);
  const auto text = render_profile(kem::kSaber, p, "hs1-256");
  EXPECT_NE(text.find("up to 56%"), std::string::npos);
  EXPECT_NE(text.find("KeyGen"), std::string::npos);
}

TEST(Csv, Table1ExportIsWellFormed) {
  const auto csv = table1_csv(build_table1());
  // Header + 8 rows, 11 fields each.
  std::size_t lines = 0, commas_first_row = 0;
  for (std::size_t pos = 0; pos < csv.size(); ++pos) {
    if (csv[pos] == '\n') ++lines;
  }
  EXPECT_EQ(lines, 9u);
  const auto first_row = csv.substr(csv.find('\n') + 1);
  for (char ch : first_row.substr(0, first_row.find('\n'))) {
    if (ch == ',') ++commas_first_row;
  }
  EXPECT_EQ(commas_first_row, 10u);
  EXPECT_NE(csv.find("19057,19471"), std::string::npos);
}

TEST(Csv, DesignSpaceExportCoversAllArchitectures) {
  const auto csv = design_space_csv();
  for (const char* name : {"lw4", "hs1-256", "hs2-wide", "karatsuba-hw", "ntt-hw"}) {
    EXPECT_NE(csv.find(name), std::string::npos) << name;
  }
}

TEST(Comparisons, TablesRender) {
  const auto lw = render_lightweight_comparison();
  EXPECT_NE(lw.find("71349"), std::string::npos);       // RISQ-V row
  EXPECT_NE(lw.find("~19000"), std::string::npos);      // [14] row
  const auto ops = render_algorithm_ops();
  EXPECT_NE(ops.find("schoolbook"), std::string::npos);
  EXPECT_NE(ops.find("65536"), std::string::npos);      // 256^2 mults
}

// --- operation counts (E5/A3) ------------------------------------------------

// A word that tallies its own arithmetic, so the shipped kernels instantiated
// over it report how many mults and adds they actually execute.
OpCounts g_tally;

struct CountingWord {
  i64 v = 0;
  CountingWord() = default;
  CountingWord(i64 x) : v(x) {}

  friend CountingWord operator*(CountingWord a, CountingWord b) {
    ++g_tally.coeff_mults;
    return a.v * b.v;
  }
  friend CountingWord operator+(CountingWord a, CountingWord b) {
    ++g_tally.coeff_adds;
    return a.v + b.v;
  }
  friend CountingWord operator-(CountingWord a, CountingWord b) {
    ++g_tally.coeff_adds;
    return a.v - b.v;
  }
  CountingWord& operator+=(CountingWord o) { return *this = *this + o; }
  // Uncounted: the exact divisions and checks the models leave out.
  explicit operator i64() const { return v; }
  friend bool operator==(const CountingWord&, const CountingWord&) = default;
};

using CW = CountingWord;

// Tally of `kernel(a, b, acc)` on two n-coefficient operands (the kernels'
// loop shapes do not depend on the values).
template <typename Kernel>
OpCounts executed_ops(std::size_t n, Kernel kernel) {
  std::vector<CW> a(n), b(n), acc(2 * n - 1);
  g_tally = {};
  kernel(std::span<const CW>(a), std::span<const CW>(b), std::span<CW>(acc));
  return g_tally;
}

OpCounts ops_of(std::string_view name) {
  return product_ops(*mult::make_multiplier(name));
}

TEST(ProductOps, RecursionMatchesExecutedKernels) {
  EXPECT_EQ(executed_ops(ring::kN, &mult::schoolbook_acc_g<CW>), ops_of("schoolbook"));
  for (const unsigned levels : {0u, 1u, 2u, 4u, 6u, 8u}) {
    const auto run = [levels](auto a, auto b, auto acc) {
      mult::karatsuba_acc_g<CW>(a, b, acc, levels);
    };
    EXPECT_EQ(executed_ops(ring::kN, run), karatsuba_ops(ring::kN, levels))
        << "levels=" << levels;
    EXPECT_EQ(karatsuba_ops(ring::kN, levels),
              product_ops(mult::KaratsubaMultiplier(levels)));
  }
  // The shipped Toom stages: two prepares (Horner evaluation and the
  // Karatsuba pre-adds), one lane-sliced pointwise product over every leaf
  // and one finalize (Karatsuba recombination and interpolation).
  for (const unsigned parts : {3u, 4u}) {
    const auto& t = mult::toom_tables(parts);
    const std::vector<CW> p(ring::kN);
    g_tally = {};
    std::vector<CW> ta(t.shape.len * t.shape.lanes), ts(ta.size());
    mult::toom_prepare_g<CW>(p, t, std::span<CW>(ta));
    mult::toom_prepare_g<CW>(p, t, std::span<CW>(ts));
    auto acc = mult::toom_accumulator_g<CW>(t);
    mult::lane_conv_acc_g<CW>(t.shape, acc, ta, ts);
    (void)mult::toom_interpolate_g<CW>(acc, t);
    EXPECT_EQ(g_tally, product_ops(mult::ToomCookMultiplier(parts))) << "parts=" << parts;
  }
  // A 2 x 3 schoolbook convolution: six products, six adds.
  std::vector<CW> a = {1, 2}, b = {3, 4, 5}, out(4);
  g_tally = {};
  mult::schoolbook_conv_g<CW>(a, b, out);
  EXPECT_EQ(g_tally, (OpCounts{6, 6}));
}

TEST(ProductOps, E5RowsArePinned) {
  EXPECT_EQ(ops_of("schoolbook"), (OpCounts{65536, 65536}));
  EXPECT_EQ(ops_of("karatsuba-8"), (OpCounts{6561, 72382}));
  EXPECT_EQ(ops_of("toom3"), (OpCounts{33386, 37216}));
  EXPECT_EQ(ops_of("toom4"), (OpCounts{24655, 33188}));
  EXPECT_EQ(ops_of("ntt"), (OpCounts{7424, 13056}));
}

TEST(ProductOps, A3RowsArePinned) {
  const std::pair<unsigned, OpCounts> rows[] = {
      {0, {65536, 66047}}, {1, {49152, 51448}}, {2, {36864, 41827}},
      {4, {20736, 35527}}, {6, {11664, 46867}}, {8, {6561, 72382}}};
  for (const auto& [levels, ops] : rows) {
    EXPECT_EQ(product_ops(mult::KaratsubaMultiplier(levels)), ops) << "levels=" << levels;
  }
}

TEST(ProductOps, NttRowIsTwoPrimeTransforms) {
  // Per prime: a forward NTT is 8 stages of N/2 butterflies (one mult, two
  // adds each); an inverse adds the N^-1 scaling. multiply_witness runs two
  // forwards and one inverse per prime, 2N pointwise products and the CRT
  // lift (N mults, N adds).
  constexpr u64 n = ring::kN;
  const OpCounts fwd{n / 2 * 8, n * 8}, inv{n / 2 * 8 + n, n * 8};
  EXPECT_EQ(ops_of("ntt"),
            (OpCounts{4 * fwd.coeff_mults + 2 * inv.coeff_mults + 2 * n + n,
                      4 * fwd.coeff_adds + 2 * inv.coeff_adds + 2 * n + n}));
}

TEST(ProductOps, UnknownBackendThrows) {
  const auto fn = mult::from_poly_mul([](const ring::Poly& a, const ring::SecretPoly&,
                                         unsigned) { return a; });
  EXPECT_THROW(product_ops(*fn), ContractViolation);
}

TEST(Karatsuba, OpCountShrinksWithDepth) {
  // Depth 0 is schoolbook's count; every level cuts the multiplications.
  u64 prev_mults = ops_of("schoolbook").coeff_mults;
  EXPECT_EQ(product_ops(mult::KaratsubaMultiplier(0)).coeff_mults, prev_mults);
  for (unsigned levels : {2u, 4u, 8u}) {
    const auto mults = product_ops(mult::KaratsubaMultiplier(levels)).coeff_mults;
    EXPECT_LT(mults, prev_mults) << "levels=" << levels;
    prev_mults = mults;
  }
  // Full depth: 3^8 one-coefficient base multiplications.
  EXPECT_EQ(prev_mults, 6561u);
}

TEST(ToomCook, SubMultiplicationCount) {
  // Toom-4 uses 7 size-64 sub-multiplications; with two Karatsuba levels
  // layered below, each is 9 size-16 schoolbook leaves: 7 * 9 * 16^2 = 16128
  // base multiplications.
  const auto ops = ops_of("toom4");
  EXPECT_EQ(ops.coeff_mults - 7u * 7u * 127u -  // interpolation weights
                2u * 3u * 6u * 64u,             // evaluation Horner steps
            16128u);
  // The leaves count each add into the accumulator once (the E5 table's
  // Toom-4 row).
  EXPECT_EQ(ops.coeff_adds, 33188u);
}

}  // namespace
}  // namespace saber::analysis
