// Architecture-model tests: every cycle-accurate multiplier must agree
// bit-for-bit with the schoolbook reference, reproduce the paper's cycle
// counts, and satisfy its structural claims.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "hw/fault_hook.hpp"
#include "mult/schoolbook.hpp"
#include "multipliers/dsp_packed.hpp"
#include "multipliers/high_speed.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "multipliers/lightweight.hpp"

namespace saber::arch {
namespace {

using ring::Poly;
using ring::SecretPoly;

constexpr unsigned kQ = 13;

// ------------------------------------------------------- functional checks

class ArchAgreement : public ::testing::TestWithParam<std::string_view> {
 protected:
  std::unique_ptr<HwMultiplier> arch_ = make_architecture(GetParam());
  mult::SchoolbookMultiplier ref_;
};

TEST_P(ArchAgreement, RandomOperands) {
  Xoshiro256StarStar rng(101);
  for (int iter = 0; iter < 5; ++iter) {
    const auto a = Poly::random(rng, kQ);
    const auto s = SecretPoly::random(rng, 4);
    EXPECT_EQ(arch_->multiply(a, s).product, ref_.multiply_secret(a, s, kQ))
        << arch_->name() << " iter " << iter;
  }
}

TEST_P(ArchAgreement, EdgeOperands) {
  const auto amax = Poly::constant(8191);
  Poly one{};
  one[0] = 1;
  SecretPoly splus{}, sminus{}, salt{};
  for (std::size_t j = 0; j < ring::kN; ++j) {
    splus[j] = 4;
    sminus[j] = -4;
    salt[j] = (j % 2 == 0) ? 4 : -4;
  }
  const Poly pubs[] = {Poly{}, one, amax};
  const SecretPoly secs[] = {SecretPoly{}, splus, sminus, salt};
  for (const auto& a : pubs) {
    for (const auto& s : secs) {
      EXPECT_EQ(arch_->multiply(a, s).product, ref_.multiply_secret(a, s, kQ));
    }
  }
}

TEST_P(ArchAgreement, AccumulateModeChainsInnerProducts) {
  // acc' = acc + a*s must hold when the previous accumulator stays resident
  // (Saber's matrix-vector products).
  Xoshiro256StarStar rng(102);
  const auto a1 = Poly::random(rng, kQ);
  const auto a2 = Poly::random(rng, kQ);
  const auto s1 = SecretPoly::random(rng, 4);
  const auto s2 = SecretPoly::random(rng, 4);
  const auto first = arch_->multiply(a1, s1).product;
  const auto chained = arch_->multiply(a2, s2, &first).product;
  const auto expect =
      ring::add(ref_.multiply_secret(a1, s1, kQ), ref_.multiply_secret(a2, s2, kQ), kQ);
  EXPECT_EQ(chained, expect);
}

TEST_P(ArchAgreement, DeterministicCycleCount) {
  Xoshiro256StarStar rng(103);
  const auto a = Poly::random(rng, kQ);
  const auto s = SecretPoly::random(rng, 4);
  const auto r1 = arch_->multiply(a, s);
  const auto r2 = arch_->multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4));
  EXPECT_EQ(r1.cycles.total, r2.cycles.total) << "schedule must be data-independent";
}

TEST_P(ArchAgreement, PolyMulAdapterReducesModulus) {
  Xoshiro256StarStar rng(104);
  auto fn = as_poly_mul(*arch_);
  const auto a = Poly::random(rng, 10);
  const auto s = SecretPoly::random(rng, 4);
  EXPECT_EQ(fn(a, s, 10), ref_.multiply_secret(a, s, 10));
  EXPECT_THROW(fn(a, s, 14), ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ArchAgreement,
                         ::testing::Values("lw4", "lw8", "lw16", "hs1-256", "hs1-512",
                                           "hs2", "baseline-256", "baseline-512"),
                         [](const auto& pinfo) {
                           std::string n(pinfo.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(HighSpeedHook, IdleHookModelsTheSameMachine) {
  // An attached hook that changes nothing switches the core to the MAC row
  // with fault sites compiled in; product, schedule and activity must match
  // the hook-free row exactly, for every MAC count and both designs.
  Xoshiro256StarStar rng(106);
  hw::FaultHook idle;
  for (const unsigned macs : {64u, 128u, 256u, 512u, 1024u}) {
    for (const bool centralized : {true, false}) {
      HighSpeedMultiplier core(HighSpeedConfig{macs, centralized});
      const auto a = Poly::random(rng, kQ);
      const auto s = SecretPoly::random(rng, 4);
      const auto prev = Poly::random(rng, kQ);
      for (const Poly* accumulate : {static_cast<const Poly*>(nullptr), &prev}) {
        core.set_fault_hook(nullptr);
        const auto bare = core.multiply(a, s, accumulate);
        core.set_fault_hook(&idle);
        const auto hooked = core.multiply(a, s, accumulate);
        SCOPED_TRACE(std::string(core.name()) + (accumulate ? " accumulate" : ""));
        EXPECT_EQ(hooked.product, bare.product);
        EXPECT_EQ(hooked.cycles.total, bare.cycles.total);
        EXPECT_EQ(hooked.cycles.compute, bare.cycles.compute);
        EXPECT_EQ(hooked.cycles.preload, bare.cycles.preload);
        EXPECT_EQ(hooked.cycles.stall_public_load, bare.cycles.stall_public_load);
        EXPECT_EQ(hooked.cycles.stall_secret_load, bare.cycles.stall_secret_load);
        EXPECT_EQ(hooked.cycles.stall_accumulator, bare.cycles.stall_accumulator);
        EXPECT_EQ(hooked.cycles.readout, bare.cycles.readout);
        EXPECT_EQ(hooked.cycles.pipeline, bare.cycles.pipeline);
        EXPECT_EQ(hooked.power.ff_toggles, bare.power.ff_toggles);
        EXPECT_EQ(hooked.power.bram_reads, bare.power.bram_reads);
        EXPECT_EQ(hooked.power.bram_writes, bare.power.bram_writes);
      }
    }
  }
}

// ------------------------------------------------------------ cycle counts

TEST(Cycles, HighSpeedPureCountsMatchTable1) {
  // Table 1: 256 cycles (256 MACs), 128 cycles (512 MACs) — identical for
  // the baseline and HS-I (the optimization is area-only).
  for (const char* name : {"baseline-256", "hs1-256"}) {
    EXPECT_EQ(make_architecture(name)->headline_cycles(), 256u) << name;
  }
  for (const char* name : {"baseline-512", "hs1-512"}) {
    EXPECT_EQ(make_architecture(name)->headline_cycles(), 128u) << name;
  }
}

TEST(Cycles, HighSpeed512WithOverheadMatchesPaper) {
  // §4.1: "the high-speed implementation with 512 multipliers requires 128
  // cycles for the pure multiplication, or 213 cycles with the memory
  // overhead (39%)".
  auto arch = make_architecture("hs1-512");
  Xoshiro256StarStar rng(105);
  const auto r = arch->multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4));
  EXPECT_EQ(r.cycles.compute, 128u);
  EXPECT_EQ(r.cycles.total, 213u);
  EXPECT_NEAR(r.cycles.overhead_fraction(), 0.39, 0.01);
}

TEST(Cycles, DspPackedMatchesTable1) {
  // Table 1: 131 cycles — 128 plus the DSP pipeline (§5: "the slight
  // difference being due to the pipelining inside the DSPs").
  DspPackedMultiplier arch;
  EXPECT_EQ(arch.headline_cycles(), 131u);
  Xoshiro256StarStar rng(106);
  const auto r = arch.multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4));
  EXPECT_EQ(r.cycles.compute + r.cycles.pipeline, 131u);
  EXPECT_EQ(r.cycles.pipeline, 3u);
}

TEST(Cycles, LightweightPureComputeIsExactly16384) {
  // §4.1: "the pure multiplication cycle count with 4 MAC units is 16,384".
  LightweightMultiplier lw;
  Xoshiro256StarStar rng(107);
  const auto r = lw.multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4));
  EXPECT_EQ(r.cycles.compute, 16384u);
}

TEST(Cycles, LightweightTotalNearPaperAndOverheadBelow16Percent) {
  // §4.1: total 19,471 with read/write overhead below 16 %. Our schedule is
  // derived from the paper's constraints, not its RTL, so we assert the
  // published envelope plus proximity to the published total.
  LightweightMultiplier lw;
  const u64 total = lw.headline_cycles();
  EXPECT_GT(total, 16384u);
  EXPECT_LT(total, 16384u * 100 / 84);  // overhead < 16 % of total
  EXPECT_NEAR(static_cast<double>(total), 19471.0, 0.035 * 19471.0);
}

TEST(Cycles, LightweightTradeoffsRoughlyHalveAndQuarter) {
  // §4.2: 8 / 16 MACs cut the cycle count to about a half / a quarter.
  const u64 c4 = make_architecture("lw4")->headline_cycles();
  const u64 c8 = make_architecture("lw8")->headline_cycles();
  const u64 c16 = make_architecture("lw16")->headline_cycles();
  EXPECT_NEAR(static_cast<double>(c4) / static_cast<double>(c8), 2.0, 0.35);
  EXPECT_NEAR(static_cast<double>(c4) / static_cast<double>(c16), 4.0, 1.0);
}

// -------------------------------------------------------------------- area

TEST(Area, CentralizationSavesLutsAtEqualFf) {
  // §5.2: "The 'High Speed I - 256' optimization reduces the LUT count by
  // 22%, with a comparable flip-flop count" and 24 % for 512.
  const auto base256 = make_architecture("baseline-256")->area().total();
  const auto hs256 = make_architecture("hs1-256")->area().total();
  const double red256 = 1.0 - static_cast<double>(hs256.lut) / static_cast<double>(base256.lut);
  EXPECT_NEAR(red256, 0.22, 0.05);
  EXPECT_EQ(hs256.ff, base256.ff);

  const auto base512 = make_architecture("baseline-512")->area().total();
  const auto hs512 = make_architecture("hs1-512")->area().total();
  const double red512 = 1.0 - static_cast<double>(hs512.lut) / static_cast<double>(base512.lut);
  EXPECT_NEAR(red512, 0.24, 0.05);
}

TEST(Area, DspDesignTradesLutsForDspsAndFfs) {
  // §5.2: HS-II reduces LUTs by ~46 % vs the 512-MAC baseline while using
  // 128 DSPs and significantly more flip-flops.
  const auto base512 = make_architecture("baseline-512")->area().total();
  const auto hs2 = make_architecture("hs2")->area().total();
  const double red = 1.0 - static_cast<double>(hs2.lut) / static_cast<double>(base512.lut);
  EXPECT_NEAR(red, 0.46, 0.08);
  EXPECT_EQ(hs2.dsp, 128u);
  EXPECT_GT(hs2.ff, 2 * base512.ff);  // "significantly more FFs" (Table 1)
}

TEST(Area, LightweightIsTiny) {
  // Table 1: LW uses 541 LUTs and 301 FFs.
  const auto lw = make_architecture("lw4")->area().total();
  EXPECT_NEAR(static_cast<double>(lw.lut), 541.0, 0.10 * 541.0);
  EXPECT_NEAR(static_cast<double>(lw.ff), 301.0, 0.10 * 301.0);
  EXPECT_EQ(lw.dsp, 0u);
}

TEST(Area, AbsoluteTotalsTrackTable1) {
  // Structural estimates should stay within 10 % of the paper's synthesis
  // numbers for every architecture (EXPERIMENTS.md records the exact deltas).
  struct Row {
    const char* name;
    double lut, ff;
  };
  const Row rows[] = {
      {"baseline-256", 13869, 5150}, {"baseline-512", 29141, 4907},
      {"hs1-256", 10844, 5150},      {"hs1-512", 22118, 4920},
      {"hs2", 15625, 14136},
  };
  for (const auto& row : rows) {
    const auto t = make_architecture(row.name)->area().total();
    EXPECT_NEAR(static_cast<double>(t.lut), row.lut, 0.10 * row.lut) << row.name;
    EXPECT_NEAR(static_cast<double>(t.ff), row.ff, 0.12 * row.ff) << row.name;
  }
}

TEST(Area, HS1_512VersusBaseline256) {
  // §5.2: HS-I-512 costs only ~27 % more LUTs than the 256-MAC baseline while
  // multiplying twice as fast.
  const auto base256 = make_architecture("baseline-256")->area().total();
  const auto hs512 = make_architecture("hs1-512")->area().total();
  const double increase =
      static_cast<double>(hs512.lut) / static_cast<double>(base256.lut) - 1.0;
  EXPECT_NEAR(increase, 0.27, 0.25);
}

TEST(Area, StructureReportListsComponents) {
  const auto arch = make_architecture("hs2");
  const auto text = arch->area().to_string("HS-II");
  EXPECT_NE(text.find("DSP48E2"), std::string::npos);
  EXPECT_NE(text.find("small multiplier"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

// ----------------------------------------------------- DSP packing datapath

TEST(DspPacking, ExhaustiveSignCombinations) {
  // Sweep every (s0, s1) in [-4,4]^2 against adversarial and random public
  // pairs; the corrected lanes must equal the true products mod 2^13.
  Xoshiro256StarStar rng(108);
  std::vector<std::pair<u16, u16>> pubs = {
      {0, 0}, {1, 0}, {0, 1}, {8191, 8191}, {8191, 0}, {0, 8191},
      {1, 8191}, {8191, 1}, {4096, 4095}, {5, 8190},
  };
  for (int r = 0; r < 200; ++r) {
    pubs.emplace_back(static_cast<u16>(rng.uniform(8192)),
                      static_cast<u16>(rng.uniform(8192)));
  }
  auto modq = [](i64 v) { return static_cast<u16>(((v % 8192) + 8192) % 8192); };
  for (const auto& [a0, a1] : pubs) {
    for (int s0 = -4; s0 <= 4; ++s0) {
      for (int s1 = -4; s1 <= 4; ++s1) {
        const auto lanes = DspPackedMultiplier::pack_multiply(
            a0, a1, static_cast<i8>(s0), static_cast<i8>(s1));
        EXPECT_EQ(lanes.a0s0, modq(static_cast<i64>(a0) * s0))
            << a0 << "," << a1 << "," << s0 << "," << s1;
        EXPECT_EQ(lanes.cross, modq(static_cast<i64>(a0) * s1 + static_cast<i64>(a1) * s0))
            << a0 << "," << a1 << "," << s0 << "," << s1;
        EXPECT_EQ(lanes.a1s1, modq(static_cast<i64>(a1) * s1))
            << a0 << "," << a1 << "," << s0 << "," << s1;
      }
    }
  }
}

TEST(DspPacking, RejectsLightSaberMagnitudes) {
  EXPECT_THROW(DspPackedMultiplier::pack_multiply(5, 5, 5, 0), ContractViolation);
  LightweightMultiplier lw5(LightweightConfig{4, 5});
  SecretPoly s{};
  s[0] = 5;
  Poly a = Poly::constant(8191);
  mult::SchoolbookMultiplier ref;
  // LW and HS-I support |s| = 5; HS-II does not (its packing is 3-bit).
  EXPECT_EQ(lw5.multiply(a, s).product, ref.multiply_secret(a, s, kQ));
  DspPackedMultiplier hs2;
  EXPECT_THROW(hs2.multiply(a, s), ContractViolation);
}

// ----------------------------------------------------------- power proxies

TEST(Power, LightweightHasLowestActivity) {
  // §5: the LW design is the low-power point of the design space.
  Xoshiro256StarStar rng(109);
  const auto a = Poly::random(rng, kQ);
  const auto s = SecretPoly::random(rng, 4);
  const auto lw = make_architecture("lw4")->multiply(a, s);
  const auto hs = make_architecture("hs1-256")->multiply(a, s);
  EXPECT_LT(lw.power.ff_bits, hs.power.ff_bits / 10);
  EXPECT_LT(lw.power.activity_score() / static_cast<double>(lw.cycles.total),
            hs.power.activity_score() / static_cast<double>(hs.cycles.total));
}

TEST(Power, LightweightResultLivesInMemory) {
  // The LW multiplier never performs a separate result readout: its writes
  // happen during compute. The HS designs pay an explicit write-back phase.
  Xoshiro256StarStar rng(110);
  const auto a = Poly::random(rng, kQ);
  const auto s = SecretPoly::random(rng, 4);
  const auto lw = make_architecture("lw4")->multiply(a, s);
  EXPECT_LE(lw.cycles.readout, 2u * 16u);  // only per-pass drain cycles
  const auto hs = make_architecture("hs1-256")->multiply(a, s);
  EXPECT_EQ(hs.cycles.readout, 53u);
}

// ----------------------------------------------------------- factory

TEST(Factory, KnowsEveryRegisteredArchitecture) {
  for (const auto name : architecture_names()) {
    EXPECT_NE(make_architecture(name), nullptr) << name;
  }
}

TEST(Factory, UnknownNameErrorListsRegisteredArchitectures) {
  try {
    make_architecture("systolic");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown architecture name: systolic"), std::string::npos)
        << msg;
    for (const auto name : architecture_names()) {
      EXPECT_NE(msg.find(std::string(name)), std::string::npos)
          << "missing " << name << " in: " << msg;
    }
  }
}

}  // namespace
}  // namespace saber::arch
