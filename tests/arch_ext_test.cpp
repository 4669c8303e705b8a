// Tests for the architecture extensions beyond Table 1:
//  * wide-DSP (DSP58-class) packing variant (§5 future-work remark),
//  * generalized MAC scaling of the high-speed designs (§3.1: "by
//    instantiating more MAC units in parallel one can reduce the cycle count
//    further" and the gains of centralization grow with the MAC count),
//  * constant-time verification via memory-access traces (§3.1: "the
//    proposed architecture is still constant-time").
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mult/schoolbook.hpp"
#include "multipliers/dsp_packed.hpp"
#include "multipliers/high_speed.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "multipliers/karatsuba_hw.hpp"
#include "multipliers/ntt_hw.hpp"
#include "multipliers/lightweight.hpp"

namespace saber::arch {
namespace {

using ring::Poly;
using ring::SecretPoly;
constexpr unsigned kQ = 13;

// --------------------------------------------------------------- wide DSP

TEST(WideDsp, ExhaustivePackingSweep) {
  Xoshiro256StarStar rng(301);
  auto modq = [](i64 v) { return static_cast<u16>(((v % 8192) + 8192) % 8192); };
  std::vector<std::pair<u16, u16>> pubs = {
      {0, 0}, {8191, 8191}, {8191, 0}, {0, 8191}, {1, 8190}, {4096, 4095}};
  for (int r = 0; r < 150; ++r) {
    pubs.emplace_back(static_cast<u16>(rng.uniform(8192)),
                      r % 5 == 0 ? 0 : static_cast<u16>(rng.uniform(8192)));
  }
  for (const auto& [a0, a1] : pubs) {
    for (int s0 = -4; s0 <= 4; ++s0) {
      for (int s1 = -4; s1 <= 4; ++s1) {
        const auto lanes = DspPackedMultiplier::pack_multiply(
            a0, a1, static_cast<i8>(s0), static_cast<i8>(s1), kPackingWide);
        EXPECT_EQ(lanes.a0s0, modq(static_cast<i64>(a0) * s0));
        EXPECT_EQ(lanes.cross,
                  modq(static_cast<i64>(a0) * s1 + static_cast<i64>(a1) * s0));
        EXPECT_EQ(lanes.a1s1, modq(static_cast<i64>(a1) * s1));
      }
    }
  }
}

TEST(WideDsp, FullMultiplicationAgrees) {
  DspPackedMultiplier wide(3, kPackingWide);
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(302);
  for (int iter = 0; iter < 3; ++iter) {
    const auto a = Poly::random(rng, kQ);
    const auto s = SecretPoly::random(rng, 4);
    EXPECT_EQ(wide.multiply(a, s).product, ref.multiply_secret(a, s, kQ));
  }
}

TEST(WideDsp, SameCyclesLessCorrectionLogic) {
  DspPackedMultiplier base(3, kPackingDsp48);
  DspPackedMultiplier wide(3, kPackingWide);
  EXPECT_EQ(base.headline_cycles(), wide.headline_cycles());
  // §5: "this optimization might bring even better results on future FPGAs":
  // the wide packing drops the s' path, the C-port adder and half the fix
  // logic — measurably fewer LUTs at equal DSP count.
  const auto bt = base.area().total();
  const auto wt = wide.area().total();
  EXPECT_LT(wt.lut, bt.lut);
  EXPECT_EQ(wt.dsp, bt.dsp);
  EXPECT_GT(static_cast<double>(bt.lut - wt.lut) / static_cast<double>(bt.lut), 0.05);
}

TEST(WideDsp, FactoryName) {
  const auto arch = make_architecture("hs2-wide");
  EXPECT_EQ(arch->name(), "hs2-wide");
  EXPECT_EQ(arch->area().total().dsp, 128u);
}

TEST(WideDsp, LaneFitPrecondition) {
  // A packing whose lanes exceed the ALU width must be rejected: the 2^16
  // packing cannot run on the 48-bit DSP48E2.
  const PackingSpec bad{"bad", hw::kDsp48E2, 16, 29};
  EXPECT_THROW(DspPackedMultiplier(3, bad), ContractViolation);
}

// ------------------------------------------------------------- MAC scaling

TEST(Scaling, CyclesInverselyProportionalToMacs) {
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(303);
  const auto a = Poly::random(rng, kQ);
  const auto s = SecretPoly::random(rng, 4);
  for (unsigned macs : {64u, 128u, 256u, 512u, 1024u}) {
    HighSpeedMultiplier arch(HighSpeedConfig{macs, true});
    EXPECT_EQ(arch.headline_cycles(), 256u * 256u / macs) << macs;
    const auto res = arch.multiply(a, s);
    EXPECT_EQ(res.cycles.compute, 256u * 256u / macs) << macs;
    EXPECT_EQ(res.product, ref.multiply_secret(a, s, kQ)) << macs;
  }
}

TEST(Scaling, CentralizationGainGrowsWithMacs) {
  // §3.1: "the gains are directly correlated to the number of coefficient-
  // wise multipliers used ... a higher-speed implementation that employs 512
  // (or more) coefficient multipliers sees more benefits".
  double prev_saving = 0.0;
  for (unsigned macs : {64u, 128u, 256u, 512u, 1024u}) {
    const auto base = HighSpeedMultiplier(HighSpeedConfig{macs, false}).area().total();
    const auto cent = HighSpeedMultiplier(HighSpeedConfig{macs, true}).area().total();
    const double saving = static_cast<double>(base.lut - cent.lut);
    EXPECT_GT(saving, prev_saving) << macs;  // absolute LUTs saved keep growing
    prev_saving = saving;
  }
}

TEST(Scaling, RejectsUnsupportedCounts) {
  EXPECT_THROW(HighSpeedMultiplier(HighSpeedConfig{100, true}), ContractViolation);
  EXPECT_THROW(HighSpeedMultiplier(HighSpeedConfig{2048, true}), ContractViolation);
}

// ------------------------------------------------- Karatsuba HW comparison

TEST(KaratsubaHw, AgreesWithReference) {
  KaratsubaHwMultiplier arch;
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(310);
  for (int iter = 0; iter < 3; ++iter) {
    const auto a = Poly::random(rng, kQ);
    const auto s = SecretPoly::random(rng, 4);
    EXPECT_EQ(arch.multiply(a, s).product, ref.multiply_secret(a, s, kQ));
  }
  // Accumulate mode (inner products).
  const auto a1 = Poly::random(rng, kQ);
  const auto s1 = SecretPoly::random(rng, 4);
  const auto first = arch.multiply(a1, s1).product;
  const auto a2 = Poly::random(rng, kQ);
  const auto s2 = SecretPoly::random(rng, 4);
  EXPECT_EQ(arch.multiply(a2, s2, &first).product,
            ring::add(first, ref.multiply_secret(a2, s2, kQ), kQ));
}

TEST(KaratsubaHw, WorstCaseOperandsAreExactAtEveryDepth) {
  // The core convolves centered lifts at q = 2^13 through the i32 lanes of
  // the software Karatsuba: every public coefficient -2^12 and every secret
  // at the core's bound -5 take the pre-add pyramid to 2^12 * 2^levels at
  // each depth.
  Poly a;
  for (auto& c : a.c) c = static_cast<u16>(1u << 12);  // centered: -2^12
  SecretPoly s;
  for (auto& c : s.c) c = -5;
  mult::SchoolbookMultiplier ref;
  const auto want = ref.multiply_secret(a, s, kQ);
  for (unsigned levels = 1; levels <= 8; ++levels) {
    KaratsubaHwMultiplier arch(KaratsubaHwConfig{levels, 1});
    EXPECT_EQ(arch.multiply(a, s).product, want) << "levels " << levels;
  }
}

TEST(KaratsubaHw, Paper52Comparison) {
  // §5.2: "their multiplier can achieve a very low cycle count, while
  // probably requiring a higher area consumption than our multipliers ...
  // and a much lower clock frequency".
  KaratsubaHwMultiplier kara;                                    // l=4, 81 engines
  const auto hs1 = make_architecture("hs1-512");
  EXPECT_LT(kara.headline_cycles(), hs1->headline_cycles());     // lower cycles
  EXPECT_GT(kara.area().total().lut, hs1->area().total().lut);   // more area
  EXPECT_GT(kara.logic_depth(), hs1->logic_depth());             // slower clock
}

TEST(KaratsubaHw, CycleModelComposition) {
  // pre(levels) + ceil(3^l / units) * (256 >> l) + post(2*levels)
  KaratsubaHwMultiplier d(KaratsubaHwConfig{4, 81});
  EXPECT_EQ(d.headline_cycles(), 4u + 16u + 8u);
  KaratsubaHwMultiplier half(KaratsubaHwConfig{4, 27});
  EXPECT_EQ(half.headline_cycles(), 4u + 3u * 16u + 8u);
  KaratsubaHwMultiplier shallow(KaratsubaHwConfig{2, 9});
  EXPECT_EQ(shallow.headline_cycles(), 2u + 64u + 4u);
}

TEST(KaratsubaHw, ValidatesConfig) {
  EXPECT_THROW(KaratsubaHwMultiplier(KaratsubaHwConfig{9, 1}), ContractViolation);
  EXPECT_THROW(KaratsubaHwMultiplier(KaratsubaHwConfig{2, 10}), ContractViolation);
}

TEST(KaratsubaHw, FactoryAndFullWidthAreaPenalty) {
  const auto arch = make_architecture("karatsuba-hw");
  EXPECT_EQ(arch->name(), "karatsuba-hw-l4-u81");
  // Karatsuba cannot exploit the small secrets: per-engine multipliers are
  // full-width, so LUTs/engine dwarf a shift-add MAC (~40 LUTs).
  const auto total = arch->area().total();
  EXPECT_GT(total.lut, 50000u);
}

// ------------------------------------------------- NTT HW comparison model

TEST(NttHw, AgreesWithReference) {
  NttHwMultiplier arch;
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(320);
  for (int iter = 0; iter < 3; ++iter) {
    const auto a = Poly::random(rng, kQ);
    const auto s = SecretPoly::random(rng, 4);
    EXPECT_EQ(arch.multiply(a, s).product, ref.multiply_secret(a, s, kQ));
  }
}

TEST(NttHw, CycleModel) {
  // 3 transforms x 8 stages x (128/B) + 256/B pointwise + 4 pipeline drains.
  NttHwMultiplier b2(NttHwConfig{2, 4});
  EXPECT_EQ(b2.headline_cycles(), 3u * 8u * 64u + 128u + 16u);
  NttHwMultiplier b8(NttHwConfig{8, 4});
  EXPECT_EQ(b8.headline_cycles(), 3u * 8u * 16u + 32u + 16u);
  EXPECT_THROW(NttHwMultiplier(NttHwConfig{0, 4}), ContractViolation);
}

TEST(NttHw, Section51DesignPoint) {
  // §5.1's design space: an NTT core multiplies in far fewer cycles than LW
  // but cannot exploit the small secrets — it needs wide modular multipliers
  // (DSPs) and block RAMs, where LW needs 541 LUTs and nothing else.
  NttHwMultiplier ntt(NttHwConfig{2, 4});
  const auto lw = make_architecture("lw4");
  EXPECT_LT(ntt.headline_cycles(), lw->headline_cycles() / 8);
  EXPECT_GT(ntt.area().total().dsp, 0u);
  EXPECT_GT(ntt.area().total().bram, 0u);
  EXPECT_EQ(lw->area().total().dsp, 0u);
  // Per-multiplication energy proxy: LW's activity is dominated by its tiny
  // register set; the NTT's wide datapath toggles far more bits per cycle.
  Xoshiro256StarStar rng(321);
  const auto a = Poly::random(rng, kQ);
  const auto s = SecretPoly::random(rng, 4);
  const auto ntt_run = ntt.multiply(a, s);
  EXPECT_GT(ntt_run.power.dsp_ops, 0u);
}

TEST(NttHw, AccumulateModeAndFactory) {
  const auto arch = make_architecture("ntt-hw");
  EXPECT_EQ(arch->name(), "ntt-hw-b2");
  Xoshiro256StarStar rng(322);
  mult::SchoolbookMultiplier ref;
  const auto a1 = Poly::random(rng, kQ);
  const auto s1 = SecretPoly::random(rng, 4);
  const auto first = arch->multiply(a1, s1).product;
  const auto a2 = Poly::random(rng, kQ);
  const auto s2 = SecretPoly::random(rng, 4);
  EXPECT_EQ(arch->multiply(a2, s2, &first).product,
            ring::add(first, ref.multiply_secret(a2, s2, kQ), kQ));
}

// ------------------------------------------------------------ constant time

class ConstantTime : public ::testing::TestWithParam<std::string_view> {};

TEST_P(ConstantTime, MemoryAccessPatternIsSecretIndependent) {
  // §3.1: the architectures are constant-time. Strong form: not just the
  // cycle count but the entire (cycle, port, address) memory-access sequence
  // must be identical for different secrets and operands.
  Xoshiro256StarStar rng(304);
  auto arch = make_architecture(GetParam());
  arch->enable_memory_trace();

  const auto t1 =
      arch->multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4)).mem_trace;
  const auto t2 =
      arch->multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4)).mem_trace;
  SecretPoly extremes{};
  for (std::size_t i = 0; i < ring::kN; ++i) extremes[i] = (i % 2 == 0) ? 4 : -4;
  const auto t3 = arch->multiply(Poly::constant(8191), extremes).mem_trace;

  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t3);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ConstantTime,
                         ::testing::Values("lw4", "lw8", "lw16", "hs1-256", "hs1-512",
                                           "hs2", "hs2-wide", "baseline-256",
                                           "baseline-512"),
                         [](const auto& pinfo) {
                           std::string n(pinfo.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(ConstantTimeDetail, TraceOnlyWhenEnabled) {
  Xoshiro256StarStar rng(305);
  auto arch = make_architecture("hs1-256");
  const auto res = arch->multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4));
  EXPECT_TRUE(res.mem_trace.empty());
}

TEST(ConstantTimeDetail, TraceMatchesAccessCounters) {
  Xoshiro256StarStar rng(306);
  auto arch = make_architecture("lw4");
  arch->enable_memory_trace();
  const auto res = arch->multiply(Poly::random(rng, kQ), SecretPoly::random(rng, 4));
  EXPECT_EQ(res.mem_trace.size(), res.power.bram_reads + res.power.bram_writes);
  // Trace cycles are monotone.
  for (std::size_t i = 1; i < res.mem_trace.size(); ++i) {
    EXPECT_LE(res.mem_trace[i - 1].cycle, res.mem_trace[i].cycle);
  }
}

}  // namespace
}  // namespace saber::arch
