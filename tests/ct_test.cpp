// Unit tests for the ct::Tainted taint lattice: propagation through every
// operator family, the trap conditions (branch, division, modulo, tainted
// shift amount, escape), audited declassification, and the word-generic
// arithmetic helpers that let the production kernels run under analysis.
#include <gtest/gtest.h>

#include <array>

#include "common/ctops.hpp"
#include "common/zeroize.hpp"
#include "ct/tainted.hpp"

namespace saber::ct {
namespace {

class TaintedTest : public ::testing::Test {
 protected:
  void SetUp() override { Analysis::instance().reset(); }

  static std::size_t count(ViolationKind kind) {
    std::size_t n = 0;
    for (const auto& v : Analysis::instance().violations()) {
      if (v.kind == kind) ++n;
    }
    return n;
  }

  static std::size_t total() { return Analysis::instance().violations().size(); }
};

// ------------------------------------------------------------- propagation

TEST_F(TaintedTest, ArithmeticPropagatesTaint) {
  const Tainted<u16> secret(7, true);
  const Tainted<u16> pub(3);

  EXPECT_TRUE((secret + pub).tainted());
  EXPECT_TRUE((pub - secret).tainted());
  EXPECT_TRUE((secret * pub).tainted());
  EXPECT_TRUE((secret & pub).tainted());
  EXPECT_TRUE((secret | pub).tainted());
  EXPECT_TRUE((secret ^ pub).tainted());
  EXPECT_FALSE((pub + pub).tainted());
  EXPECT_FALSE((pub * 5).tainted());
  EXPECT_EQ(total(), 0u);
}

TEST_F(TaintedTest, MixedOperandsMatchPlainArithmetic) {
  const Tainted<u16> a(1000, true);
  EXPECT_EQ((a + 24).raw(), 1024);
  EXPECT_EQ((2 * a).raw(), 2000);
  EXPECT_EQ((a - u16{1}).raw(), 999);
  EXPECT_EQ((a ^ u16{0xFFFF}).raw(), u16{1000} ^ u16{0xFFFF});
  EXPECT_TRUE((a + 24).tainted());
  EXPECT_TRUE((2 * a).tainted());
  EXPECT_EQ(total(), 0u);  // mixed exact-match overloads never trap
}

TEST_F(TaintedTest, UnaryAndCompoundPropagate) {
  Tainted<u16> a(5, true);
  EXPECT_TRUE((-a).tainted());
  EXPECT_TRUE((~a).tainted());
  EXPECT_TRUE((!a).tainted());
  EXPECT_EQ((~a).raw(), static_cast<int>(~u16{5}));

  a += 2;
  EXPECT_EQ(a.raw(), 7);
  EXPECT_TRUE(a.tainted());
  a <<= 1;
  EXPECT_EQ(a.raw(), 14);
  a &= u16{0xF};
  EXPECT_EQ(a.raw(), 14);
  EXPECT_TRUE(a.tainted());
  EXPECT_EQ(total(), 0u);

  Tainted<u16> p(4);
  p ^= Tainted<u16>(1, true);  // taint infects through compound assignment
  EXPECT_TRUE(p.tainted());
}

TEST_F(TaintedTest, ShiftByPublicAmountPropagatesWithoutTrap) {
  const Tainted<u32> a(0x80, true);
  const auto left = a << 2;
  const auto right = a >> 3;
  EXPECT_EQ(left.raw(), 0x200u);
  EXPECT_EQ(right.raw(), 0x10u);
  EXPECT_TRUE(left.tainted());
  EXPECT_TRUE(right.tainted());
  EXPECT_EQ(count(ViolationKind::kShiftAmount), 0u);
}

TEST_F(TaintedTest, ComparisonsReturnTaintedBoolWithoutTrap) {
  const Tainted<u16> a(3, true);
  const Tainted<u16> b(4);
  const auto eq = (a == b);
  const auto lt = (a < b);
  const auto ge = (a >= 3);
  EXPECT_FALSE(eq.raw());
  EXPECT_TRUE(lt.raw());
  EXPECT_TRUE(ge.raw());
  EXPECT_TRUE(eq.tainted());
  EXPECT_TRUE(lt.tainted());
  EXPECT_TRUE(ge.tainted());
  EXPECT_EQ(total(), 0u);  // no trap until the bool escapes
}

// ------------------------------------------------------------------- traps

TEST_F(TaintedTest, BranchOnTaintedComparisonTraps) {
  const Tainted<u16> a(3, true);
  if (a == 3) {
    // The contextual bool conversion above is the leak.
  }
  EXPECT_EQ(count(ViolationKind::kBranch), 1u);
}

TEST_F(TaintedTest, UntaintedComparisonBranchesFreely) {
  const Tainted<u16> a(3);
  if (a == 3) {
  }
  EXPECT_EQ(total(), 0u);
}

TEST_F(TaintedTest, DivisionAndModuloTrap) {
  const Tainted<u32> a(100, true);
  const auto q = a / 7u;
  const auto r = a % 7u;
  const auto q2 = 100u / Tainted<u32>(7, true);
  EXPECT_EQ(q.raw(), 14u);
  EXPECT_EQ(r.raw(), 2u);
  EXPECT_EQ(q2.raw(), 14u);
  EXPECT_TRUE(q.tainted());
  EXPECT_EQ(count(ViolationKind::kDivision), 2u);
  EXPECT_EQ(count(ViolationKind::kModulo), 1u);
}

TEST_F(TaintedTest, DivisionByUntaintedOperandsDoesNotTrap) {
  const Tainted<u32> a(100);
  const auto q = a / 7u;
  EXPECT_EQ(q.raw(), 14u);
  EXPECT_EQ(total(), 0u);
}

TEST_F(TaintedTest, TaintedShiftAmountTraps) {
  const Tainted<u32> amount(3, true);
  const auto v = 1u << amount;
  const auto w = Tainted<u32>(0x100, true) >> amount;
  EXPECT_EQ(v.raw(), 8u);
  EXPECT_EQ(w.raw(), 0x20u);
  EXPECT_EQ(count(ViolationKind::kShiftAmount), 2u);
}

TEST_F(TaintedTest, EscapeToPlainIntegerTraps) {
  const Tainted<u16> idx(2, true);
  const u16 plain = idx;  // implicit conversion = escape
  EXPECT_EQ(plain, 2);
  EXPECT_EQ(count(ViolationKind::kEscape), 1u);
}

TEST_F(TaintedTest, ArrayIndexingTrapsAsEscape) {
  static constexpr u8 kTable[4] = {10, 20, 30, 40};
  const Tainted<u16> idx(1, true);
  const u8 v = kTable[idx & 3];
  EXPECT_EQ(v, 20);
  EXPECT_EQ(count(ViolationKind::kEscape), 1u);
}

TEST_F(TaintedTest, UntaintedEscapeIsSilent) {
  const Tainted<u16> idx(2);
  const u16 plain = idx;
  EXPECT_EQ(plain, 2);
  EXPECT_EQ(total(), 0u);
}

TEST_F(TaintedTest, SiteScopeTagsViolations) {
  SiteScope outer("decaps");
  {
    SiteScope inner("compare");
    const Tainted<u16> a(1, true);
    if (a == 1) {
    }
  }
  ASSERT_EQ(total(), 1u);
  EXPECT_EQ(Analysis::instance().violations()[0].site, "decaps/compare");
}

// ------------------------------------------------- declassify / peek / taint

TEST_F(TaintedTest, DeclassifyLogsSiteWithoutViolation) {
  const Tainted<u16> a(42, true);
  const u16 v = declassify(a, "test-site");
  EXPECT_EQ(v, 42);
  EXPECT_EQ(total(), 0u);
  ASSERT_EQ(Analysis::instance().declassifications().size(), 1u);
  EXPECT_EQ(Analysis::instance().declassifications()[0].site, "test-site");
}

TEST_F(TaintedTest, DeclassifyOnPlainWordIsIdentity) {
  EXPECT_EQ(declassify(u16{7}, "unused"), 7);
  EXPECT_TRUE(Analysis::instance().declassifications().empty());
}

TEST_F(TaintedTest, PeekNeverLogs) {
  const Tainted<u16> a(9, true);
  EXPECT_EQ(peek(a), 9);
  EXPECT_EQ(peek(u16{9}), 9);
  EXPECT_EQ(total(), 0u);
  EXPECT_TRUE(Analysis::instance().declassifications().empty());
}

TEST_F(TaintedTest, TaintMarksValuesAndIsPlainIdentity) {
  const auto t = taint(Tainted<u16>(5));
  EXPECT_TRUE(t.tainted());
  EXPECT_TRUE(is_tainted(t));
  EXPECT_FALSE(is_tainted(u16{5}));
  EXPECT_EQ(taint(u16{5}), 5);
}

// ------------------------------------------------------ word-generic helpers

TEST_F(TaintedTest, GenericHelpersMatchPlainResults) {
  const u16 raw = 0x1FAB;
  const Tainted<u16> t(raw, true);

  EXPECT_EQ(low_bits_g(t, 10).raw(), low_bits_g(raw, 10));
  EXPECT_EQ(to_twos_complement_g(t, 13).raw(), to_twos_complement_g(raw, 13));
  EXPECT_EQ(sign_extend_g(t, 13).raw(), sign_extend_g(raw, 13));
  EXPECT_EQ(centered_g(t, 13).raw(), centered_g(raw, 13));
  EXPECT_EQ(rotl_g(t, 7).raw(), rotl_g(u16{raw}, 7));
  EXPECT_EQ(sign_mask_g(cast<i64>(t) - 0x2000).raw(),
            sign_mask_g(static_cast<i64>(raw) - 0x2000));

  EXPECT_TRUE(low_bits_g(t, 10).tainted());
  EXPECT_TRUE(centered_g(t, 13).tainted());
  EXPECT_EQ(total(), 0u);  // every helper is trap-free by construction
}

TEST_F(TaintedTest, CastRebindsWithoutTouchingTaint) {
  const Tainted<u16> t(300, true);
  const auto narrowed = cast<u8>(t);
  EXPECT_EQ(narrowed.raw(), static_cast<u8>(300));
  EXPECT_TRUE(narrowed.tainted());
  EXPECT_FALSE(cast<u8>(Tainted<u16>(300)).tainted());
  EXPECT_EQ(cast<u8>(u16{300}), static_cast<u8>(300));
  EXPECT_EQ(total(), 0u);
}

// ------------------------------------------------- constant-time primitives

TEST_F(TaintedTest, CtDifferProducesFullMaskWithoutViolations) {
  std::array<Tainted<u8>, 4> a{}, b{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = Tainted<u8>(static_cast<u8>(i), true);
    b[i] = Tainted<u8>(static_cast<u8>(i), true);
  }
  const auto same = ct_differ_g(std::span<const Tainted<u8>>(a),
                                std::span<const Tainted<u8>>(b));
  b[2] = Tainted<u8>(0x99, true);
  const auto diff = ct_differ_g(std::span<const Tainted<u8>>(a),
                                std::span<const Tainted<u8>>(b));
  EXPECT_EQ(same.raw(), 0x00);
  EXPECT_EQ(diff.raw(), 0xFF);
  EXPECT_TRUE(same.tainted());
  EXPECT_TRUE(diff.tainted());
  EXPECT_EQ(total(), 0u);
}

TEST_F(TaintedTest, CtCmovSelectsByMaskWithoutViolations) {
  std::array<Tainted<u8>, 3> dst{Tainted<u8>(1, true), Tainted<u8>(2, true),
                                 Tainted<u8>(3, true)};
  const std::array<Tainted<u8>, 3> src{Tainted<u8>(7, true), Tainted<u8>(8, true),
                                       Tainted<u8>(9, true)};
  auto kept = dst;
  ct_cmov_g(std::span<Tainted<u8>>(kept), std::span<const Tainted<u8>>(src),
            Tainted<u8>(0x00, true));
  ct_cmov_g(std::span<Tainted<u8>>(dst), std::span<const Tainted<u8>>(src),
            Tainted<u8>(0xFF, true));
  EXPECT_EQ(peek(kept[0]), 1);
  EXPECT_EQ(peek(dst[0]), 7);
  EXPECT_EQ(peek(dst[2]), 9);
  EXPECT_TRUE(dst[0].tainted());
  EXPECT_EQ(total(), 0u);
}

TEST_F(TaintedTest, PlainCtHelpersStillWork) {
  const std::array<u8, 3> a{1, 2, 3};
  std::array<u8, 3> b{1, 2, 3};
  EXPECT_EQ(ct_differ(a, b), 0x00);
  b[1] = 9;
  EXPECT_EQ(ct_differ(a, b), 0xFF);
  ct_cmov(b, a, 0xFF);
  EXPECT_EQ(b[1], 2);
}

TEST_F(TaintedTest, DeclassifyBytesLogsOneSite) {
  const std::array<Tainted<u8>, 2> t{Tainted<u8>(0xAA, true), Tainted<u8>(0xBB, true)};
  const auto out = declassify_bytes(std::span<const Tainted<u8>>(t), "publish");
  EXPECT_EQ(out, (std::vector<u8>{0xAA, 0xBB}));
  EXPECT_EQ(total(), 0u);
  ASSERT_EQ(Analysis::instance().declassifications().size(), 1u);
  EXPECT_EQ(Analysis::instance().declassifications()[0].site, "publish");

  const std::array<u8, 2> plain{1, 2};
  EXPECT_EQ(declassify_bytes(std::span<const u8>(plain), "ignored"),
            (std::vector<u8>{1, 2}));
  EXPECT_EQ(Analysis::instance().declassifications().size(), 1u);
}

// ------------------------------------------------------- zeroize integration

TEST_F(TaintedTest, ZeroizeGuardWipesTaintedBuffers) {
  static_assert(std::is_trivially_copyable_v<Tainted<u8>>);
  std::array<Tainted<u8>, 4> buf;
  for (auto& b : buf) b = Tainted<u8>(0x5A, true);
  {
    ZeroizeGuard guard(buf);
  }
  for (const auto& b : buf) {
    EXPECT_EQ(peek(b), 0);
  }
  EXPECT_EQ(total(), 0u);
}

}  // namespace
}  // namespace saber::ct
