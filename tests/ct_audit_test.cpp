// End-to-end secret-independence audit (`ctest -L ct`): keygen, encaps and
// decaps run with tainted secret seed / coins / rejection secret over every
// software multiplier backend, and must finish with zero taint violations,
// full taint propagation into the outputs, only allowlisted declassifications
// and bit-identical results against the production scheme. The canary test
// proves the analyzer actually fires on each violation class, so the zero
// counts above are meaningful.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/ctops.hpp"
#include "common/zeroize.hpp"
#include "ct/audit.hpp"
#include "mult/strategy.hpp"
#include "saber/params.hpp"

namespace saber::ct {
namespace {

std::string describe(const AuditResult& res) {
  std::string out = res.backend + " / " + res.param_set + ":";
  for (const auto& v : res.violations) {
    out += "\n  violation " + std::string(to_string(v.kind)) + " at " + v.site;
  }
  for (const auto& d : res.declassifications) {
    out += "\n  declassify " + d.site + " in " + d.scope;
  }
  if (!res.outputs_tainted) out += "\n  taint failed to reach the outputs";
  if (!res.conforms) out += "\n  outputs differ from the production scheme";
  return out;
}

bool allowlisted(const AuditResult& res) {
  const auto allow = declassify_allowlist();
  return std::all_of(res.declassifications.begin(), res.declassifications.end(),
                     [&](const DeclassifyEvent& d) {
                       return std::find(allow.begin(), allow.end(), d.site) !=
                              allow.end();
                     });
}

// One audit per backend over the mid-size parameter set.
class BackendAudit : public ::testing::TestWithParam<std::string_view> {};

TEST_P(BackendAudit, KemRoundtripIsTaintClean) {
  const auto res = audit_kem_roundtrip(GetParam(), kem::kSaber);
  EXPECT_TRUE(res.violations.empty()) << describe(res);
  EXPECT_TRUE(res.outputs_tainted) << describe(res);
  EXPECT_TRUE(res.conforms) << describe(res);
  EXPECT_TRUE(allowlisted(res)) << describe(res);
  EXPECT_TRUE(res.ok()) << describe(res);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendAudit,
                         ::testing::ValuesIn(mult::multiplier_names()),
                         [](const auto& p) {
                           std::string name(p.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Parameter-set coverage: the flows must stay clean for every module rank
// and compression width, not just Saber's. One backend suffices — the
// parameter-dependent code is all in the flows, not the multipliers.
class ParamAudit : public ::testing::TestWithParam<kem::SaberParams> {};

TEST_P(ParamAudit, AllParameterSetsAreTaintClean) {
  const auto res = audit_kem_roundtrip("karatsuba-8", GetParam());
  EXPECT_TRUE(res.ok()) << describe(res);
  EXPECT_TRUE(allowlisted(res)) << describe(res);
}

INSTANTIATE_TEST_SUITE_P(AllParams, ParamAudit,
                         ::testing::ValuesIn(kem::kAllParams),
                         [](const auto& p) { return std::string(p.param.name); });

// The declassification trace is pinned exactly, not just allowlisted: a new
// declassify() call anywhere in the flows must show up here and be justified
// in docs/static_analysis.md before this expectation is updated.
TEST(AuditTrace, DeclassificationSitesAreExactlyThePinnedSequence) {
  const auto res = audit_kem_roundtrip("schoolbook", kem::kLightSaber);
  ASSERT_TRUE(res.ok()) << describe(res);

  std::vector<std::string> sites;
  for (const auto& d : res.declassifications) sites.push_back(d.site);

  // Expected trace: one pk publication, one ct publication, then once per
  // key (both decaps runs share the split and the unpacked s, as a prepared
  // secret key does) the embedded pk and pk-hash lifts of split_kem_sk_g plus
  // the l secret-bound checks of unpack_secret.
  EXPECT_EQ(std::count(sites.begin(), sites.end(), "keygen-pk-publish"), 1);
  EXPECT_EQ(std::count(sites.begin(), sites.end(), "encaps-ct-publish"), 1);
  EXPECT_EQ(std::count(sites.begin(), sites.end(), "decaps-embedded-pk"), 1);
  EXPECT_EQ(std::count(sites.begin(), sites.end(), "decaps-embedded-pk-hash"), 1);
  EXPECT_EQ(std::count(sites.begin(), sites.end(), "secret-bound-check"),
            static_cast<long>(kem::kLightSaber.l));
  EXPECT_EQ(sites.size(), 4 + kem::kLightSaber.l);
}

// ------------------------------------------------------------------- canary

TEST(Canary, AnalyzerFiresOnEveryViolationClass) {
  const auto violations = run_canary_kernels();
  auto count = [&](ViolationKind kind) {
    return std::count_if(violations.begin(), violations.end(),
                         [&](const CtViolation& v) { return v.kind == kind; });
  };
  EXPECT_GE(count(ViolationKind::kBranch), 1) << "early-exit compare missed";
  EXPECT_GE(count(ViolationKind::kEscape), 1) << "secret table index missed";
  EXPECT_GE(count(ViolationKind::kDivision), 1) << "secret division missed";
  EXPECT_GE(count(ViolationKind::kModulo), 1) << "secret modulo missed";
  EXPECT_GE(count(ViolationKind::kShiftAmount), 1) << "secret shift amount missed";
  for (const auto& v : violations) {
    EXPECT_EQ(v.site, "canary");
  }
}

// ---------------------------------------------------- FO compare regression

// Regression pin: the FO re-encryption comparison and implicit-rejection
// select must stay trap-free on fully tainted inputs, the mask must stay
// tainted (never declassified), and the select must be value-correct for
// both mask states.
TEST(FoCompareRegression, DifferAndCmovStayTaintCleanAndTainted) {
  Analysis::instance().reset();
  std::vector<Tainted<u8>> ct1, ct2;
  for (int i = 0; i < 64; ++i) {
    ct1.emplace_back(static_cast<u8>(i * 7), true);
    ct2.emplace_back(static_cast<u8>(i * 7), true);
  }
  const auto match = ct_differ_g(std::span<const Tainted<u8>>(ct1),
                                 std::span<const Tainted<u8>>(ct2));
  ct2[63] = Tainted<u8>(0xFE, true);
  const auto fail = ct_differ_g(std::span<const Tainted<u8>>(ct1),
                                std::span<const Tainted<u8>>(ct2));
  EXPECT_EQ(peek(match), 0x00);
  EXPECT_EQ(peek(fail), 0xFF);
  EXPECT_TRUE(is_tainted(match));
  EXPECT_TRUE(is_tainted(fail));

  std::array<Tainted<u8>, 4> kr{Tainted<u8>(1, true), Tainted<u8>(2, true),
                                Tainted<u8>(3, true), Tainted<u8>(4, true)};
  const std::array<Tainted<u8>, 4> zsub{Tainted<u8>(9, true), Tainted<u8>(9, true),
                                        Tainted<u8>(9, true), Tainted<u8>(9, true)};
  auto accepted = kr;
  ct_cmov_g(std::span<Tainted<u8>>(accepted), std::span<const Tainted<u8>>(zsub),
            match);
  ct_cmov_g(std::span<Tainted<u8>>(kr), std::span<const Tainted<u8>>(zsub), fail);
  EXPECT_EQ(peek(accepted[0]), 1);  // match: khat' kept
  EXPECT_EQ(peek(kr[0]), 9);        // mismatch: z substituted
  EXPECT_TRUE(is_tainted(kr[0]));

  EXPECT_TRUE(Analysis::instance().violations().empty());
  EXPECT_TRUE(Analysis::instance().declassifications().empty());
}

// Regression pin: wiping tainted intermediates through ZeroizeGuard (the
// decaps error-path guarantee) is itself taint-silent.
TEST(FoCompareRegression, ZeroizeGuardOnTaintedKeyMaterialIsSilent) {
  Analysis::instance().reset();
  std::array<Tainted<u8>, 32> kr{};
  for (auto& b : kr) b = Tainted<u8>(0xA5, true);
  {
    ZeroizeGuard guard(kr);
  }
  for (const auto& b : kr) {
    EXPECT_EQ(peek(b), 0);
  }
  EXPECT_TRUE(Analysis::instance().violations().empty());
  EXPECT_TRUE(Analysis::instance().declassifications().empty());
}

}  // namespace
}  // namespace saber::ct
