// Coprocessor integration tests: executing the Saber programs on the
// instruction-set coprocessor model (with any multiplier architecture) must
// produce byte-identical results to the pure-software implementation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "coproc/programs.hpp"
#include "multipliers/high_speed.hpp"
#include "saber/kem.hpp"

namespace saber::coproc {
namespace {

using kem::kFireSaber;
using kem::kSaber;

SaberCoproc::Seed seed_of(u8 fill) {
  SaberCoproc::Seed s{};
  s.fill(fill);
  return s;
}

// Software reference KEM for byte-for-byte comparison.
kem::SaberKemScheme sw_scheme(const kem::SaberParams& p) {
  return kem::SaberKemScheme(p, "schoolbook");
}

// Reconstruct the software KEM keypair from the same seeds the coprocessor
// uses (keygen(rng) consumes seed_a then seed_s then z in order).
class FixedSeedSource final : public RandomSource {
 public:
  explicit FixedSeedSource(std::vector<u8> stream) : stream_(std::move(stream)) {}
  void fill(std::span<u8> out) override {
    SABER_REQUIRE(pos_ + out.size() <= stream_.size(), "seed stream exhausted");
    std::copy_n(stream_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
                out.begin());
    pos_ += out.size();
  }

 private:
  std::vector<u8> stream_;
  std::size_t pos_ = 0;
};

class CoprocE2E : public ::testing::TestWithParam<std::string_view> {
 protected:
  std::unique_ptr<arch::HwMultiplier> mult_ = arch::make_architecture(GetParam());
};

TEST_P(CoprocE2E, KeygenMatchesSoftwareByteForByte) {
  SaberCoproc cp(kSaber, *mult_);
  const auto sa = seed_of(0x11), ss = seed_of(0x22), z = seed_of(0x33);
  const auto hw = cp.keygen(sa, ss, z);

  std::vector<u8> stream;
  stream.insert(stream.end(), sa.begin(), sa.end());
  stream.insert(stream.end(), ss.begin(), ss.end());
  stream.insert(stream.end(), z.begin(), z.end());
  FixedSeedSource rng(stream);
  const auto sw = sw_scheme(kSaber).keygen(rng);

  EXPECT_EQ(hw.pk, sw.pk);
  EXPECT_EQ(hw.sk, sw.sk);
}

TEST_P(CoprocE2E, EncapsDecapsMatchSoftware) {
  SaberCoproc cp(kSaber, *mult_);
  const auto keys = cp.keygen(seed_of(1), seed_of(2), seed_of(3));
  const auto m_raw = seed_of(0x44);

  const auto hw_enc = cp.encaps(keys.pk, m_raw);
  const auto scheme = sw_scheme(kSaber);
  kem::Message m{};
  std::copy(m_raw.begin(), m_raw.end(), m.begin());
  const auto sw_enc = scheme.encaps_deterministic(keys.pk, m);
  EXPECT_EQ(hw_enc.ct, sw_enc.ct);
  EXPECT_EQ(hw_enc.key, sw_enc.key);

  const auto hw_dec = cp.decaps(hw_enc.ct, keys.sk);
  EXPECT_EQ(hw_dec.key, hw_enc.key);
}

TEST_P(CoprocE2E, ImplicitRejectionMatchesSoftware) {
  SaberCoproc cp(kSaber, *mult_);
  const auto keys = cp.keygen(seed_of(5), seed_of(6), seed_of(7));
  const auto enc = cp.encaps(keys.pk, seed_of(8));
  auto tampered = enc.ct;
  tampered[10] ^= 0x04;
  const auto hw = cp.decaps(tampered, keys.sk);
  EXPECT_NE(hw.key, enc.key);
  const auto sw = sw_scheme(kSaber).decaps(tampered, keys.sk);
  EXPECT_EQ(std::vector<u8>(hw.key.begin(), hw.key.end()),
            std::vector<u8>(sw.begin(), sw.end()));
}

INSTANTIATE_TEST_SUITE_P(Architectures, CoprocE2E,
                         ::testing::Values("hs1-256", "hs1-512", "hs2", "hs2-wide",
                                           "lw4", "lw8", "lw16", "baseline-256",
                                           "karatsuba-hw", "ntt-hw"),
                         [](const auto& pinfo) {
                           std::string n(pinfo.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(Coproc, FireSaberWorksToo) {
  const auto mult = arch::make_architecture("hs1-256");
  SaberCoproc cp(kFireSaber, *mult);
  const auto keys = cp.keygen(seed_of(9), seed_of(10), seed_of(11));
  const auto enc = cp.encaps(keys.pk, seed_of(12));
  EXPECT_EQ(cp.decaps(enc.ct, keys.sk).key, enc.key);
}

TEST(Coproc, LightSaberNeedsMag5Multiplier) {
  // LightSaber secrets reach |s| = 5: the Saber-range architectures reject
  // them, the max_mag=5 configurations handle them.
  arch::HighSpeedMultiplier m5(arch::HighSpeedConfig{256, true, 5});
  SaberCoproc cp(kem::kLightSaber, m5);
  const auto keys = cp.keygen(seed_of(13), seed_of(14), seed_of(15));
  const auto enc = cp.encaps(keys.pk, seed_of(16));
  EXPECT_EQ(cp.decaps(enc.ct, keys.sk).key, enc.key);
}

TEST(Coproc, CycleLedgerBreakdownIsComplete) {
  const auto mult = arch::make_architecture("hs1-256");
  SaberCoproc cp(kSaber, *mult);
  const auto keys = cp.keygen(seed_of(17), seed_of(18), seed_of(19));
  const auto& c = keys.cycles;
  EXPECT_GT(c.multiplier, 0u);
  EXPECT_GT(c.hash, 0u);
  EXPECT_GT(c.sampler, 0u);
  EXPECT_GT(c.data, 0u);
  EXPECT_GT(c.control, 0u);
  EXPECT_EQ(c.total(), c.multiplier + c.hash + c.sampler + c.data + c.control);
  EXPECT_NE(c.to_string().find("mult share"), std::string::npos);
}

TEST(Coproc, MultShareNearPaperClaim) {
  // The executed model should confirm the §1 claim for the [10]-class design.
  const auto mult = arch::make_architecture("baseline-256");
  SaberCoproc cp(kSaber, *mult);
  const auto keys = cp.keygen(seed_of(20), seed_of(21), seed_of(22));
  const auto enc = cp.encaps(keys.pk, seed_of(23));
  const auto dec = cp.decaps(enc.ct, keys.sk);
  const double share =
      static_cast<double>(keys.cycles.multiplier + enc.cycles.multiplier +
                          dec.cycles.multiplier) /
      static_cast<double>(keys.cycles.total() + enc.cycles.total() +
                          dec.cycles.total());
  EXPECT_GT(share, 0.40);
  EXPECT_LT(share, 0.70);
}

TEST(Coproc, DecapsIsTheMostExpensiveOperation) {
  const auto mult = arch::make_architecture("hs1-256");
  SaberCoproc cp(kSaber, *mult);
  const auto keys = cp.keygen(seed_of(24), seed_of(25), seed_of(26));
  const auto enc = cp.encaps(keys.pk, seed_of(27));
  const auto dec = cp.decaps(enc.ct, keys.sk);
  EXPECT_GT(dec.cycles.total(), enc.cycles.total());
  EXPECT_GT(enc.cycles.total(), keys.cycles.total());
}

TEST(Coproc, InstructionLevelErrors) {
  const auto mult = arch::make_architecture("hs1-256");
  Coprocessor cp(*mult, 1024);
  CycleLedger ledger;
  // Store without any product.
  EXPECT_THROW(cp.execute(OpStoreAccRound{{0, 320}, 4, 13, 3, 10}, ledger),
               ContractViolation);
  // Accumulate without a first product.
  EXPECT_THROW(cp.execute(OpPolyMulAcc{{0, 416}, {416, 128}, false}, ledger),
               ContractViolation);
  // Out-of-bounds region.
  EXPECT_THROW(cp.execute(OpCopy{{0, 2048}, {0, 2048}}, ledger), ContractViolation);
}

TEST(Coproc, MnemonicsForTracing) {
  EXPECT_EQ(mnemonic(OpShake128{}), "shake128");
  EXPECT_EQ(mnemonic(OpPolyMulAcc{}), "poly.mulacc");
  EXPECT_EQ(mnemonic(OpCMov{}), "cmov");
}

TEST(Units, SpongeCycleModel) {
  UnitCosts c;
  // 32-byte input, 32-byte output through SHAKE-128: one permutation.
  EXPECT_EQ(sponge_cycles(c, 32, 32, 168), 2u + 4u + 24u + 4u);
  // Squeezing 336 bytes = 2 extra permutations beyond the first block.
  EXPECT_EQ(sponge_cycles(c, 32, 336, 168), 2u + 4u + 24u * 2u + 42u);
}

TEST(Units, StreamAndSamplerModels) {
  UnitCosts c;
  EXPECT_EQ(stream_cycles(c, 416), 2u + 52u);
  EXPECT_EQ(sampler_cycles(c, 256), 2u + 64u);
}

}  // namespace
}  // namespace saber::coproc
