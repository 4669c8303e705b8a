// Tests for the runtime verification & fault-tolerance layer (src/robust/):
// the deterministic FaultInjector and its hardware hooks, the checked
// multiplier decorators (detect / retry / fail over), and the
// failure-isolating batch KEM pipeline.
//
// The acceptance bar exercised here: under CheckPolicy::kFull, a seeded
// campaign of single-bit transient product faults is detected 100% of the
// time and recovered >= 95% of the time; a batch with one poisoned item
// completes every other item ok.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "hw/bram.hpp"
#include "hw/dsp48.hpp"
#include "hw/mac.hpp"
#include "mult/batch.hpp"
#include "mult/modmath.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "robust/algebraic_check.hpp"
#include "robust/checked_multiplier.hpp"
#include "robust/fault_injector.hpp"
#include "robust/faulty_multiplier.hpp"
#include "robust/supervisor.hpp"
#include "saber/batch.hpp"
#include "saber/kem.hpp"

namespace saber::robust {
namespace {

constexpr unsigned kQ = 13;

// --- FaultInjector --------------------------------------------------------

TEST(FaultInjector, TransientFiresAtExactlyOneOrdinal) {
  FaultInjector inj;
  inj.arm({FaultSite::kMacAccumulate, FaultSpec::Kind::kTransient, /*bit=*/2,
           true, /*fire_at=*/1, 1, 0});
  EXPECT_EQ(inj.apply(FaultSite::kMacAccumulate, 0), 0u);  // ordinal 0: clean
  EXPECT_EQ(inj.apply(FaultSite::kMacAccumulate, 0), 4u);  // ordinal 1: flip
  EXPECT_EQ(inj.apply(FaultSite::kMacAccumulate, 0), 0u);  // ordinal 2: clean
  EXPECT_EQ(inj.ordinal(FaultSite::kMacAccumulate), 3u);
  ASSERT_EQ(inj.activations().size(), 1u);
  EXPECT_EQ(inj.activations()[0].ordinal, 1u);
  EXPECT_EQ(inj.activations()[0].bit, 2u);
}

TEST(FaultInjector, StuckAtForcesLevelAndRecordsOnlyRealCorruptions) {
  FaultInjector inj;
  inj.arm({FaultSite::kBramRead, FaultSpec::Kind::kStuckAt, /*bit=*/0,
           /*stuck_high=*/true, 0, 1, 0});
  EXPECT_EQ(inj.apply(FaultSite::kBramRead, 0b110), 0b111u);
  EXPECT_EQ(inj.apply(FaultSite::kBramRead, 0b111), 0b111u);  // already high
  EXPECT_EQ(inj.activations().size(), 1u);  // the no-op event is not an activation

  inj.reset();
  inj.arm({FaultSite::kBramRead, FaultSpec::Kind::kStuckAt, /*bit=*/1,
           /*stuck_high=*/false, 0, 1, 0});
  EXPECT_EQ(inj.apply(FaultSite::kBramRead, 0b111), 0b101u);
}

TEST(FaultInjector, BurstCoversContiguousOrdinalsAndPermanentFlipAllOfThem) {
  FaultInjector inj;
  inj.arm({FaultSite::kDspOutput, FaultSpec::Kind::kBurst, /*bit=*/0, true,
           /*fire_at=*/1, /*burst_len=*/2, 0});
  EXPECT_EQ(inj.apply(FaultSite::kDspOutput, 8), 8u);
  EXPECT_EQ(inj.apply(FaultSite::kDspOutput, 8), 9u);
  EXPECT_EQ(inj.apply(FaultSite::kDspOutput, 8), 9u);
  EXPECT_EQ(inj.apply(FaultSite::kDspOutput, 8), 8u);

  FaultInjector perm;
  perm.arm(FaultSpec::permanent_flip(FaultSite::kDspOutput, 3));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(perm.apply(FaultSite::kDspOutput, 0), 8u);
}

TEST(FaultInjector, SeededCampaignDrawsReplayBitForBit) {
  FaultInjector a(42), b(42);
  for (int i = 0; i < 8; ++i) {
    const auto sa = a.random_product_transient(kQ, 5);
    const auto sb = b.random_product_transient(kQ, 5);
    EXPECT_EQ(sa.coeff, sb.coeff);
    EXPECT_EQ(sa.bit, sb.bit);
    EXPECT_EQ(sa.fire_at, sb.fire_at);
    EXPECT_LT(sa.coeff, ring::kN);
    EXPECT_LT(sa.bit, kQ);
    EXPECT_LT(sa.fire_at, 5u);
  }
}

TEST(FaultInjector, DisarmKeepsCountersResetClearsEverything) {
  FaultInjector inj;
  inj.arm(FaultSpec::permanent_flip(FaultSite::kBramWrite, 0));
  inj.apply(FaultSite::kBramWrite, 0);
  inj.disarm(FaultSite::kBramWrite);
  EXPECT_EQ(inj.apply(FaultSite::kBramWrite, 0), 0u);  // disarmed: clean
  EXPECT_EQ(inj.ordinal(FaultSite::kBramWrite), 2u);   // ordinals kept
  EXPECT_EQ(inj.activations().size(), 1u);             // log kept
  inj.reset();
  EXPECT_EQ(inj.ordinal(FaultSite::kBramWrite), 0u);
  EXPECT_TRUE(inj.activations().empty());
}

// --- hardware hook integration --------------------------------------------

TEST(HwFaultHooks, BramReadAndWritePathsAreCorruptible) {
  FaultInjector inj;
  hw::Bram64 mem(16);
  mem.set_fault_hook(&inj);

  // Read path: stored word is intact, the value leaving the array is not.
  inj.arm({FaultSite::kBramRead, FaultSpec::Kind::kStuckAt, /*bit=*/0, true, 0, 1, 0});
  mem.poke(5, 0b100);
  mem.read(5);
  mem.tick();
  EXPECT_EQ(mem.read_data(0), 0b101u);
  EXPECT_EQ(mem.peek(5), 0b100u);  // backdoor bypasses the hook

  // Write path: the committed word is corrupted.
  inj.disarm_all();
  inj.arm({FaultSite::kBramWrite, FaultSpec::Kind::kTransient, /*bit=*/2, true, 0, 1, 0});
  mem.write(7, 0);
  mem.tick();
  EXPECT_EQ(mem.peek(7), 0b100u);
}

TEST(HwFaultHooks, DspOutputRegisterIsCorruptible) {
  FaultInjector inj;
  inj.arm(FaultSpec::permanent_flip(FaultSite::kDspOutput, 0));
  hw::Dsp48 dsp;
  dsp.set_fault_hook(&inj);
  dsp.set_inputs(3, 4, 5);
  for (unsigned i = 0; i < dsp.pipeline_stages(); ++i) dsp.tick();
  ASSERT_TRUE(dsp.p_valid());
  EXPECT_EQ(dsp.p(), 16);  // 3*4+5 = 17, bit 0 flipped
}

TEST(HwFaultHooks, MacAccumulateHookOverloadMatchesPlainWhenNull) {
  const u16 clean = hw::mac_accumulate(10, 5, false, kQ);
  EXPECT_EQ(hw::mac_accumulate(10, 5, false, kQ, nullptr), clean);
  FaultInjector inj;
  inj.arm(FaultSpec::permanent_flip(FaultSite::kMacAccumulate, 3));
  EXPECT_EQ(hw::mac_accumulate(10, 5, false, kQ, &inj), clean ^ 8u);
}

// --- checked multiplier: fault-free differential ---------------------------

ring::PolyMatrix random_matrix(std::size_t l, RandomSource& rng, unsigned qbits) {
  ring::PolyMatrix a(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) a.at(r, c) = ring::Poly::random(rng, qbits);
  }
  return a;
}

ring::SecretVec random_secrets(std::size_t l, RandomSource& rng, unsigned bound) {
  ring::SecretVec s(l);
  for (auto& sp : s) sp = ring::SecretPoly::random(rng, bound);
  return s;
}

TEST(CheckedMultiplier, BitIdenticalToRawBackendWhenFaultFree) {
  Xoshiro256StarStar rng(321);
  for (const auto name : mult::multiplier_names()) {
    const auto raw = mult::make_multiplier(name);
    const auto checked = make_checked(name);
    EXPECT_EQ(checked->name(), "checked(" + std::string(raw->name()) + ")");
    for (const unsigned qbits : {10u, 13u}) {
      const auto a = ring::Poly::random(rng, qbits);
      const auto s = ring::SecretPoly::random(rng, 4);
      EXPECT_EQ(checked->multiply_secret(a, s, qbits),
                raw->multiply_secret(a, s, qbits))
          << name << " qbits=" << qbits;
    }
    // Split-transform path (the KEM fast path) through the checked layout.
    const std::size_t l = 3;
    const auto a = random_matrix(l, rng, kQ);
    const auto s = random_secrets(l, rng, 4);
    EXPECT_EQ(mult::matrix_vector_mul(a, s, *checked, kQ, false),
              mult::matrix_vector_mul(a, s, *raw, kQ, false))
        << name;
    EXPECT_GT(checked->fault_counters().checks, 0u) << name;
    EXPECT_EQ(checked->fault_counters().mismatches, 0u) << name;
  }
}

TEST(CheckedMultiplier, MixingRawTransformsIntoCheckedInstanceIsRejected) {
  const auto raw = mult::make_multiplier("toom4");
  const auto checked = make_checked("toom4");
  Xoshiro256StarStar rng(322);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  auto acc = checked->make_accumulator();
  EXPECT_THROW(checked->pointwise_accumulate(acc, raw->prepare_public(a, kQ),
                                             checked->prepare_secret(s, kQ)),
               ContractViolation);
  auto raw_acc = raw->make_accumulator();
  EXPECT_THROW(checked->finalize(raw_acc, kQ), ContractViolation);
}

// --- checked multiplier: policies ------------------------------------------

std::shared_ptr<FaultInjector> injector_with(const FaultSpec& spec, u64 seed = 0) {
  auto inj = std::make_shared<FaultInjector>(seed);
  inj->arm(spec);
  return inj;
}

TEST(CheckedMultiplier, PolicyOffPassesFaultsThrough) {
  auto inj = injector_with(FaultSpec::permanent_flip(FaultSite::kProduct, 4, 33));
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"), inj),
      CheckedConfig{CheckPolicy::kOff});
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(323);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  EXPECT_NE(checked.multiply_secret(a, s, kQ), ref.multiply_secret(a, s, kQ));
  EXPECT_EQ(checked.fault_counters().checks, 0u);
}

// --- checked multiplier: concurrent monitor polling ------------------------

// The FaultMonitor accessors must be safe to call from a monitoring thread
// while a worker multiplies through the same instance — the supervisor's
// status-polling pattern. Under the tsan preset this is the regression test
// for the formerly unsynchronized mutable fault statistics; in any build the
// pollers additionally assert the counter invariants every snapshot, so a
// torn update that reorders checks/mismatches/recoveries is caught.
TEST(CheckedMultiplier, MonitorPollingWhileMultiplyingIsThreadSafe) {
  auto inj = injector_with({FaultSite::kProduct, FaultSpec::Kind::kTransient,
                            /*bit=*/6, true, /*fire_at=*/5, 1, /*coeff=*/17});
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("karatsuba-8"), inj));

  constexpr unsigned kIters = 48;
  std::atomic<bool> done{false};
  std::atomic<bool> consistent{true};
  std::thread writer([&] {
    Xoshiro256StarStar rng(327);
    for (unsigned i = 0; i < kIters; ++i) {
      const auto a = ring::Poly::random(rng, kQ);
      const auto s = ring::SecretPoly::random(rng, 4);
      checked.multiply_secret(a, s, kQ);
    }
    done.store(true);
  });
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&] {
      while (!done.load()) {
        const auto c = checked.fault_counters();
        if (c.mismatches > c.checks || c.recoveries() > c.mismatches) {
          consistent.store(false);
        }
        (void)checked.fault_log();
      }
    });
  }
  writer.join();
  for (auto& p : pollers) p.join();

  EXPECT_TRUE(consistent.load());
  const auto c = checked.fault_counters();
  EXPECT_EQ(c.checks, kIters);
  EXPECT_EQ(c.mismatches, 1u);  // the one injected transient
  EXPECT_EQ(c.retry_recoveries, 1u);
  EXPECT_EQ(checked.fault_log().size(), 1u);
}

// --- checked multiplier: detection and recovery ----------------------------

TEST(CheckedMultiplier, TransientFaultIsDetectedAndCuredByRetry) {
  auto inj = injector_with({FaultSite::kProduct, FaultSpec::Kind::kTransient,
                            /*bit=*/6, true, /*fire_at=*/0, 1, /*coeff=*/17});
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"), inj));
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(325);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(checked.multiply_secret(a, s, kQ), ref.multiply_secret(a, s, kQ));
  EXPECT_EQ(checked.fault_counters().mismatches, 1u);
  EXPECT_EQ(checked.fault_counters().retry_recoveries, 1u);
  EXPECT_EQ(checked.fault_counters().failovers, 0u);
  ASSERT_EQ(checked.fault_log().size(), 1u);
  EXPECT_EQ(checked.fault_log()[0].resolution, FaultRecord::Resolution::kRetry);
}

TEST(CheckedMultiplier, PermanentFaultIsDetectedAndCuredByFailover) {
  auto inj = injector_with(FaultSpec::permanent_flip(FaultSite::kProduct, 9, 100));
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"), inj));
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(326);
  for (int i = 0; i < 3; ++i) {  // a stuck backend recovers every single time
    const auto a = ring::Poly::random(rng, kQ);
    const auto s = ring::SecretPoly::random(rng, 4);
    EXPECT_EQ(checked.multiply_secret(a, s, kQ), ref.multiply_secret(a, s, kQ));
  }
  EXPECT_EQ(checked.fault_counters().mismatches, 3u);
  EXPECT_EQ(checked.fault_counters().failovers, 3u);
  EXPECT_EQ(checked.fault_counters().retry_recoveries, 0u);
}

TEST(CheckedMultiplier, SplitTransformFaultIsDetectedInFinalize) {
  // The fault strikes the finalize() output of the accumulated product — the
  // path KEM matrix/inner products take. Retry re-derives the whole inner
  // pipeline, so a transient is cured.
  auto inj = injector_with({FaultSite::kProduct, FaultSpec::Kind::kTransient,
                            /*bit=*/3, true, /*fire_at=*/0, 1, /*coeff=*/8});
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("ntt"), inj));
  const auto raw = mult::make_multiplier("ntt");
  Xoshiro256StarStar rng(327);
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, kQ);
  const auto s = random_secrets(l, rng, 4);
  EXPECT_EQ(mult::matrix_vector_mul(a, s, checked, kQ, false),
            mult::matrix_vector_mul(a, s, *raw, kQ, false));
  EXPECT_EQ(checked.fault_counters().mismatches, 1u);
  EXPECT_EQ(checked.fault_counters().retry_recoveries, 1u);
  ASSERT_GE(checked.fault_log().size(), 1u);
  EXPECT_EQ(checked.fault_log()[0].path, FaultRecord::Path::kFinalize);
}

TEST(CheckedMultiplier, InconsistentReferenceRaisesFaultDetectedError) {
  // Inner is permanently stuck AND the fallback takes a transient hit on the
  // first reference computation: retry cannot match the (corrupt) reference,
  // and the re-derived reference disagrees with the first one — the decorator
  // must refuse to return anything rather than guess.
  auto inner = std::make_unique<FaultyPolyMultiplier>(
      mult::make_multiplier("toom4"),
      injector_with(FaultSpec::permanent_flip(FaultSite::kProduct, 1, 5)));
  auto fallback = std::make_unique<FaultyPolyMultiplier>(
      mult::make_multiplier("schoolbook"),
      injector_with({FaultSite::kProduct, FaultSpec::Kind::kTransient,
                     /*bit=*/3, true, /*fire_at=*/0, 1, /*coeff=*/7}));
  CheckedMultiplier checked(std::move(inner), {}, std::move(fallback));
  Xoshiro256StarStar rng(328);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  EXPECT_THROW(checked.multiply_secret(a, s, kQ), FaultDetectedError);
}

TEST(CheckedHwMultiplier, StuckArchitectureFailsOverToSoftwareReference) {
  auto faulty = std::make_unique<FaultyHwMultiplier>("hs1-256");
  faulty->set_fault(100, 9);
  CheckedHwMultiplier checked(std::move(faulty));
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(329);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(checked.multiply(a, s).product, ref.multiply_secret(a, s, kQ));
  EXPECT_EQ(checked.fault_counters().mismatches, 1u);
  EXPECT_EQ(checked.fault_counters().failovers, 1u);
}

// --- seeded campaign: the acceptance bar -----------------------------------

TEST(FaultCampaign, SingleBitTransientsFullyDetectedAndMostlyRecovered) {
  constexpr int kTrials = 100;
  int detected = 0, recovered = 0;
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(4242);
  for (int trial = 0; trial < kTrials; ++trial) {
    auto inj = std::make_shared<FaultInjector>(static_cast<u64>(trial) + 1);
    inj->arm(inj->random_product_transient(kQ, /*max_ordinal=*/1));
    CheckedMultiplier checked(
        std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"), inj));
    const auto a = ring::Poly::random(rng, kQ);
    const auto s = ring::SecretPoly::random(rng, 4);
    const auto expect = ref.multiply_secret(a, s, kQ);
    try {
      const auto got = checked.multiply_secret(a, s, kQ);
      ASSERT_EQ(inj->activations().size(), 1u) << "trial " << trial;
      if (checked.fault_counters().mismatches > 0) ++detected;
      if (got == expect && checked.fault_counters().recoveries() > 0) ++recovered;
    } catch (const FaultDetectedError&) {
      ++detected;  // refused to answer: detected but not recovered
    }
  }
  EXPECT_EQ(detected, kTrials);                 // 100% detection under kFull
  EXPECT_GE(recovered, kTrials * 95 / 100);     // >= 95% recovery
}

// --- implicit rejection under tampering and faults -------------------------

kem::KemKeyPair fixed_keys(const kem::SaberKemScheme& scheme) {
  kem::Seed sa{}, ss{};
  sa.fill(0x11);
  ss.fill(0x22);
  kem::SharedSecret z{};
  z.fill(0x33);
  return scheme.keygen_deterministic(sa, ss, z);
}

TEST(ImplicitRejection, RejectionKeyIsDeterministicPseudorandom) {
  kem::SaberKemScheme scheme(kem::kSaber, "toom4");
  const auto keys = fixed_keys(scheme);
  kem::Message m{};
  m.fill(0x44);
  const auto enc = scheme.encaps_deterministic(keys.pk, m);

  auto tampered = enc.ct;
  tampered[10] ^= 0x40;
  const auto k1 = scheme.decaps(tampered, keys.sk);
  EXPECT_NE(k1, enc.key);  // rejected
  // Bit-for-bit deterministic across repeated decapsulations of the same ct.
  EXPECT_EQ(scheme.decaps(tampered, keys.sk), k1);
  EXPECT_EQ(scheme.decaps(tampered, keys.sk), k1);
  // A different tamper pattern yields an unrelated rejection key.
  auto tampered2 = enc.ct;
  tampered2[11] ^= 0x01;
  EXPECT_NE(scheme.decaps(tampered2, keys.sk), k1);
}

TEST(ImplicitRejection, CheckedRecoveredDecapsMatchesFaultFreeRun) {
  kem::SaberKemScheme clean(kem::kSaber, "toom4");
  const auto keys = fixed_keys(clean);
  kem::Message m{};
  m.fill(0x55);
  const auto enc = clean.encaps_deterministic(keys.pk, m);
  const auto expect = clean.decaps(enc.ct, keys.sk);
  ASSERT_EQ(expect, enc.key);

  auto inj = std::make_shared<FaultInjector>(7);
  auto checked = std::make_shared<CheckedMultiplier>(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"), inj));
  const CheckedMultiplier* monitor = checked.get();
  kem::SaberKemScheme scheme(kem::kSaber,
                             std::shared_ptr<const mult::PolyMultiplier>(checked));
  // Strike the third of the five products a Saber (l = 3) decapsulation
  // finalizes (1 decrypt inner product + 3 re-encrypt matrix rows + 1
  // re-encrypt inner product).
  inj->arm({FaultSite::kProduct, FaultSpec::Kind::kTransient, /*bit=*/5, true,
            /*fire_at=*/2, 1, /*coeff=*/17});
  EXPECT_EQ(scheme.decaps(enc.ct, keys.sk), expect);
  EXPECT_GE(monitor->fault_counters().mismatches, 1u);
  EXPECT_EQ(monitor->fault_counters().recoveries(),
            monitor->fault_counters().mismatches);
}

// --- failure-isolating batch pipeline --------------------------------------

TEST(KemBatchIsolation, PoisonedItemFailsAloneEveryOtherItemCompletes) {
  batch::KemBatch b(kem::kSaber, "toom4", 3);
  std::vector<batch::KeygenRequest> reqs(1);
  Xoshiro256StarStar rng(6001);
  rng.fill(reqs[0].seed_a);
  rng.fill(reqs[0].seed_s);
  rng.fill(reqs[0].z);
  const auto keys = b.keygen_many(reqs);
  ASSERT_TRUE(keys[0].ok());

  std::vector<kem::Message> msgs(4);
  for (auto& msg : msgs) rng.fill(msg);
  const auto enc = b.encaps_many(keys[0].value.pk, msgs);

  std::vector<std::vector<u8>> cts;
  for (const auto& e : enc) cts.push_back(e.value.ct);
  cts[2].resize(cts[2].size() / 2);  // malformed: truncated ciphertext

  const auto shared = b.decaps_many(keys[0].value.sk, cts);
  ASSERT_EQ(shared.size(), 4u);
  for (std::size_t i = 0; i < shared.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(shared[i].status, batch::ItemStatus::kFailed);
      EXPECT_FALSE(shared[i].ok());
      EXPECT_NE(shared[i].error.find("ciphertext"), std::string::npos);
      // Failed slots hold no key material.
      EXPECT_TRUE(std::ranges::all_of(shared[i].value, [](u8 v) { return v == 0; }));
    } else {
      EXPECT_EQ(shared[i].status, batch::ItemStatus::kOk) << i;
      EXPECT_EQ(shared[i].value, enc[i].value.key) << i;
    }
  }
}

TEST(KemBatchIsolation, CheckedFaultyWorkersRecoverEveryItemBitExactly) {
  // Every worker runs a permanently-stuck backend behind a CheckedMultiplier:
  // all items must come back kRecovered and bit-identical to a clean batch.
  std::vector<batch::KeygenRequest> reqs(1);
  Xoshiro256StarStar rng(6002);
  rng.fill(reqs[0].seed_a);
  rng.fill(reqs[0].seed_s);
  rng.fill(reqs[0].z);
  std::vector<kem::Message> msgs(4);
  for (auto& msg : msgs) rng.fill(msg);

  batch::KemBatch clean(kem::kSaber, "toom4", 2);
  const auto keys = clean.keygen_many(reqs);
  const auto enc = clean.encaps_many(keys[0].value.pk, msgs);
  std::vector<std::vector<u8>> cts;
  for (const auto& e : enc) cts.push_back(e.value.ct);
  const auto expect = clean.decaps_many(keys[0].value.sk, cts);

  batch::KemBatch checked_batch(
      kem::kSaber,
      [] {
        auto inj = std::make_shared<FaultInjector>(99);
        inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 4, 33));
        return std::shared_ptr<const mult::PolyMultiplier>(
            std::make_shared<CheckedMultiplier>(std::make_unique<FaultyPolyMultiplier>(
                mult::make_multiplier("toom4"), inj)));
      },
      2);
  const auto got = checked_batch.decaps_many(keys[0].value.sk, cts);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, batch::ItemStatus::kRecovered) << i;
    EXPECT_TRUE(got[i].ok());
    EXPECT_EQ(got[i].value, expect[i].value) << i;
  }
}

TEST(FaultInjector, OrdinalCountsAreExactUnderConcurrency) {
  FaultInjector inj;
  // Armed (so the mutex-guarded spec path runs) but never firing.
  inj.arm({FaultSite::kMacAccumulate, FaultSpec::Kind::kTransient, /*bit=*/0,
           true, /*fire_at=*/u64{1} << 40, 1, 0});
  constexpr int kThreads = 4;
  constexpr int kPer = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&inj] {
      for (int i = 0; i < kPer; ++i) inj.apply(FaultSite::kMacAccumulate, 7);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(inj.ordinal(FaultSite::kMacAccumulate),
            static_cast<u64>(kThreads) * kPer);
  EXPECT_TRUE(inj.activations().empty());
}

// --- point-evaluation checker ----------------------------------------------

TEST(PointChecker, PointIsARootOfXNPlusOne) {
  const auto& pc = shared_point_checker();
  EXPECT_GT(pc.prime(), u64{1} << 60);
  // x0^N == -1 (mod P): evaluation at x0 respects the negacyclic quotient,
  // so both witness forms (length 2N-1 and length N) check identically.
  u64 x_pow_n = 1;
  for (std::size_t i = 0; i < ring::kN; ++i) x_pow_n = pc.mul(x_pow_n, pc.point());
  EXPECT_EQ(x_pow_n, pc.prime() - 1);
}

TEST(PointChecker, AcceptsTrueProductsCatchesSingleCoefficientDefects) {
  Xoshiro256StarStar rng(910);
  const auto& pc = shared_point_checker();
  mult::SchoolbookMultiplier sb;
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  auto acc = sb.make_accumulator();
  sb.pointwise_accumulate(acc, sb.prepare_public(a, kQ), sb.prepare_secret(s, kQ));
  const auto w = sb.finalize_witness(acc);
  ASSERT_EQ(w.size(), 2 * ring::kN - 1);
  const u64 ea = pc.eval_public(a, kQ);
  const u64 es = pc.eval_secret(s);
  EXPECT_TRUE(pc.verify(ea, es, pc.eval_witness(std::span<const i64>(w))));

  // Single-coefficient defects (the injected fault model) are always caught:
  // d = c * x^i with 0 < |c| < P cannot vanish at x0 mod a prime.
  for (std::size_t i = 0; i < w.size(); i += 37) {
    for (const i64 delta : {i64{1}, i64{-1}, i64{1} << 12, -(i64{1} << 40)}) {
      auto defect = w;
      defect[i] += delta;
      EXPECT_FALSE(
          pc.verify(ea, es, pc.eval_witness(std::span<const i64>(defect))))
          << "coeff " << i << " delta " << delta;
    }
  }

  // Defects divisible by x^N + 1 fold away in reduce_witness — they leave the
  // product untouched, and the checker (soundly) accepts them.
  auto folded = w;
  folded[0] += 5;
  folded[ring::kN] += 5;  // adds 5 * (x^N + 1): zero mod the ring modulus
  EXPECT_TRUE(pc.verify(ea, es, pc.eval_witness(std::span<const i64>(folded))));
  EXPECT_EQ(mult::reduce_witness<ring::kN>(std::span<const i64>(folded), kQ),
            mult::reduce_witness<ring::kN>(std::span<const i64>(w), kQ));
}

TEST(PointChecker, RotatingRootsCatchAdversarialDefectAFixedRootMisses) {
  // The soundness gap of a single fixed evaluation point: a defect
  // d(x) = c1 * x^off + c2 with c2 == -c1 * x0^off (mod P) vanishes at x0,
  // so a checker that always evaluates there accepts the corrupted witness
  // even though the folded product changed. Rotation closes the gap: the
  // same defect is caught at every other root (it has at most deg(d) roots
  // mod P), and the shared checker's per-process root draw means an
  // adversary cannot even target one root set at build time.
  const unsigned kRootIdx[] = {5, 101, 170, 233};
  const PointChecker single(kRootIdx[0]);
  const PointChecker multi{std::span<const unsigned>(kRootIdx)};
  ASSERT_EQ(multi.num_roots(), 4u);
  ASSERT_EQ(multi.point(0), single.point());
  const u64 prime = single.prime();

  // Find (off, c1, c2): c2 = -c1 * x0^off mod P with a centered magnitude
  // small enough for eval_witness's coefficient bound (|c2| < 2^54; about
  // 1 in 32 candidates qualifies).
  constexpr i64 kMagCap = i64{1} << 54;
  std::size_t off = 0;
  i64 c1 = 0, c2 = 0;
  u64 x_pow = 1;  // x0^o
  for (std::size_t o = 1; o < ring::kN && c1 == 0; ++o) {
    x_pow = single.mul(x_pow, single.point());
    for (i64 c = 1; c < 64; ++c) {
      const u64 neg = prime - single.mul(static_cast<u64>(c), x_pow);
      const i64 centered =
          neg > prime / 2 ? -static_cast<i64>(prime - neg) : static_cast<i64>(neg);
      if (centered > -kMagCap && centered < kMagCap && centered != 0) {
        off = o;
        c1 = c;
        c2 = centered;
        break;
      }
    }
  }
  ASSERT_NE(c1, 0) << "no small-coefficient defect found (unexpected)";

  // A true witness, then the adversarial corruption.
  Xoshiro256StarStar rng(911);
  mult::SchoolbookMultiplier sb;
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  auto acc = sb.make_accumulator();
  sb.pointwise_accumulate(acc, sb.prepare_public(a, kQ), sb.prepare_secret(s, kQ));
  auto w = sb.finalize_witness(acc);
  auto defect = w;
  defect[off] += c1;
  defect[0] += c2;
  // The corruption is real: the folded product differs (c1 != 0 mod 2^kQ).
  ASSERT_NE(mult::reduce_witness<ring::kN>(std::span<const i64>(defect), kQ),
            mult::reduce_witness<ring::kN>(std::span<const i64>(w), kQ));

  // The fixed-root checker misses it (the defect vanishes at its point)...
  EXPECT_TRUE(single.verify(single.eval_public(a, kQ), single.eval_secret(s),
                            single.eval_witness(std::span<const i64>(defect))));

  // ...and so does the rotating checker's root 0 — but every other root in
  // the rotation rejects, so rotation bounds the escape probability at
  // (checks landing on the crafted root) / (rotation width).
  unsigned rejected = 0;
  for (std::size_t r = 0; r < multi.num_roots(); ++r) {
    const bool ok =
        multi.verify(multi.eval_public(a, kQ, r), multi.eval_secret(s, r),
                     multi.eval_witness(std::span<const i64>(defect), r));
    if (r == 0) {
      EXPECT_TRUE(ok) << "defect should vanish at the crafted root";
    } else {
      EXPECT_FALSE(ok) << "root " << r << " accepted the adversarial defect";
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, multi.num_roots() - 1);

  // draw_root cycles through the whole rotation, so consecutive checks never
  // pin a single point.
  std::array<bool, 4> seen{};
  for (int i = 0; i < 4; ++i) seen[multi.draw_root()] = true;
  for (const bool b : seen) EXPECT_TRUE(b);
}

/// The signed evaluation sum_i c_i x_r^i mod P as the checker computed it
/// before its evaluations went branch-free: positive and negative terms
/// summed apart behind a sign branch, each sum reduced once.
u64 signed_eval(const PointChecker& pc, std::size_t root, std::span<const i64> c) {
  const u64 p = pc.prime();
  mult::u128 pos = 0, neg = 0;
  u64 pw = 1;
  for (const i64 v : c) {
    if (v >= 0) {
      pos += static_cast<mult::u128>(static_cast<u64>(v)) * pw;
    } else {
      neg += static_cast<mult::u128>(static_cast<u64>(-v)) * pw;
    }
    pw = mult::mulmod(pw, pc.point(root), p);
  }
  return mult::submod(static_cast<u64>(pos % p), static_cast<u64>(neg % p), p);
}

TEST(PointChecker, BranchFreeEvaluationsMatchTheSignedFormula) {
  const auto& pc = shared_point_checker();
  for (std::size_t r = 0; r < pc.num_roots(); ++r) {
    // Every secret value, once each in one polynomial and as a constant.
    ring::SecretPoly ramp;
    for (std::size_t i = 0; i < ring::kN; ++i) ramp[i] = static_cast<i8>(i - 128);
    std::vector<ring::SecretPoly> secrets = {ramp};
    for (int v = -128; v <= 127; ++v) {
      ring::SecretPoly s;
      for (auto& c : s.c) c = static_cast<i8>(v);
      secrets.push_back(s);
    }
    for (const auto& s : secrets) {
      std::vector<i64> c(s.c.begin(), s.c.end());
      ASSERT_EQ(pc.eval_secret(s, r), signed_eval(pc, r, c)) << "root " << r;
    }

    // Publics at both ends of the qbits-16 lift, and random ones.
    Xoshiro256StarStar rng(912);
    const std::pair<ring::Poly, unsigned> publics[] = {
        {ring::Poly::constant(1u << 15), 16},        // centered -2^15
        {ring::Poly::constant((1u << 15) - 1), 16},  // centered 2^15 - 1
        {ring::Poly::constant(0xFFFF), 16},          // centered -1
        {ring::Poly::random(rng, 16), 16},
        {ring::Poly::random(rng, kQ), kQ}};
    for (const auto& [a, q] : publics) {
      std::vector<i64> c(ring::kN);
      for (std::size_t i = 0; i < ring::kN; ++i) c[i] = ring::centered(a[i], q);
      EXPECT_EQ(pc.eval_public(a, q, r), signed_eval(pc, r, c)) << "root " << r;
    }

    // Witnesses at the coefficient bound +-(2^55 - 1), in both lengths.
    constexpr i64 kEdge = (i64{1} << 55) - 1;
    for (const std::size_t len : {ring::kN, 2 * ring::kN - 1}) {
      for (const int pattern : {0, 1, 2}) {
        std::vector<i64> w(len);
        for (std::size_t i = 0; i < len; ++i) {
          const bool neg = pattern == 1 || (pattern == 2 && i % 2 == 1);
          w[i] = neg ? -kEdge : kEdge;
        }
        EXPECT_EQ(pc.eval_witness(w, r), signed_eval(pc, r, w))
            << "root " << r << " len " << len << " pattern " << pattern;
      }
    }
  }
  // One past the bound still throws, wherever it sits.
  for (const i64 bad : {i64{1} << 55, -(i64{1} << 55)}) {
    std::vector<i64> w(2 * ring::kN - 1, 0);
    w[300] = bad;
    EXPECT_THROW(pc.eval_witness(w), ContractViolation);
  }
}

TEST(PointChecker, AllRootEvaluationMatchesPerRootFormula) {
  // The lane body of eval_all, over the vector word and plain i64 lanes in
  // every build, against the signed per-root formula: random operands and
  // the extremes of the widening products (all -2^15 publics, +-5 and +-128
  // secrets) at every modulus.
  const auto& pc = shared_point_checker();
  Xoshiro256StarStar rng(913);
  const auto check = [&](const auto& evals, const std::vector<i64>& c) {
    for (std::size_t r = 0; r < pc.num_roots(); ++r) {
      EXPECT_EQ(evals[r], signed_eval(pc, r, c)) << "root " << r;
    }
  };
  for (unsigned q = 1; q <= 16; ++q) {
    for (const auto& a : {ring::Poly::random(rng, q),
                          ring::Poly::constant(static_cast<u16>(1u << (q - 1)))}) {
      std::vector<i64> c(ring::kN);
      for (std::size_t i = 0; i < ring::kN; ++i) c[i] = ring::centered(a[i], q);
      check(pc.eval_all<i64x8>(a, q), c);
      check(pc.eval_all<i64>(a, q), c);
    }
  }
  for (const int v : {-128, -5, 5, 127, 0}) {
    ring::SecretPoly s = v == 0 ? ring::SecretPoly::random(rng, 5) : ring::SecretPoly{};
    if (v != 0) s.c.fill(static_cast<i8>(v));
    const std::vector<i64> c(s.c.begin(), s.c.end());
    check(pc.eval_all<i64x8>(s), c);
    check(pc.eval_all<i64>(s), c);
  }
}

// --- algebraic check kind (point-eval) -------------------------------------

constexpr CheckedConfig kPointEvalConfig{CheckPolicy::kFull, CheckKind::kPointEval};

TEST(CheckedMultiplier, AlgebraicKindsBitIdenticalToRawWhenFaultFree) {
  Xoshiro256StarStar rng(920);
  for (const auto name : {"schoolbook", "karatsuba-8", "toom3", "toom4", "ntt"}) {
    const auto raw = mult::make_multiplier(name);
    const auto checked = make_checked(name, kPointEvalConfig);
    for (int iter = 0; iter < 3; ++iter) {
      const auto a = ring::Poly::random(rng, kQ);
      const auto b = ring::Poly::random(rng, kQ);
      EXPECT_EQ(checked->multiply(a, b, kQ), raw->multiply(a, b, kQ)) << name;
    }
    const auto s = ring::SecretPoly::random(rng, 4);
    const auto a = ring::Poly::random(rng, kQ);
    EXPECT_EQ(checked->multiply_secret(a, s, kQ), raw->multiply_secret(a, s, kQ))
        << name;
    EXPECT_GE(checked->fault_counters().checks, 4u);
    EXPECT_EQ(checked->fault_counters().mismatches, 0u) << name;
  }
}

TEST(CheckedMultiplier, AlgebraicMultiplyIsExactOnWidePublicOperands) {
  // A public x public product at qbits 13 reaches N * 2^24 = 2^32, past the
  // NTT's one-prime headroom: the witness the point check verifies must still
  // be exact, with or without a (disarmed) fault decorator in between.
  ring::Poly a;
  for (auto& c : a.c) c = static_cast<u16>(1u << 12);  // centered: -2^12
  const auto want = mult::SchoolbookMultiplier().multiply(a, a, 13);
  CheckedMultiplier plain(mult::make_multiplier("ntt"), kPointEvalConfig);
  CheckedMultiplier faulty(std::make_unique<FaultyPolyMultiplier>(
                               mult::make_multiplier("ntt"),
                               std::make_shared<FaultInjector>(5)),
                           kPointEvalConfig);
  for (const CheckedMultiplier* checked : {&plain, &faulty}) {
    EXPECT_EQ(checked->multiply(a, a, 13), want);
    EXPECT_EQ(checked->fault_counters().checks, 1u);
    EXPECT_EQ(checked->fault_counters().mismatches, 0u);
  }
}

TEST(CheckedMultiplier, AlgebraicSplitPathMatchesRawMatvec) {
  Xoshiro256StarStar rng(921);
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, kQ);
  const auto s = random_secrets(l, rng, 4);
  const auto raw = mult::make_multiplier("toom4");
  const auto checked = make_checked("toom4", kPointEvalConfig);
  EXPECT_EQ(mult::matrix_vector_mul(a, s, *checked, kQ, false),
            mult::matrix_vector_mul(a, s, *raw, kQ, false));
  EXPECT_GE(checked->fault_counters().checks, l);
  EXPECT_EQ(checked->fault_counters().mismatches, 0u);
}

TEST(CheckedMultiplier, AlgebraicKindsDetectAndRetryTransientWitnessFaults) {
  Xoshiro256StarStar rng(922);
  mult::SchoolbookMultiplier ref;
  auto inj = std::make_shared<FaultInjector>(17);
  inj->arm(inj->random_product_transient(kQ, /*max_ordinal=*/1));
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"), inj),
      kPointEvalConfig);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(checked.multiply_secret(a, s, kQ), ref.multiply_secret(a, s, kQ));
  EXPECT_EQ(checked.fault_counters().mismatches, 1u);
  EXPECT_EQ(checked.fault_counters().retry_recoveries, 1u);
}

TEST(CheckedMultiplier, AlgebraicKindsFailOverOnPermanentFaults) {
  Xoshiro256StarStar rng(923);
  mult::SchoolbookMultiplier ref;
  auto inj = injector_with(FaultSpec::permanent_flip(FaultSite::kProduct, 6, 41));
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"), inj),
      kPointEvalConfig);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(checked.multiply_secret(a, s, kQ), ref.multiply_secret(a, s, kQ));
  EXPECT_EQ(checked.fault_counters().mismatches, 1u);
  EXPECT_EQ(checked.fault_counters().failovers, 1u);
}

TEST(CheckedMultiplier, AlgebraicFinalizeDetectsAccumulatedRowFaults) {
  Xoshiro256StarStar rng(924);
  auto inj = injector_with({FaultSite::kProduct, FaultSpec::Kind::kTransient,
                            /*bit=*/3, true, /*fire_at=*/0, 1, /*coeff=*/8});
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("ntt"), inj),
      kPointEvalConfig);
  const auto raw = mult::make_multiplier("ntt");
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, kQ);
  const auto s = random_secrets(l, rng, 4);
  EXPECT_EQ(mult::matrix_vector_mul(a, s, checked, kQ, false),
            mult::matrix_vector_mul(a, s, *raw, kQ, false));
  EXPECT_EQ(checked.fault_counters().mismatches, 1u);
  EXPECT_EQ(checked.fault_counters().retry_recoveries, 1u);
  ASSERT_GE(checked.fault_log().size(), 1u);
  EXPECT_EQ(checked.fault_log()[0].path, FaultRecord::Path::kFinalize);
}

// The checked layout's footer (checked_multiplier.cpp): an operand's root
// evaluations and an accumulator's per-root sums are the kNumSharedRoots
// words before its last three.
constexpr std::size_t kRootsAt = PointChecker::kNumSharedRoots + 3;

/// An accumulator's per-root sums must equal a fresh evaluation of its pairs.
void expect_sums(const mult::Transformed& acc, const std::vector<ring::Poly>& a,
                 const std::vector<ring::SecretPoly>& s) {
  const auto& pc = shared_point_checker();
  for (std::size_t r = 0; r < pc.num_roots(); ++r) {
    u64 sum = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      sum = pc.add(sum, pc.mul(pc.eval_public(a[k], kQ, r), pc.eval_secret(s[k], r)));
    }
    EXPECT_EQ(static_cast<u64>(acc[acc.size() - kRootsAt + r]), sum) << "root " << r;
  }
}

TEST(CheckedMultiplier, PerRootSumsSurviveMigrationAndRetry) {
  Xoshiro256StarStar rng(925);
  mult::SchoolbookMultiplier ref;
  std::vector<ring::Poly> a;
  std::vector<ring::SecretPoly> s;
  for (std::size_t k = 0; k < 3; ++k) {
    a.push_back(ring::Poly::random(rng, kQ));
    s.push_back(ring::SecretPoly::random(rng, 4));
  }
  ring::Poly want{};
  for (std::size_t k = 0; k < 3; ++k) {
    ring::add_inplace(want, ref.multiply_secret(a[k], s[k], kQ), kQ);
  }

  // Migrated: toom3 is quarantined after the first pair, so the row moves to
  // schoolbook by replay, and its sums come along unchanged.
  auto inj = std::make_shared<FaultInjector>(7);
  BackendSupervisor sup({"toom3", "schoolbook"}, {1, 1000, 1, kPointEvalConfig},
                        [inj](std::size_t i) -> std::unique_ptr<mult::PolyMultiplier> {
                          if (i == 1) return mult::make_multiplier("schoolbook");
                          return std::make_unique<FaultyPolyMultiplier>(
                              mult::make_multiplier("toom3"), inj);
                        });
  const auto m = sup.make_worker_multiplier();
  auto acc = m->make_accumulator();
  m->pointwise_accumulate(acc, m->prepare_public(a[0], kQ), m->prepare_secret(s[0], kQ));
  inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 6, 11));
  const auto am = ring::Poly::random(rng, kQ);
  const auto sm = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(m->multiply_secret(am, sm, kQ), ref.multiply_secret(am, sm, kQ));
  ASSERT_EQ(sup.status()[0].state, BreakerState::kOpen);
  for (std::size_t k = 1; k < 3; ++k) {
    m->pointwise_accumulate(acc, m->prepare_public(a[k], kQ),
                            m->prepare_secret(s[k], kQ));
  }
  expect_sums(acc, a, s);
  EXPECT_EQ(m->finalize(acc, kQ), want);
  EXPECT_EQ(sup.status()[1].lazy_prepares, 2u);  // the replayed first pair

  // Retried: a transient on the witness fails the first point check, and the
  // replay of the raw pairs recovers.
  auto tr = injector_with({FaultSite::kProduct, FaultSpec::Kind::kTransient,
                           /*bit=*/5, true, /*fire_at=*/0, 1, /*coeff=*/40});
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom3"), tr),
      kPointEvalConfig);
  auto row = checked.make_accumulator();
  for (std::size_t k = 0; k < 3; ++k) {
    checked.pointwise_accumulate(row, checked.prepare_public(a[k], kQ),
                                 checked.prepare_secret(s[k], kQ));
  }
  expect_sums(row, a, s);
  EXPECT_EQ(checked.finalize(row, kQ), want);
  EXPECT_EQ(checked.fault_counters().mismatches, 1u);
  EXPECT_EQ(checked.fault_counters().retry_recoveries, 1u);
}

TEST(CheckedMultiplier, CorruptCarriedEvaluationOrSumIsCaughtNeverAccepted) {
  // One flipped word of a carried evaluation or of a per-root sum is wrong at
  // one root. Four finalizes of the row draw every root once: exactly one
  // flags a mismatch, and the ladder recovers it from the raw pairs.
  Xoshiro256StarStar rng(926);
  mult::SchoolbookMultiplier ref;
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  const auto want = ref.multiply_secret(a, s, kQ);
  for (const bool in_sum : {false, true}) {
    for (std::size_t r = 0; r < PointChecker::kNumSharedRoots; ++r) {
      CheckedMultiplier checked(mult::make_multiplier("toom3"), kPointEvalConfig);
      auto ta = checked.prepare_public(a, kQ);
      if (!in_sum) ta[ta.size() - kRootsAt + r] ^= 1;
      auto acc = checked.make_accumulator();
      checked.pointwise_accumulate(acc, ta, checked.prepare_secret(s, kQ));
      if (in_sum) acc[acc.size() - kRootsAt + r] ^= 1;
      for (std::size_t d = 0; d < PointChecker::kNumSharedRoots; ++d) {
        EXPECT_EQ(checked.finalize(acc, kQ), want) << "root " << r << " draw " << d;
      }
      EXPECT_EQ(checked.fault_counters().mismatches, 1u) << "root " << r;
      EXPECT_EQ(checked.fault_counters().retry_recoveries, 1u) << "root " << r;
    }
  }
}

// --- architecture-routed fault campaigns ------------------------------------

TEST(ArchFaultCampaign, SiteFaultsAreDetectedAndRecoveredNeverSilent) {
  Xoshiro256StarStar rng(5050);
  mult::SchoolbookMultiplier ref;
  struct SiteCase {
    FaultSite site;
    unsigned width;
  };
  for (const std::string arch : {"hs1-256", "hs2", "lw4"}) {
    std::vector<SiteCase> sites = {{FaultSite::kBramRead, 64},
                                   {FaultSite::kBramWrite, 64},
                                   {FaultSite::kMacAccumulate, kQ}};
    if (arch == "hs2") sites.push_back({FaultSite::kDspOutput, 42});
    for (const auto& sc : sites) {
      const auto a = ring::Poly::random(rng, kQ);
      const auto s = ring::SecretPoly::random(rng, 4);
      const auto expect = ref.multiply_secret(a, s, kQ);

      // Count the site's events during one multiplication (clean injector).
      FaultInjector probe;
      {
        auto m = arch::make_architecture(arch);
        m->set_fault_hook(&probe);
        ASSERT_EQ(m->multiply(a, s).product, expect) << arch;
      }
      const u64 events = probe.ordinal(sc.site);
      ASSERT_GT(events, 0u) << arch << " " << to_string(sc.site);

      for (int trial = 0; trial < 4; ++trial) {
        FaultInjector draw(static_cast<u64>(trial) * 77 + 5);
        const auto spec = draw.random_transient(sc.site, sc.width, events);

        // Classification run: does this fault corrupt the unchecked product?
        FaultInjector cls;
        cls.arm(spec);
        auto unchecked = arch::make_architecture(arch);
        unchecked->set_fault_hook(&cls);
        const bool effective = unchecked->multiply(a, s).product != expect;

        // Checked run: the same fault must be caught and repaired.
        FaultInjector inj;
        inj.arm(spec);
        CheckedHwMultiplier checked(arch::make_architecture(arch));
        checked.set_fault_hook(&inj);
        const auto res = checked.multiply(a, s);
        // The acceptance bar: zero silent corruptions, ever.
        EXPECT_EQ(res.product, expect)
            << arch << " " << to_string(sc.site) << " trial " << trial;
        if (effective) {
          EXPECT_GE(checked.fault_counters().mismatches, 1u)
              << arch << " " << to_string(sc.site) << " trial " << trial;
          EXPECT_GE(checked.fault_counters().recoveries(), 1u)
              << arch << " " << to_string(sc.site) << " trial " << trial;
        } else {
          EXPECT_EQ(checked.fault_counters().mismatches, 0u)
              << arch << " " << to_string(sc.site) << " trial " << trial;
        }
        EXPECT_EQ(checked.cycle_violations(), 0u);
      }
    }
  }
}

TEST(CycleWatchdog, ArchitecturesReproduceTheirHeadlineBudgets) {
  // The multiplier FSMs are data-independent: every run must land exactly on
  // the paper's Table 1 budget, and repeat runs must not drift a cycle.
  Xoshiro256StarStar rng(5151);
  for (const auto name :
       {"lw4", "lw8", "lw16", "hs1-256", "hs1-512", "hs2", "baseline-256",
        "baseline-512"}) {
    CheckedHwMultiplier checked(arch::make_architecture(name),
                                {CheckPolicy::kOff, CheckKind::kReference});
    for (int i = 0; i < 2; ++i) {
      const auto a = ring::Poly::random(rng, kQ);
      const auto s = ring::SecretPoly::random(rng, 4);
      checked.multiply(a, s);
    }
    EXPECT_EQ(checked.cycle_violations(), 0u) << name;
  }
}

TEST(KemBatchIsolation, MixedOutcomesStayIsolatedPerItem) {
  // One malformed ciphertext fails alone, one transient-struck item recovers,
  // the rest complete clean — and the counters line up with the statuses.
  std::vector<batch::KeygenRequest> reqs(1);
  Xoshiro256StarStar rng(6003);
  rng.fill(reqs[0].seed_a);
  rng.fill(reqs[0].seed_s);
  rng.fill(reqs[0].z);
  std::vector<kem::Message> msgs(5);
  for (auto& msg : msgs) rng.fill(msg);

  batch::KemBatch clean(kem::kSaber, "toom4", 2);
  const auto keys = clean.keygen_many(reqs);
  const auto enc = clean.encaps_many(keys[0].value.pk, msgs);
  std::vector<std::vector<u8>> cts;
  for (const auto& e : enc) cts.push_back(e.value.ct);
  const auto expect = clean.decaps_many(keys[0].value.sk, cts);
  cts[1].resize(8);  // malformed: truncated ciphertext

  auto inj = std::make_shared<FaultInjector>(55);
  inj->arm({FaultSite::kProduct, FaultSpec::Kind::kTransient, /*bit=*/3, true,
            /*fire_at=*/1, 1, /*coeff=*/12});
  std::vector<std::shared_ptr<const CheckedMultiplier>> monitors;
  batch::KemBatch b(
      kem::kSaber,
      [&] {
        auto checked = std::make_shared<CheckedMultiplier>(
            std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"),
                                                   inj));
        monitors.push_back(checked);
        return std::shared_ptr<const mult::PolyMultiplier>(checked);
      },
      2);
  const auto got = b.decaps_many(keys[0].value.sk, cts);
  ASSERT_EQ(got.size(), 5u);
  int ok = 0, recovered = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i == 1) {
      EXPECT_EQ(got[i].status, batch::ItemStatus::kFailed);
      EXPECT_TRUE(std::ranges::all_of(got[i].value, [](u8 v) { return v == 0; }));
      continue;
    }
    EXPECT_TRUE(got[i].ok()) << i;
    EXPECT_EQ(got[i].value, expect[i].value) << i;
    if (got[i].status == batch::ItemStatus::kOk) ++ok;
    if (got[i].status == batch::ItemStatus::kRecovered) ++recovered;
  }
  EXPECT_EQ(recovered, 1);  // the transient struck exactly one item
  EXPECT_EQ(ok, 3);
  u64 mismatches = 0, recoveries = 0;
  for (const auto& m : monitors) {
    mismatches += m->fault_counters().mismatches;
    recoveries += m->fault_counters().recoveries();
  }
  EXPECT_EQ(mismatches, 1u);
  EXPECT_EQ(recoveries, 1u);
}

TEST(KemBatchIsolation, TransientFaultStrikesOneItemOfAKeygenChunk) {
  // keygen_many hashes four keys in lockstep, but each item's products run
  // on their own: a transient fault during item 2 of one 4-item chunk must
  // recover that item alone, and every value must equal a fault-free batch.
  std::vector<batch::KeygenRequest> reqs(4);
  Xoshiro256StarStar rng(6004);
  for (auto& r : reqs) {
    rng.fill(r.seed_a);
    rng.fill(r.seed_s);
    rng.fill(r.z);
  }
  batch::KemBatch clean(kem::kSaber, "ntt", 1);
  const auto expect = clean.keygen_many(reqs);

  auto inj = std::make_shared<FaultInjector>(66);
  const auto factory = [&inj] {
    return std::shared_ptr<const mult::PolyMultiplier>(std::make_shared<CheckedMultiplier>(
        std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("ntt"), inj)));
  };
  batch::KemBatch b(kem::kSaber, factory, 1);
  // Product events per keygen, counted fault-free, place the fault in item 2.
  b.keygen_many(std::span(reqs).first(1));
  const u64 per_item = inj->ordinal(FaultSite::kProduct);
  ASSERT_GT(per_item, 0u);
  inj->reset();
  inj->arm({FaultSite::kProduct, FaultSpec::Kind::kTransient, /*bit=*/5, true,
            /*fire_at=*/2 * per_item + 1, 1, /*coeff=*/40});

  const auto got = b.keygen_many(reqs);
  ASSERT_EQ(got.size(), reqs.size());
  EXPECT_EQ(inj->activations().size(), 1u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, i == 2 ? batch::ItemStatus::kRecovered : batch::ItemStatus::kOk)
        << i;
    EXPECT_EQ(got[i].value.pk, expect[i].value.pk) << i;
    EXPECT_EQ(got[i].value.sk, expect[i].value.sk) << i;
  }
}

// A one-worker KemBatch over checked "ntt" multipliers whose products all
// pass through `inj`, and the key and messages of an FO-chunk test: one key
// and four messages, encapsulated by a fault-free batch.
struct FoChunkFixture {
  std::shared_ptr<FaultInjector> inj = std::make_shared<FaultInjector>(67);
  batch::KemBatch clean{kem::kSaber, "ntt", 1};
  batch::KemBatch faulty{kem::kSaber,
                         [inj = inj] {
                           return std::shared_ptr<const mult::PolyMultiplier>(
                               std::make_shared<CheckedMultiplier>(
                                   std::make_unique<FaultyPolyMultiplier>(
                                       mult::make_multiplier("ntt"), inj)));
                         },
                         1};
  kem::KemKeyPair kp;
  std::vector<kem::Message> msgs = std::vector<kem::Message>(4);

  FoChunkFixture() {
    std::vector<batch::KeygenRequest> reqs(1);
    Xoshiro256StarStar rng(6005);
    rng.fill(reqs[0].seed_a);
    rng.fill(reqs[0].seed_s);
    rng.fill(reqs[0].z);
    for (auto& m : msgs) rng.fill(m);
    kp = clean.keygen_many(reqs)[0].value;
  }

  /// Product events of one fault-free call on `faulty`.
  template <typename Call>
  u64 product_events(Call&& call) {
    inj->reset();
    call();
    return inj->ordinal(FaultSite::kProduct);
  }

  void arm_at(u64 ordinal) {
    inj->reset();
    inj->arm({FaultSite::kProduct, FaultSpec::Kind::kTransient, /*bit=*/5, true,
              /*fire_at=*/ordinal, 1, /*coeff=*/40});
  }
};

TEST(KemBatchIsolation, TransientFaultStrikesOneItemOfAnEncapsChunk) {
  // encaps_many hashes four messages in lockstep, but each item's products
  // run on their own: a transient fault during item 2 of one 4-item chunk
  // must recover that item alone, and every value must equal a fault-free
  // batch's.
  FoChunkFixture f;
  const auto expect = f.clean.encaps_many(f.kp.pk, f.msgs);
  // Product events per encapsulation and of prepare_pk, counted fault-free,
  // place the fault in item 2.
  const auto msgs = std::span(f.msgs);
  const u64 one = f.product_events([&] { f.faulty.encaps_many(f.kp.pk, msgs.first(1)); });
  const u64 two = f.product_events([&] { f.faulty.encaps_many(f.kp.pk, msgs.first(2)); });
  const u64 per_item = two - one;
  const u64 setup = one - per_item;
  ASSERT_GT(per_item, 0u);
  f.arm_at(setup + 2 * per_item + 1);

  const auto got = f.faulty.encaps_many(f.kp.pk, f.msgs);
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_EQ(f.inj->activations().size(), 1u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, i == 2 ? batch::ItemStatus::kRecovered : batch::ItemStatus::kOk)
        << i;
    EXPECT_EQ(got[i].value.ct, expect[i].value.ct) << i;
    EXPECT_EQ(got[i].value.key, expect[i].value.key) << i;
  }
}

TEST(KemBatchIsolation, TransientFaultStrikesOneItemOfADecapsChunk) {
  // decaps_many decrypts the four items of a chunk, hashes them in lockstep,
  // then re-encrypts each: a transient fault in item 2's re-encryption must
  // recover that item alone, and every key must equal a fault-free batch's.
  FoChunkFixture f;
  const auto enc = f.clean.encaps_many(f.kp.pk, f.msgs);
  std::vector<std::vector<u8>> cts;
  for (const auto& e : enc) cts.push_back(e.value.ct);
  const auto expect = f.clean.decaps_many(f.kp.sk, cts);

  const auto msgs = std::span(f.msgs);
  const auto span_cts = std::span(cts);
  const u64 enc1 = f.product_events([&] { f.faulty.encaps_many(f.kp.pk, msgs.first(1)); });
  const u64 enc2 = f.product_events([&] { f.faulty.encaps_many(f.kp.pk, msgs.first(2)); });
  const u64 dec1 = f.product_events([&] { f.faulty.decaps_many(f.kp.sk, span_cts.first(1)); });
  const u64 dec2 = f.product_events([&] { f.faulty.decaps_many(f.kp.sk, span_cts.first(2)); });
  const u64 reencrypt = enc2 - enc1;                // one encryption
  const u64 decrypt = (dec2 - dec1) - reencrypt;    // one decryption
  const u64 setup = dec1 - decrypt - reencrypt;     // prepare_sk's share, if any
  ASSERT_GT(reencrypt, 0u);
  ASSERT_GT(decrypt, 0u);
  // The chunk decrypts items 0-3, then re-encrypts them in order.
  f.arm_at(setup + 4 * decrypt + 2 * reencrypt + 1);

  const auto got = f.faulty.decaps_many(f.kp.sk, cts);
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_EQ(f.inj->activations().size(), 1u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, i == 2 ? batch::ItemStatus::kRecovered : batch::ItemStatus::kOk)
        << i;
    EXPECT_EQ(got[i].value, expect[i].value) << i;
    EXPECT_EQ(got[i].value, enc[i].value.key) << i;
  }
}

TEST(KemBatchIsolation, FactoryMismatchIsRejected) {
  int calls = 0;
  EXPECT_THROW(batch::KemBatch(kem::kSaber,
                               [&calls]() -> std::shared_ptr<const mult::PolyMultiplier> {
                                 return mult::make_multiplier(calls++ == 0 ? "toom4"
                                                                           : "ntt");
                               },
                               2),
               ContractViolation);
}

}  // namespace
}  // namespace saber::robust
