// Tests for the backend circuit breaker (src/robust/supervisor.hpp): breaker
// state transitions (closed -> open -> half-open -> closed), known-answer
// re-probing, transform-domain failover across health changes, and the
// end-to-end KemBatch guarantee: a stuck backend never costs an item.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "mult/batch.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "robust/fault_injector.hpp"
#include "robust/faulty_multiplier.hpp"
#include "robust/checked_multiplier.hpp"
#include "robust/supervisor.hpp"
#include "saber/batch.hpp"
#include "saber/kem.hpp"

namespace saber::robust {
namespace {

constexpr unsigned kQ = 13;

/// A supervisor whose first backend is a fault-injected toom4 and whose
/// second is a clean schoolbook; returns the shared injector.
struct Rig {
  std::shared_ptr<FaultInjector> inj = std::make_shared<FaultInjector>(7);
  BackendSupervisor sup;

  explicit Rig(SupervisorConfig cfg)
      : sup({"toom4", "schoolbook"}, cfg,
            [inj = inj](std::size_t i) -> std::unique_ptr<mult::PolyMultiplier> {
              if (i == 0) {
                return std::make_unique<FaultyPolyMultiplier>(
                    mult::make_multiplier("toom4"), inj);
              }
              return mult::make_multiplier("schoolbook");
            }) {}
};

TEST(BackendSupervisor, FacadeIsBitIdenticalToBackendsWhenHealthy) {
  BackendSupervisor sup({"toom4", "ntt"});
  EXPECT_EQ(sup.name(), "supervised(toom4>ntt)");
  const auto m = sup.make_worker_multiplier();
  EXPECT_EQ(m->name(), sup.name());
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(11);
  for (const unsigned qbits : {10u, 13u}) {
    const auto a = ring::Poly::random(rng, qbits);
    const auto s = ring::SecretPoly::random(rng, 4);
    EXPECT_EQ(m->multiply_secret(a, s, qbits), ref.multiply_secret(a, s, qbits));
  }
  const auto st = sup.status();
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0].state, BreakerState::kClosed);
  EXPECT_EQ(st[0].calls, 2u);  // the healthy first backend takes all traffic
  EXPECT_EQ(st[1].calls, 0u);
}

TEST(BackendSupervisor, QuarantineProbeFailureAndReadmission) {
  Rig rig({/*quarantine_after=*/2, /*probe_after=*/3, /*probes_to_close=*/1, {}});
  const auto m = rig.sup.make_worker_multiplier();
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(12);
  const auto next = [&] {
    const auto a = ring::Poly::random(rng, kQ);
    const auto s = ring::SecretPoly::random(rng, 4);
    EXPECT_EQ(m->multiply_secret(a, s, kQ), ref.multiply_secret(a, s, kQ));
  };

  rig.inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 3, 7));

  // Two confirmed faults open the breaker (each call still returns the
  // correct product via the checked decorator's failover).
  next();
  next();
  auto st = rig.sup.status();
  EXPECT_EQ(st[0].state, BreakerState::kOpen);
  EXPECT_EQ(st[0].quarantines, 1u);
  EXPECT_EQ(st[0].confirmed_faults, 2u);
  EXPECT_EQ(st[0].calls, 2u);

  // While open, traffic routes around to the second backend.
  next();
  next();
  next();
  st = rig.sup.status();
  EXPECT_EQ(st[0].routed_around, 3u);
  EXPECT_EQ(st[1].calls, 3u);

  // probe_after routed-around calls -> half-open -> known-answer probe.
  // The fault is still armed, so the probe fails and the breaker re-opens.
  next();
  st = rig.sup.status();
  EXPECT_EQ(st[0].state, BreakerState::kOpen);
  EXPECT_EQ(st[0].probe_failures, 1u);
  EXPECT_EQ(st[0].readmissions, 0u);

  // Clear the fault; after another probe window the probe passes, the
  // breaker closes, and traffic returns to the first backend. (The failed
  // probe's own call already counted one routed-around skip, so the third
  // call here finds the window elapsed, probes, and lands on backend 0.)
  rig.inj->disarm_all();
  next();
  next();
  next();  // probes, passes, closes — and this call runs on backend 0
  st = rig.sup.status();
  EXPECT_EQ(st[0].state, BreakerState::kClosed);
  EXPECT_EQ(st[0].readmissions, 1u);
  EXPECT_EQ(st[0].confirmed_faults, 0u);  // reset on readmission
  EXPECT_EQ(st[0].calls, 3u);
  next();
  EXPECT_EQ(rig.sup.status()[0].calls, 4u);
}

TEST(BackendSupervisor, AllBackendsOpenStillServesCorrectProducts) {
  auto inj = std::make_shared<FaultInjector>(9);
  inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 5, 50));
  BackendSupervisor sup(
      {"toom4"}, {/*quarantine_after=*/1, /*probe_after=*/1000, 1, {}},
      [inj](std::size_t) -> std::unique_ptr<mult::PolyMultiplier> {
        return std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom4"),
                                                      inj);
      });
  const auto m = sup.make_worker_multiplier();
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(13);
  for (int i = 0; i < 3; ++i) {
    const auto a = ring::Poly::random(rng, kQ);
    const auto s = ring::SecretPoly::random(rng, 4);
    // No healthy backend left: the last one is used anyway, and the checked
    // decorator's failover keeps the results correct.
    EXPECT_EQ(m->multiply_secret(a, s, kQ), ref.multiply_secret(a, s, kQ));
  }
  const auto st = sup.status();
  EXPECT_EQ(st[0].state, BreakerState::kOpen);
  EXPECT_EQ(st[0].calls, 3u);
}

TEST(BackendSupervisor, TransformsPreparedBeforeQuarantineSurviveFailover) {
  Rig rig({/*quarantine_after=*/1, /*probe_after=*/1000, 1, {}});
  const auto m = rig.sup.make_worker_multiplier();
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(14);

  // Prepare while backend 0 is healthy (a shared matrix, in KemBatch terms).
  const auto a = ring::Poly::random(rng, kQ);
  const auto ta = m->prepare_public(a, kQ);

  // Open backend 0 with one confirmed fault.
  rig.inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 2, 9));
  const auto am = ring::Poly::random(rng, kQ);
  const auto sm = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(m->multiply_secret(am, sm, kQ), ref.multiply_secret(am, sm, kQ));
  ASSERT_EQ(rig.sup.status()[0].state, BreakerState::kOpen);

  // A secret prepared after the quarantine still combines with the old
  // public transform, and finalize runs on the healthy second backend.
  const auto s = ring::SecretPoly::random(rng, 4);
  const auto ts = m->prepare_secret(s, kQ);
  auto acc = m->make_accumulator();
  m->pointwise_accumulate(acc, ta, ts);
  EXPECT_EQ(m->finalize(acc, kQ), ref.multiply_secret(a, s, kQ));
  const auto st = rig.sup.status();
  EXPECT_EQ(st[1].calls, 1u);  // the finalize landed on the clean backend
  EXPECT_EQ(st[0].routed_around, 1u);
}

// --- lazy copy-on-quarantine preparation ------------------------------------

TEST(BackendSupervisor, OnlyActiveBackendPreparedBeforeAnyFault) {
  BackendSupervisor sup({"toom4", "ntt"});
  const auto m = sup.make_worker_multiplier();
  Xoshiro256StarStar rng(18);
  const std::size_t l = 3;
  ring::PolyMatrix a(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) a.at(r, c) = ring::Poly::random(rng, kQ);
  }

  // The no-fault path materializes exactly one image per element, all on the
  // active backend — the failover backend pays nothing until a quarantine.
  const mult::PreparedMatrix pm(a, *m, kQ);
  auto st = sup.status();
  EXPECT_EQ(st[0].prepares, l * l);
  EXPECT_EQ(st[1].prepares, 0u);
  EXPECT_EQ(st[0].lazy_prepares + st[1].lazy_prepares, 0u);

  // A healthy matvec adds only the secret prepares, still on backend 0 only.
  ring::SecretVec s(l);
  for (auto& sp : s) sp = ring::SecretPoly::random(rng, 4);
  const auto r = mult::matrix_vector_mul(pm, s, *m, false);
  EXPECT_EQ(r, mult::matrix_vector_mul(a, s, *mult::make_multiplier("toom4"), kQ,
                                       false));
  st = sup.status();
  EXPECT_EQ(st[0].prepares, l * l + l);
  EXPECT_EQ(st[1].prepares, 0u);
  EXPECT_EQ(st[0].lazy_prepares + st[1].lazy_prepares, 0u);
}

TEST(BackendSupervisor, QuarantineMidBatchTriggersExactlyOneLazyPrepare) {
  Rig rig({/*quarantine_after=*/1, /*probe_after=*/1000, 1, {}});
  const auto m = rig.sup.make_worker_multiplier();
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(19);

  // Public transform prepared while backend 0 is healthy.
  const auto a = ring::Poly::random(rng, kQ);
  const auto ta = m->prepare_public(a, kQ);
  ASSERT_EQ(rig.sup.status()[0].prepares, 1u);

  // One confirmed fault quarantines backend 0.
  rig.inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 2, 9));
  const auto am = ring::Poly::random(rng, kQ);
  const auto sm = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(m->multiply_secret(am, sm, kQ), ref.multiply_secret(am, sm, kQ));
  ASSERT_EQ(rig.sup.status()[0].state, BreakerState::kOpen);

  // Everything after the quarantine lands on backend 1; combining the old
  // backend-0 public image costs exactly one on-demand re-preparation.
  const auto s = ring::SecretPoly::random(rng, 4);
  const auto ts = m->prepare_secret(s, kQ);
  auto acc = m->make_accumulator();
  m->pointwise_accumulate(acc, ta, ts);
  EXPECT_EQ(m->finalize(acc, kQ), ref.multiply_secret(a, s, kQ));
  const auto st = rig.sup.status();
  EXPECT_EQ(st[1].prepares, 1u);       // the post-quarantine secret
  EXPECT_EQ(st[1].lazy_prepares, 1u);  // the old public image, re-prepared once
  EXPECT_EQ(st[0].lazy_prepares, 0u);
}

TEST(BackendSupervisor, AccumulatorMigratesAcrossFailoverBoundary) {
  Rig rig({/*quarantine_after=*/1, /*probe_after=*/1000, 1, {}});
  const auto m = rig.sup.make_worker_multiplier();
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(20);

  // First term accumulated while backend 0 is healthy.
  const auto a0 = ring::Poly::random(rng, kQ);
  const auto s0 = ring::SecretPoly::random(rng, 4);
  auto acc = m->make_accumulator();
  m->pointwise_accumulate(acc, m->prepare_public(a0, kQ), m->prepare_secret(s0, kQ));

  // Quarantine backend 0 mid-accumulation.
  rig.inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 6, 11));
  const auto am = ring::Poly::random(rng, kQ);
  const auto sm = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(m->multiply_secret(am, sm, kQ), ref.multiply_secret(am, sm, kQ));
  ASSERT_EQ(rig.sup.status()[0].state, BreakerState::kOpen);

  // The second term routes to backend 1: the backend-0 accumulator is
  // migrated by replaying its retained raw pair (two lazy prepares), and the
  // verified sum still matches the reference across the boundary.
  const auto a1 = ring::Poly::random(rng, kQ);
  const auto s1 = ring::SecretPoly::random(rng, 4);
  m->pointwise_accumulate(acc, m->prepare_public(a1, kQ), m->prepare_secret(s1, kQ));
  auto expect = ref.multiply_secret(a0, s0, kQ);
  ring::add_inplace(expect, ref.multiply_secret(a1, s1, kQ), kQ);
  EXPECT_EQ(m->finalize(acc, kQ), expect);
  const auto st = rig.sup.status();
  EXPECT_EQ(st[1].lazy_prepares, 2u);  // the replayed (a0, s0) pair
  EXPECT_EQ(st[1].calls, 1u);          // just the finalize; the rest ran on 0
}

TEST(BackendSupervisor, SupervisedLayoutKeepsRawOperandsOnce) {
  BackendSupervisor sup({"toom4", "ntt"});
  const auto m = sup.make_worker_multiplier();
  const auto checked = make_checked("toom4");
  Xoshiro256StarStar rng(21);
  const std::size_t l = 3;
  ring::PolyMatrix a(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) a.at(r, c) = ring::Poly::random(rng, kQ);
  }

  // A supervised element is laid out exactly like a checked one: one backend
  // image, the raw polynomial once, and one footer.
  EXPECT_EQ(mult::PreparedMatrix(a, *m, kQ).value_count(),
            mult::PreparedMatrix(a, *checked, kQ).value_count());

  // Likewise the accumulator: one raw-pair ledger, one footer.
  auto sup_acc = m->make_accumulator();
  auto chk_acc = checked->make_accumulator();
  for (std::size_t j = 0; j < l; ++j) {
    const auto s = ring::SecretPoly::random(rng, 4);
    m->pointwise_accumulate(sup_acc, m->prepare_public(a.at(0, j), kQ),
                            m->prepare_secret(s, kQ));
    checked->pointwise_accumulate(chk_acc, checked->prepare_public(a.at(0, j), kQ),
                                  checked->prepare_secret(s, kQ));
  }
  EXPECT_EQ(sup_acc.size(), chk_acc.size());
  EXPECT_EQ(m->finalize(sup_acc, kQ), checked->finalize(chk_acc, kQ));
}

TEST(BackendSupervisor, OneBackendFacadeMatchesPlainCheckedMultiplier) {
  // A supervisor over one backend is the plain checked decorator plus a
  // breaker with nowhere to route: the same backend, fault-injected on the
  // same schedule, must give identical products, counters and injector
  // ordinals through both, under both check kinds.
  constexpr unsigned kP = 10;
  for (const CheckKind kind : {CheckKind::kReference, CheckKind::kPointEval}) {
    const CheckedConfig check{CheckPolicy::kFull, kind};
    auto sup_inj = std::make_shared<FaultInjector>(31);
    auto chk_inj = std::make_shared<FaultInjector>(31);
    BackendSupervisor sup(
        {"toom3"}, {/*quarantine_after=*/1, /*probe_after=*/1, 1, check},
        [sup_inj](std::size_t) -> std::unique_ptr<mult::PolyMultiplier> {
          return std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom3"),
                                                        sup_inj);
        });
    const auto supervised = sup.make_worker_multiplier();
    const CheckedMultiplier checked(
        std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier("toom3"), chk_inj),
        check);

    // multiply, matvec, inner product; a transient on the second product,
    // then a stuck-at bit from the transposed matvec on.
    const auto run = [](const mult::PolyMultiplier& m, FaultInjector& inj) {
      Xoshiro256StarStar rng(23);
      std::vector<ring::Poly> out;
      inj.arm({FaultSite::kProduct, FaultSpec::Kind::kTransient, /*bit=*/5, true,
               /*fire_at=*/1, 1, /*coeff=*/40});
      for (int i = 0; i < 2; ++i) {
        const auto a = ring::Poly::random(rng, kQ);
        const auto s = ring::SecretPoly::random(rng, 4);
        out.push_back(m.multiply_secret(a, s, kQ));
      }
      const std::size_t l = 3;
      ring::PolyMatrix a(l, l);
      for (std::size_t r = 0; r < l; ++r) {
        for (std::size_t c = 0; c < l; ++c) a.at(r, c) = ring::Poly::random(rng, kQ);
      }
      ring::PolyVec b(l);
      for (auto& bp : b) bp = ring::Poly::random(rng, kP);
      ring::SecretVec s(l);
      for (auto& sp : s) sp = ring::SecretPoly::random(rng, 4);
      const auto ts = mult::prepare_secrets(s, m, kQ);
      const mult::PreparedMatrix pa(a, m, kQ);
      for (const auto& r : mult::matrix_vector_mul(pa, ts, m, false)) out.push_back(r);
      inj.arm(FaultSpec::permanent_flip(FaultSite::kProduct, 3, 77));
      for (const auto& r : mult::matrix_vector_mul(pa, ts, m, true)) out.push_back(r);
      out.push_back(mult::inner_product(b, ts, m, kP));
      out.push_back(m.multiply_secret(b[0], s[0], kQ));
      return out;
    };
    const auto got = run(*supervised, *sup_inj);
    EXPECT_EQ(got, run(checked, *chk_inj));
    FaultInjector unused;
    EXPECT_EQ(got, run(*mult::make_multiplier("schoolbook"), unused));

    const auto c = dynamic_cast<const FaultMonitor&>(*supervised).fault_counters();
    const auto d = checked.fault_counters();
    EXPECT_EQ(c.checks, d.checks);
    EXPECT_EQ(c.mismatches, d.mismatches);
    EXPECT_EQ(c.retry_recoveries, d.retry_recoveries);
    EXPECT_EQ(c.failovers, d.failovers);
    EXPECT_GE(c.retry_recoveries, 1u);  // the transient
    EXPECT_GE(c.failovers, 1u);         // the stuck-at bit
    EXPECT_EQ(sup_inj->ordinal(FaultSite::kProduct),
              chk_inj->ordinal(FaultSite::kProduct));
    EXPECT_EQ(sup.status()[0].state, BreakerState::kOpen);
  }
}

TEST(BackendSupervisor, FailoverBetweenModQMatvecAndModPInnerProduct) {
  // SaberPke::encrypt's pattern: secrets prepared once at q = 2^13 feed the
  // mod-q matvec and the mod-p (eps = 10) inner product against a prepared
  // public vector. Here backend 0 is quarantined after the matvec and after
  // the first inner-product term, so the mod-p accumulator migrates and every
  // later image is re-prepared at its own modulus.
  constexpr unsigned kP = 10;
  SupervisorConfig cfg{/*quarantine_after=*/1, /*probe_after=*/1000, 1, {}};
  cfg.check.kind = CheckKind::kPointEval;
  Rig rig(cfg);
  const auto m = rig.sup.make_worker_multiplier();
  const auto raw = mult::make_multiplier("toom4");
  Xoshiro256StarStar rng(22);
  const std::size_t l = 3;
  ring::PolyMatrix a(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) a.at(r, c) = ring::Poly::random(rng, kQ);
  }
  ring::PolyVec b(l);
  for (auto& bp : b) bp = ring::Poly::random(rng, kP);
  ring::SecretVec s(l);
  for (auto& sp : s) sp = ring::SecretPoly::random(rng, 4);

  const mult::PreparedMatrix pa(a, *m, kQ);
  const mult::PreparedVector pb(b, *m, kP);
  const auto ts = mult::prepare_secrets(s, *m, kQ);
  EXPECT_EQ(mult::matrix_vector_mul(pa, ts, *m, false),
            mult::matrix_vector_mul(a, s, *raw, kQ, false));

  auto acc = m->make_accumulator();
  m->pointwise_accumulate(acc, pb.at(0), ts[0]);

  rig.inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 5, 13));
  const auto am = ring::Poly::random(rng, kQ);
  const auto sm = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(m->multiply_secret(am, sm, kQ), raw->multiply_secret(am, sm, kQ));
  ASSERT_EQ(rig.sup.status()[0].state, BreakerState::kOpen);

  for (std::size_t j = 1; j < l; ++j) m->pointwise_accumulate(acc, pb.at(j), ts[j]);
  EXPECT_EQ(m->finalize(acc, kP), mult::inner_product(b, s, *raw, kP));
  const auto st = rig.sup.status();
  // Two for the migrated (b_0, s_0) pair, two for each later term.
  EXPECT_EQ(st[1].lazy_prepares, 2 * l);
  EXPECT_EQ(st[1].confirmed_faults, 0u);  // every point check on backend 1 passed
  EXPECT_EQ(st[1].prepares, 0u);
}

TEST(BackendSupervisor, RawTransformsAreRejected) {
  BackendSupervisor sup({"toom4", "ntt"});
  const auto m = sup.make_worker_multiplier();
  const auto raw = mult::make_multiplier("toom4");
  Xoshiro256StarStar rng(15);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  auto acc = m->make_accumulator();
  EXPECT_THROW(
      m->pointwise_accumulate(acc, raw->prepare_public(a, kQ), m->prepare_secret(s, kQ)),
      ContractViolation);
  auto raw_acc = raw->make_accumulator();
  EXPECT_THROW(m->finalize(raw_acc, kQ), ContractViolation);
}

TEST(BackendSupervisor, SupervisedMatvecMatchesRawBackend) {
  BackendSupervisor sup({"toom4", "ntt"});
  const auto m = sup.make_worker_multiplier();
  const auto raw = mult::make_multiplier("toom4");
  Xoshiro256StarStar rng(16);
  const std::size_t l = 3;
  ring::PolyMatrix a(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) a.at(r, c) = ring::Poly::random(rng, kQ);
  }
  ring::SecretVec s(l);
  for (auto& sp : s) sp = ring::SecretPoly::random(rng, 4);
  EXPECT_EQ(mult::matrix_vector_mul(a, s, *m, kQ, false),
            mult::matrix_vector_mul(a, s, *raw, kQ, false));
}

// --- end to end: KemBatch over a supervised multiplier ----------------------

TEST(BackendSupervisor, KemBatchSurvivesStuckBackendThenReadmitsIt) {
  std::vector<batch::KeygenRequest> reqs(1);
  Xoshiro256StarStar rng(17);
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

  Rig rig({/*quarantine_after=*/2, /*probe_after=*/2, /*probes_to_close=*/1, {}});
  batch::KemBatch b(
      kem::kSaber, [&rig] { return rig.sup.make_worker_multiplier(); }, 2);

  // Backend 0 develops a stuck-at product fault: every item must still come
  // back ok or recovered, bit-identical to the clean batch, and the backend
  // must end up quarantined. decaps_many prepares the secret key once, on
  // backend 0, and shares it: after the quarantine the workers re-prepare
  // backend 1's images of it lazily from the raw operands.
  const u64 lazy_before = rig.sup.status()[1].lazy_prepares;
  rig.inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, 4, 21));
  const auto got = b.decaps_many(keys[0].value.sk, cts);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].ok()) << i;
    EXPECT_EQ(got[i].value, expect[i].value) << i;
  }
  auto st = rig.sup.status();
  EXPECT_GE(st[0].quarantines, 1u);
  EXPECT_GT(st[1].calls, 0u);  // the clean backend carried the tail traffic
  EXPECT_GT(st[1].lazy_prepares, lazy_before);

  // The fault clears; subsequent batches re-probe and readmit backend 0.
  rig.inj->disarm_all();
  for (int round = 0; round < 2; ++round) {
    const auto again = b.decaps_many(keys[0].value.sk, cts);
    for (std::size_t i = 0; i < again.size(); ++i) {
      EXPECT_TRUE(again[i].ok()) << i;
      EXPECT_EQ(again[i].value, expect[i].value) << i;
    }
  }
  st = rig.sup.status();
  EXPECT_GE(st[0].readmissions, 1u);
  EXPECT_EQ(st[0].state, BreakerState::kClosed);
}

}  // namespace
}  // namespace saber::robust
