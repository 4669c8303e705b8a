// Tests for the transform-cached batch backend (mult/batch.hpp), the
// split-transform PolyMultiplier API, the prepared-public-key fast path in
// SaberPke/SaberKemScheme, and the multithreaded KEM pipeline (saber/batch).
//
// The load-bearing property throughout: the batched/cached paths are
// BIT-IDENTICAL to the scalar per-product reference for every registered
// strategy, every Saber modulus, and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "mult/batch.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "saber/batch.hpp"
#include "saber/kem.hpp"
#include "sha3/sha3.hpp"

namespace saber {
namespace {

using mult::PolyMultiplier;

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

// (strategy name, qbits): the batched backend must agree with the scalar
// reference for every strategy and every modulus Saber touches.
class BatchDifferential
    : public ::testing::TestWithParam<std::tuple<std::string_view, unsigned>> {
 protected:
  std::unique_ptr<PolyMultiplier> algo_ = mult::make_multiplier(std::get<0>(GetParam()));
  unsigned qbits_ = std::get<1>(GetParam());
};

TEST_P(BatchDifferential, SplitTransformMatchesMultiply) {
  Xoshiro256StarStar rng(901);
  for (int iter = 0; iter < 4; ++iter) {
    const auto a = ring::Poly::random(rng, qbits_);
    const auto s = ring::SecretPoly::random(rng, 5);
    auto acc = algo_->make_accumulator();
    algo_->pointwise_accumulate(acc, algo_->prepare_public(a, qbits_),
                                algo_->prepare_secret(s, qbits_));
    EXPECT_EQ(algo_->finalize(acc, qbits_), algo_->multiply_secret(a, s, qbits_));
  }
}

TEST_P(BatchDifferential, SplitTransformAccumulationMatchesSum) {
  Xoshiro256StarStar rng(902);
  const std::size_t l = 4;  // FireSaber rank, the worst case for headroom
  auto acc = algo_->make_accumulator();
  ring::Poly expect{};
  for (std::size_t i = 0; i < l; ++i) {
    const auto a = ring::Poly::random(rng, qbits_);
    const auto s = ring::SecretPoly::random(rng, 5);
    algo_->pointwise_accumulate(acc, algo_->prepare_public(a, qbits_),
                                algo_->prepare_secret(s, qbits_));
    ring::add_inplace(expect, algo_->multiply_secret(a, s, qbits_), qbits_);
  }
  EXPECT_EQ(algo_->finalize(acc, qbits_), expect);
}

TEST_P(BatchDifferential, MatrixVectorMatchesScalarReference) {
  Xoshiro256StarStar rng(903);
  const auto fn = [this](const ring::Poly& a, const ring::SecretPoly& s, unsigned q) {
    return algo_->multiply_secret(a, s, q);
  };
  for (const std::size_t l : {2u, 3u, 4u}) {
    const auto a = random_matrix(l, rng, qbits_);
    const auto s = random_secrets(l, rng, 4);
    for (const bool transpose : {false, true}) {
      const auto ref = ring::matrix_vector_mul(a, s, fn, qbits_, transpose);
      const auto got = mult::matrix_vector_mul(a, s, *algo_, qbits_, transpose);
      EXPECT_EQ(got, ref) << algo_->name() << " qbits=" << qbits_ << " l=" << l
                          << " transpose=" << transpose;
    }
  }
}

TEST_P(BatchDifferential, InnerProductMatchesScalarReference) {
  Xoshiro256StarStar rng(904);
  const auto fn = [this](const ring::Poly& a, const ring::SecretPoly& s, unsigned q) {
    return algo_->multiply_secret(a, s, q);
  };
  for (const std::size_t l : {2u, 3u, 4u}) {
    ring::PolyVec b(l);
    for (auto& p : b) p = ring::Poly::random(rng, qbits_);
    const auto s = random_secrets(l, rng, 4);
    EXPECT_EQ(mult::inner_product(b, s, *algo_, qbits_),
              ring::inner_product(b, s, fn, qbits_))
        << algo_->name() << " qbits=" << qbits_ << " l=" << l;
  }
}

TEST_P(BatchDifferential, SecretTransformSharedAcrossModuli) {
  // One prepare_secrets() result at qbits must serve products at qbits and at
  // smaller moduli — SaberPke::encrypt relies on this to
  // share the ephemeral secret transform between the mod-q matrix product
  // and the mod-p inner product.
  Xoshiro256StarStar rng(910);
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, qbits_);
  ring::PolyVec b(l);
  for (auto& p : b) p = ring::Poly::random(rng, 10);
  const auto s = random_secrets(l, rng, 4);
  const auto ts = mult::prepare_secrets(s, *algo_, qbits_);
  EXPECT_EQ(mult::matrix_vector_mul(a, ts, *algo_, qbits_, false),
            mult::matrix_vector_mul(a, s, *algo_, qbits_, false));
  EXPECT_EQ(mult::inner_product(b, ts, *algo_, 10),
            mult::inner_product(b, s, *algo_, 10));
}

TEST_P(BatchDifferential, AccumulationCapCoversSaber) {
  // Every backend must accept at least FireSaber's rank (l = 4); the batch
  // helpers reject anything beyond the backend's proven exactness headroom.
  EXPECT_GE(algo_->max_accumulated_terms(), 4u) << algo_->name();
}

TEST_P(BatchDifferential, PreparedOperandsAreReusable) {
  // One PreparedMatrix consumed by several secrets must equal per-call
  // results (the encaps_many usage pattern).
  Xoshiro256StarStar rng(905);
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, qbits_);
  const mult::PreparedMatrix prep(a, *algo_, qbits_);
  for (int iter = 0; iter < 3; ++iter) {
    const auto s = random_secrets(l, rng, 4);
    EXPECT_EQ(mult::matrix_vector_mul(prep, s, *algo_, false),
              mult::matrix_vector_mul(a, s, *algo_, qbits_, false));
  }
}

std::vector<std::tuple<std::string_view, unsigned>> batch_cases() {
  std::vector<std::tuple<std::string_view, unsigned>> cases;
  for (const auto name : mult::multiplier_names()) {
    for (const unsigned qbits : {10u, 13u, 16u}) cases.emplace_back(name, qbits);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BatchDifferential,
                         ::testing::ValuesIn(batch_cases()),
                         [](const auto& param_info) {
                           std::string n(std::get<0>(param_info.param));
                           std::ranges::replace(n, '-', '_');
                           return n + "_q" + std::to_string(std::get<1>(param_info.param));
                         });

TEST(SharedMultiplier, ConcurrentProductsMatchSingleThreaded) {
  // A software backend holds no mutable state: pool workers may share one
  // const instance and one PreparedMatrix. ThreadSanitizer runs this binary,
  // so a write inside any const call shows up as a race here.
  Xoshiro256StarStar rng(930);
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, 13);
  std::vector<ring::SecretVec> secrets(8);
  for (auto& s : secrets) s = random_secrets(l, rng, 4);
  ThreadPool pool(4);
  for (const auto name : mult::multiplier_names()) {
    const std::unique_ptr<const PolyMultiplier> m = mult::make_multiplier(name);
    const mult::PreparedMatrix prep(a, *m, 13);
    std::vector<ring::PolyVec> expect;
    for (const auto& s : secrets) expect.push_back(mult::matrix_vector_mul(prep, s, *m, false));
    std::vector<ring::PolyVec> got(secrets.size());
    pool.run(secrets.size(), [&](unsigned, std::size_t i) {
      got[i] = mult::matrix_vector_mul(prep, secrets[i], *m, false);
    });
    EXPECT_EQ(got, expect) << name;
  }
}

// --- Saber fast path ------------------------------------------------------

TEST(SaberFastPath, MatchesGenericPathForAllStrategies) {
  // The split-transform scheme must produce byte-identical keys and
  // ciphertexts to a per-product scheme over the same strategy: the
  // from_poly_mul adapter calls multiply_secret once per product and caches
  // no transform.
  for (const auto name : mult::multiplier_names()) {
    const std::shared_ptr<const PolyMultiplier> algo = mult::make_multiplier(name);
    kem::SaberPke generic(
        kem::kSaber, mult::from_poly_mul([algo](const ring::Poly& a,
                                                const ring::SecretPoly& s, unsigned q) {
          return algo->multiply_secret(a, s, q);
        }));
    kem::SaberPke fast(kem::kSaber, name);

    kem::Seed sa{}, ss{}, sp{};
    sa.fill(0x21);
    ss.fill(0x42);
    sp.fill(0x63);
    const auto kg = generic.keygen(sa, ss);
    const auto kf = fast.keygen(sa, ss);
    EXPECT_EQ(kf.pk, kg.pk) << name;
    EXPECT_EQ(kf.sk, kg.sk) << name;

    kem::Message m{};
    m.fill(0x5a);
    const auto ct_g = generic.encrypt(m, sp, kg.pk);
    const auto ct_f = fast.encrypt(m, sp, kf.pk);
    EXPECT_EQ(ct_f, ct_g) << name;
    EXPECT_EQ(fast.decrypt(ct_f, kf.sk), m) << name;
    EXPECT_EQ(generic.decrypt(ct_f, kf.sk), m) << name;
  }
}

TEST(SaberFastPath, HardwareCoreSupportsPreparedEncaps) {
  // A cycle-accurate core enters through the same pipeline, so prepare_pk and
  // the prepared encaps work on it and match its unprepared encaps and the
  // ntt scheme byte for byte.
  const auto hw = arch::make_architecture("hs1-256");
  const kem::SaberKemScheme hw_scheme(kem::kSaber, arch::as_poly_mul(*hw));
  const kem::SaberKemScheme sw_scheme(kem::kSaber, "ntt");
  kem::Seed sa{}, ss{};
  kem::SharedSecret z{};
  kem::Message m{};
  sa.fill(0x31);
  ss.fill(0x32);
  z.fill(0x33);
  m.fill(0x34);
  const auto kp = hw_scheme.keygen_deterministic(sa, ss, z);
  const auto kp_sw = sw_scheme.keygen_deterministic(sa, ss, z);
  EXPECT_EQ(kp.pk, kp_sw.pk);
  EXPECT_EQ(kp.sk, kp_sw.sk);

  const auto prep = hw_scheme.pke().prepare_pk(kp.pk);
  const auto prepared = hw_scheme.encaps_deterministic(prep, m);
  const auto unprepared = hw_scheme.encaps_deterministic(kp.pk, m);
  const auto reference = sw_scheme.encaps_deterministic(kp.pk, m);
  EXPECT_EQ(prepared.ct, unprepared.ct);
  EXPECT_EQ(prepared.key, unprepared.key);
  EXPECT_EQ(prepared.ct, reference.ct);
  EXPECT_EQ(prepared.key, reference.key);
}

TEST(SaberFastPath, PreparedKeyFromAnotherAlgorithmIsRejected) {
  // A pk prepared on ntt passes every size check of a schoolbook consumer,
  // but its transform layout is different: the consumer must refuse it
  // rather than return a wrong ciphertext.
  kem::SaberPke ntt(kem::kSaber, "ntt");
  kem::SaberPke sb(kem::kSaber, "schoolbook");
  kem::Seed sa{}, ss{}, sp{};
  sa.fill(0x41);
  ss.fill(0x42);
  sp.fill(0x43);
  const auto keys = ntt.keygen(sa, ss);
  const auto prep = ntt.prepare_pk(keys.pk);
  kem::Message m{};
  m.fill(0x44);
  EXPECT_THROW(sb.encrypt(m, sp, prep), ContractViolation);
  EXPECT_EQ(prep.a.algorithm(), "ntt");
  EXPECT_EQ(prep.b.algorithm(), "ntt");

  // Each of the four prepared overloads checks the consumer on its own.
  const auto schoolbook = mult::make_multiplier("schoolbook");
  Xoshiro256StarStar rng(911);
  const auto s = random_secrets(kem::kSaber.l, rng, 4);
  const auto ts = mult::prepare_secrets(s, *schoolbook, kem::SaberParams::eq);
  EXPECT_THROW(mult::matrix_vector_mul(prep.a, s, *schoolbook, false), ContractViolation);
  EXPECT_THROW(mult::matrix_vector_mul(prep.a, ts, *schoolbook, false), ContractViolation);
  EXPECT_THROW(mult::inner_product(prep.b, s, *schoolbook), ContractViolation);
  EXPECT_THROW(mult::inner_product(prep.b, ts, *schoolbook), ContractViolation);
}

TEST(SaberFastPath, PreparedKeySharedAcrossSameNamedInstances) {
  // KemBatch workers each own a multiplier and share one prepared key: any
  // instance with the same name() may consume it.
  const kem::SaberKemScheme owner(kem::kSaber, "ntt");
  const kem::SaberKemScheme other(kem::kSaber, "ntt");
  kem::Seed sa{}, ss{};
  kem::SharedSecret z{};
  kem::Message m{};
  sa.fill(0x51);
  ss.fill(0x52);
  z.fill(0x53);
  m.fill(0x54);
  const auto kp = owner.keygen_deterministic(sa, ss, z);
  const auto prep = owner.pke().prepare_pk(kp.pk);
  const auto shared = other.encaps_deterministic(prep, m);
  const auto own = owner.encaps_deterministic(kp.pk, m);
  EXPECT_EQ(shared.ct, own.ct);
  EXPECT_EQ(shared.key, own.key);
  EXPECT_EQ(other.decaps(shared.ct, kp.sk), shared.key);
}

// A prepared secret key holds secret transforms: copying it would duplicate
// them silently, so only moves are allowed.
static_assert(!std::is_copy_constructible_v<kem::PreparedSecretKey> &&
              !std::is_copy_assignable_v<kem::PreparedSecretKey> &&
              std::is_move_constructible_v<kem::PreparedSecretKey>);
static_assert(!std::is_copy_constructible_v<kem::PreparedSecret> &&
              !std::is_copy_assignable_v<kem::PreparedSecret> &&
              std::is_move_constructible_v<kem::PreparedSecret>);

// The implicit-rejection key K = SHA3-256(z || SHA3-256(ct)), computed from
// the key bytes alone (no decaps body involved).
kem::SharedSecret rejection_key(const kem::SharedSecret& z, std::span<const u8> ct) {
  std::array<u8, 2 * kem::SaberParams::hash_bytes> buf{};
  std::copy(z.begin(), z.end(), buf.begin());
  const auto ct_hash = sha3::Sha3_256::hash(ct);
  std::copy(ct_hash.begin(), ct_hash.end(), buf.begin() + kem::SaberParams::hash_bytes);
  return sha3::Sha3_256::hash(buf);
}

TEST(SaberFastPath, PreparedSecretKeyMatchesDecaps) {
  // For every backend and parameter set, decaps under a prepared key returns
  // the encapsulated key for an honest ciphertext and the z-derived key for
  // a tampered one.
  for (const auto& p : kem::kAllParams) {
    for (const auto name : mult::multiplier_names()) {
      const kem::SaberKemScheme scheme(p, name);
      kem::Seed sa{}, ss{};
      kem::SharedSecret z{};
      kem::Message m{};
      sa.fill(0x71);
      ss.fill(0x72);
      z.fill(0x73);
      m.fill(0x74);
      const auto kp = scheme.keygen_deterministic(sa, ss, z);
      const auto enc = scheme.encaps_deterministic(kp.pk, m);
      auto tampered = enc.ct;
      tampered[7] ^= 0x10;

      const auto prep = scheme.prepare_sk(kp.sk);
      EXPECT_EQ(prep.s.algorithm(), name);
      const auto key = scheme.decaps(enc.ct, prep);
      EXPECT_EQ(key, enc.key) << p.name << " " << name;
      const auto rejected = scheme.decaps(tampered, prep);
      EXPECT_EQ(rejected, rejection_key(z, tampered)) << p.name << " " << name;
    }
  }
}

TEST(SaberFastPath, PreparedSecretKeyFromAnotherAlgorithmIsRejected) {
  // A secret prepared on ntt has another transform layout than a schoolbook
  // consumer's: decaps and decrypt must refuse it.
  const kem::SaberKemScheme ntt(kem::kSaber, "ntt");
  const kem::SaberKemScheme sb(kem::kSaber, "schoolbook");
  kem::Seed sa{}, ss{};
  kem::SharedSecret z{};
  kem::Message m{};
  sa.fill(0x81);
  ss.fill(0x82);
  z.fill(0x83);
  m.fill(0x84);
  const auto kp = ntt.keygen_deterministic(sa, ss, z);
  const auto enc = ntt.encaps_deterministic(kp.pk, m);
  const auto prep = ntt.prepare_sk(kp.sk);
  EXPECT_EQ(ntt.decaps(enc.ct, prep), enc.key);
  EXPECT_THROW(sb.decaps(enc.ct, prep), ContractViolation);
  EXPECT_THROW(sb.pke().decrypt(enc.ct, prep.s), ContractViolation);
  // The same key prepared on schoolbook is accepted there. The rule is by
  // name: Karatsuba's images happen to share schoolbook's layout, and it
  // still refuses them.
  const auto sb_prep = sb.prepare_sk(kp.sk);
  EXPECT_EQ(sb.decaps(enc.ct, sb_prep), enc.key);
  const kem::SaberKemScheme kara(kem::kSaber, "karatsuba-8");
  EXPECT_THROW(kara.pke().decrypt(enc.ct, sb_prep.s), ContractViolation);
  EXPECT_THROW(kara.decaps(enc.ct, sb_prep), ContractViolation);
}

TEST(SaberFastPath, PreparedPkEncryptionIsIdentical) {
  kem::SaberPke pke(kem::kSaber, "ntt");
  kem::Seed sa{}, ss{};
  sa.fill(1);
  ss.fill(2);
  const auto keys = pke.keygen(sa, ss);
  const auto prep = pke.prepare_pk(keys.pk);
  Xoshiro256StarStar rng(906);
  for (int iter = 0; iter < 4; ++iter) {
    kem::Message m{};
    kem::Seed seed_sp{};
    rng.fill(m);
    rng.fill(seed_sp);
    EXPECT_EQ(pke.encrypt(m, seed_sp, prep), pke.encrypt(m, seed_sp, keys.pk));
  }
}

TEST(SaberFastPath, KemRoundTripAllParamSets) {
  for (const auto& p : kem::kAllParams) {
    kem::SaberKemScheme scheme(p, "toom4");
    Xoshiro256StarStar rng(907);
    const auto keys = scheme.keygen(rng);
    const auto enc = scheme.encaps(keys.pk, rng);
    EXPECT_EQ(scheme.decaps(enc.ct, keys.sk), enc.key) << p.name;
  }
}

// --- multithreaded batch pipeline ----------------------------------------

std::vector<batch::KeygenRequest> keygen_requests(std::size_t n) {
  std::vector<batch::KeygenRequest> reqs(n);
  Xoshiro256StarStar rng(908);
  for (auto& r : reqs) {
    rng.fill(r.seed_a);
    rng.fill(r.seed_s);
    rng.fill(r.z);
  }
  return reqs;
}

std::vector<kem::Message> message_batch(std::size_t n) {
  std::vector<kem::Message> msgs(n);
  Xoshiro256StarStar rng(909);
  for (auto& m : msgs) rng.fill(m);
  return msgs;
}

TEST(KemBatch, DeterministicAcrossThreadCounts) {
  // Same seeds => same keys, ciphertexts and shared secrets for any thread
  // count (the pipeline's scheduling must not leak into results).
  const auto reqs = keygen_requests(6);
  const auto msgs = message_batch(6);

  batch::KemBatch ref_batch(kem::kSaber, "toom4", 1);
  const auto ref_keys = ref_batch.keygen_many(reqs);
  const auto ref_enc = ref_batch.encaps_many(ref_keys[0].value.pk, msgs);

  for (const unsigned threads : {2u, 3u, 5u}) {
    batch::KemBatch b(kem::kSaber, "toom4", threads);
    EXPECT_EQ(b.threads(), threads);
    const auto keys = b.keygen_many(reqs);
    ASSERT_EQ(keys.size(), ref_keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i].status, batch::ItemStatus::kOk);
      EXPECT_EQ(keys[i].value.pk, ref_keys[i].value.pk)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(keys[i].value.sk, ref_keys[i].value.sk)
          << "threads=" << threads << " i=" << i;
    }
    const auto enc = b.encaps_many(keys[0].value.pk, msgs);
    ASSERT_EQ(enc.size(), ref_enc.size());
    for (std::size_t i = 0; i < enc.size(); ++i) {
      EXPECT_EQ(enc[i].value.ct, ref_enc[i].value.ct)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(enc[i].value.key, ref_enc[i].value.key)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(KemBatch, MatchesSingleOperationScheme) {
  // The pipeline must be bit-identical to one-at-a-time operation on a
  // plain scheme with the same strategy.
  kem::SaberKemScheme scheme(kem::kSaber, "ntt");
  batch::KemBatch b(kem::kSaber, "ntt", 3);

  const auto reqs = keygen_requests(3);
  const auto keys = b.keygen_many(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto ref = scheme.keygen_deterministic(reqs[i].seed_a, reqs[i].seed_s,
                                                 reqs[i].z);
    EXPECT_EQ(keys[i].value.pk, ref.pk);
    EXPECT_EQ(keys[i].value.sk, ref.sk);
  }

  const auto msgs = message_batch(4);
  const auto enc = b.encaps_many(keys[0].value.pk, msgs);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto ref = scheme.encaps_deterministic(keys[0].value.pk, msgs[i]);
    EXPECT_EQ(enc[i].value.ct, ref.ct);
    EXPECT_EQ(enc[i].value.key, ref.key);
  }

  // One batch of honest and tampered ciphertexts under one shared prepared
  // secret key: every slot matches its own one-at-a-time decaps.
  std::vector<std::vector<u8>> cts;
  for (const auto& e : enc) cts.push_back(e.value.ct);
  cts[1][3] ^= 0x04;
  cts[2][100] ^= 0x80;
  const auto dec = b.decaps_many(keys[0].value.sk, cts);
  for (std::size_t i = 0; i < cts.size(); ++i) {
    EXPECT_EQ(dec[i].status, batch::ItemStatus::kOk) << i;
    EXPECT_EQ(dec[i].value, scheme.decaps(cts[i], keys[0].value.sk)) << i;
    EXPECT_EQ(dec[i].value == enc[i].value.key, i != 1 && i != 2) << i;
  }
}

TEST(KemBatch, KeygenChunksMatchSingleKeygenForEveryTail) {
  // keygen_many hashes chunks of four keys in lockstep; batch sizes around
  // the chunk width exercise full chunks and 1-3 item tails, whose padding
  // lanes must not leak into any real item.
  const kem::SaberKemScheme scheme(kem::kSaber, "ntt");
  const auto reqs = keygen_requests(17);
  std::vector<kem::KemKeyPair> ref;
  for (const auto& r : reqs) ref.push_back(scheme.keygen_deterministic(r.seed_a, r.seed_s, r.z));
  for (const unsigned threads : {1u, 2u, 4u}) {
    batch::KemBatch b(kem::kSaber, "ntt", threads);
    for (const std::size_t n : {1u, 3u, 4u, 5u, 8u, 17u}) {
      const auto keys = b.keygen_many(std::span(reqs).first(n));
      ASSERT_EQ(keys.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(keys[i].status, batch::ItemStatus::kOk);
        EXPECT_EQ(keys[i].value.pk, ref[i].pk) << "threads=" << threads << " n=" << n << " i=" << i;
        EXPECT_EQ(keys[i].value.sk, ref[i].sk) << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
  batch::KemBatch b(kem::kSaber, "ntt", 2);
  EXPECT_TRUE(b.keygen_many({}).empty());
}

TEST(KemBatch, EncapsDecapsChunksMatchSingleOpsForEveryTail) {
  // encaps_many and decaps_many hash chunks of four items in lockstep; batch
  // sizes around the chunk width give full chunks and 1-3 item tails. Items
  // 5 and 6 share the chunk of items 4-7: 5 is tampered and must take the
  // implicit-rejection key, 6 is truncated and must fail alone.
  const kem::SaberKemScheme scheme(kem::kSaber, "ntt");
  const auto req = keygen_requests(1)[0];
  const auto kp = scheme.keygen_deterministic(req.seed_a, req.seed_s, req.z);
  const auto msgs = message_batch(17);
  std::vector<kem::EncapsResult> ref_enc;
  std::vector<std::vector<u8>> cts;
  for (const auto& m : msgs) {
    ref_enc.push_back(scheme.encaps_deterministic(kp.pk, m));
    cts.push_back(ref_enc.back().ct);
  }
  cts[5][7] ^= 0x10;
  cts[6].pop_back();
  std::vector<kem::SharedSecret> ref_dec(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    if (i != 6) ref_dec[i] = scheme.decaps(cts[i], kp.sk);
  }
  // The tampered slot's key is SHA3-256(z || SHA3-256(ct)).
  std::vector<u8> z_ct(kp.sk.end() - kem::SaberParams::key_bytes, kp.sk.end());
  const auto ct5_hash = sha3::Sha3_256::hash(cts[5]);
  z_ct.insert(z_ct.end(), ct5_hash.begin(), ct5_hash.end());
  ASSERT_EQ(ref_dec[5], sha3::Sha3_256::hash(z_ct));

  for (const unsigned threads : {1u, 2u, 4u}) {
    batch::KemBatch b(kem::kSaber, "ntt", threads);
    for (const std::size_t n : {1u, 3u, 4u, 5u, 8u, 17u}) {
      const auto enc = b.encaps_many(kp.pk, std::span(msgs).first(n));
      const auto dec = b.decaps_many(kp.sk, std::span(cts).first(n));
      ASSERT_EQ(enc.size(), n);
      ASSERT_EQ(dec.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto where = ::testing::Message() << "threads=" << threads << " n=" << n
                                                << " i=" << i;
        EXPECT_EQ(enc[i].status, batch::ItemStatus::kOk) << where;
        EXPECT_EQ(enc[i].value.ct, ref_enc[i].ct) << where;
        EXPECT_EQ(enc[i].value.key, ref_enc[i].key) << where;
        if (i == 6) {
          EXPECT_EQ(dec[i].status, batch::ItemStatus::kFailed) << where;
          EXPECT_NE(dec[i].error.find("ciphertext"), std::string::npos) << dec[i].error;
          EXPECT_TRUE(std::ranges::all_of(dec[i].value, [](u8 v) { return v == 0; }));
        } else {
          EXPECT_EQ(dec[i].status, batch::ItemStatus::kOk) << where;
          EXPECT_EQ(dec[i].value, ref_dec[i]) << where;
        }
      }
    }
  }
}

TEST(SaberFastPath, PreparedKeysCarryPkHash) {
  // prepare_pk hashes the key once; prepare_sk takes the hash stored in the
  // secret-key blob, so decaps binds to that hash even when it was altered.
  const kem::SaberKemScheme scheme(kem::kSaber, "ntt");
  kem::Seed sa{}, ss{};
  kem::SharedSecret z{};
  kem::Message m{};
  sa.fill(0x91);
  ss.fill(0x92);
  z.fill(0x93);
  m.fill(0x94);
  const auto kp = scheme.keygen_deterministic(sa, ss, z);
  const auto pk_hash = sha3::Sha3_256::hash(kp.pk);
  EXPECT_EQ(scheme.pke().prepare_pk(kp.pk).pk_hash, pk_hash);
  const auto prep_sk = scheme.prepare_sk(kp.sk);
  EXPECT_EQ(prep_sk.pk.pk_hash, pk_hash);
  const auto enc = scheme.encaps_deterministic(scheme.pke().prepare_pk(kp.pk), m);
  EXPECT_EQ(scheme.decaps(enc.ct, prep_sk), enc.key);

  auto hostile = kp.sk;
  const std::size_t hash_at = kem::kSaber.pke_sk_bytes() + kem::kSaber.pk_bytes();
  hostile[hash_at] ^= 0x01;
  const auto prep_hostile = scheme.prepare_sk(hostile);
  EXPECT_EQ(prep_hostile.pk.pk_hash[0], pk_hash[0] ^ 0x01);
  EXPECT_NE(scheme.decaps(enc.ct, prep_hostile), enc.key);
}

TEST(KemBatch, EndToEndRoundTrip) {
  batch::KemBatch b(kem::kFireSaber, "karatsuba-8", 4);
  const auto reqs = keygen_requests(2);
  const auto keys = b.keygen_many(reqs);

  const auto msgs = message_batch(8);
  const auto enc = b.encaps_many(keys[1].value.pk, msgs);

  std::vector<std::vector<u8>> cts;
  cts.reserve(enc.size());
  for (const auto& e : enc) cts.push_back(e.value.ct);
  const auto shared = b.decaps_many(keys[1].value.sk, cts);
  ASSERT_EQ(shared.size(), enc.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(shared[i].status, batch::ItemStatus::kOk);
    EXPECT_EQ(shared[i].value, enc[i].value.key) << i;
  }

  // Implicit rejection still works through the pipeline.
  auto tampered = cts;
  tampered[0][0] ^= 1;
  const auto rejected = b.decaps_many(keys[1].value.sk, tampered);
  EXPECT_NE(rejected[0].value, enc[0].value.key);
  EXPECT_EQ(rejected[1].value, enc[1].value.key);
}

TEST(KemBatch, MalformedSecretKeyFailsEverySlot) {
  // The key is prepared once per batch, so a malformed one cannot fail a
  // single slot: every slot reports kFailed with the error and a zeroed key,
  // and the batch itself does not throw.
  batch::KemBatch b(kem::kSaber, "ntt", 2);
  const auto keys = b.keygen_many(keygen_requests(1));
  const auto& sk = keys[0].value.sk;
  const auto enc = b.encaps_many(keys[0].value.pk, message_batch(3));
  std::vector<std::vector<u8>> cts;
  for (const auto& e : enc) cts.push_back(e.value.ct);

  const std::vector<u8> empty;
  const std::vector<u8> truncated(sk.begin(), sk.end() - 1);
  const auto overlong = [&] {
    auto v = sk;
    v.push_back(0);
    return v;
  }();
  for (const auto* bad : {&empty, &truncated, &overlong}) {
    std::vector<batch::Outcome<kem::SharedSecret>> got;
    ASSERT_NO_THROW(got = b.decaps_many(*bad, cts)) << bad->size();
    ASSERT_EQ(got.size(), cts.size());
    for (const auto& o : got) {
      EXPECT_EQ(o.status, batch::ItemStatus::kFailed) << bad->size();
      EXPECT_NE(o.error.find("secret key"), std::string::npos) << o.error;
      EXPECT_TRUE(std::ranges::all_of(o.value, [](u8 v) { return v == 0; }));
    }
  }

  // The well-formed key still decapsulates every slot on the same batch.
  const auto good = b.decaps_many(sk, cts);
  for (std::size_t i = 0; i < good.size(); ++i) {
    EXPECT_EQ(good[i].status, batch::ItemStatus::kOk) << i;
    EXPECT_EQ(good[i].value, enc[i].value.key) << i;
  }
}

TEST(KemBatch, MalformedPublicKeyFailsEverySlot) {
  // The public key is prepared once per batch, as the secret key is in
  // decaps_many: a wrong-length pk fails every slot with the error and a
  // zeroed value, and the batch itself does not throw.
  batch::KemBatch b(kem::kSaber, "ntt", 2);
  const auto keys = b.keygen_many(keygen_requests(1));
  const auto& pk = keys[0].value.pk;
  const auto msgs = message_batch(5);

  const std::vector<u8> short_pk(pk.begin(), pk.end() - 1);
  const auto long_pk = [&] {
    auto v = pk;
    v.push_back(0);
    return v;
  }();
  for (const auto* bad : {&short_pk, &long_pk}) {
    std::vector<batch::Outcome<kem::EncapsResult>> got;
    ASSERT_NO_THROW(got = b.encaps_many(*bad, msgs)) << bad->size();
    ASSERT_EQ(got.size(), msgs.size());
    for (const auto& o : got) {
      EXPECT_EQ(o.status, batch::ItemStatus::kFailed) << bad->size();
      EXPECT_NE(o.error.find("public key"), std::string::npos) << o.error;
      EXPECT_TRUE(o.value.ct.empty());
      EXPECT_TRUE(std::ranges::all_of(o.value.key, [](u8 v) { return v == 0; }));
    }
    // An empty batch returns at once, without preparing the key.
    EXPECT_TRUE(b.encaps_many(*bad, {}).empty());
  }

  // The well-formed key still encapsulates every slot on the same batch.
  const auto good = b.encaps_many(pk, msgs);
  for (std::size_t i = 0; i < good.size(); ++i) {
    EXPECT_EQ(good[i].status, batch::ItemStatus::kOk) << i;
    EXPECT_EQ(good[i].value.ct.size(), kem::kSaber.ct_bytes()) << i;
  }
}

}  // namespace
}  // namespace saber
