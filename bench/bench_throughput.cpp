// Experiment E7: software KEM throughput — transform caching and batching.
//
// Measures the two constant factors this repo's batch backend goes after:
//   1. per-operand transform caching in the l x l matrix-vector product
//      (per-product baseline vs split-transform vs fully prepared matrix);
//   2. multithreaded batch KEM throughput (keygen/encaps/decaps ops/sec vs
//      thread count) through saber::batch::KemBatch;
// and the Keccak under both: one permutation per lane word (items are
// permutations) and the SHAKE-128 expansion of A (items are matrices).
//
// scripts/bench_json.sh distills the google-benchmark JSON of this binary
// into BENCH_throughput.json at the repository root.
#include <benchmark/benchmark.h>

#include <array>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "mult/batch.hpp"
#include "mult/strategy.hpp"
#include "saber/batch.hpp"
#include "saber/gen.hpp"
#include "saber/kem.hpp"
#include "sha3/keccak.hpp"

using namespace saber;

namespace {

constexpr std::size_t kRank = 3;  // Saber (l = 3)

struct MatVecFixture {
  ring::PolyMatrix a{kRank, kRank};
  ring::SecretVec s;

  MatVecFixture() {
    Xoshiro256StarStar rng(71);
    for (std::size_t r = 0; r < kRank; ++r) {
      for (std::size_t c = 0; c < kRank; ++c) {
        a.at(r, c) = ring::Poly::random(rng, 13);
      }
    }
    s.resize(kRank);
    for (auto& sp : s) sp = ring::SecretPoly::random(rng, 4);
  }
};

// Baseline: one multiply() per product, every operand transformed per call
// (the code path before the batch backend existed).
void BM_MatVecPerProduct(benchmark::State& state, const char* name) {
  const auto algo = mult::make_multiplier(name);
  const auto fn = [&algo](const ring::Poly& a, const ring::SecretPoly& s, unsigned q) {
    return algo->multiply_secret(a, s, q);
  };
  MatVecFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring::matrix_vector_mul(fx.a, fx.s, fn, 13, false));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_MatVecPerProduct, toom4, "toom4");
BENCHMARK_CAPTURE(BM_MatVecPerProduct, ntt, "ntt");
BENCHMARK_CAPTURE(BM_MatVecPerProduct, karatsuba8, "karatsuba-8");

// Split-transform: each a_ij and s_j transformed once, one inverse per row.
void BM_MatVecCached(benchmark::State& state, const char* name) {
  const auto algo = mult::make_multiplier(name);
  MatVecFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mult::matrix_vector_mul(fx.a, fx.s, *algo, 13, false));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_MatVecCached, toom4, "toom4");
BENCHMARK_CAPTURE(BM_MatVecCached, ntt, "ntt");
BENCHMARK_CAPTURE(BM_MatVecCached, karatsuba8, "karatsuba-8");

// Server steady state: the public matrix transforms are amortized across
// requests (the encaps_many pattern), only secrets are transformed per call.
void BM_MatVecPrepared(benchmark::State& state, const char* name) {
  const auto algo = mult::make_multiplier(name);
  MatVecFixture fx;
  const mult::PreparedMatrix prep(fx.a, *algo, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mult::matrix_vector_mul(prep, fx.s, *algo, false));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_MatVecPrepared, toom4, "toom4");
BENCHMARK_CAPTURE(BM_MatVecPrepared, ntt, "ntt");
BENCHMARK_CAPTURE(BM_MatVecPrepared, karatsuba8, "karatsuba-8");

// --- batch KEM pipeline ---------------------------------------------------

constexpr std::size_t kBatch = 16;

std::vector<batch::KeygenRequest> keygen_requests() {
  std::vector<batch::KeygenRequest> reqs(kBatch);
  Xoshiro256StarStar rng(72);
  for (auto& r : reqs) {
    rng.fill(r.seed_a);
    rng.fill(r.seed_s);
    rng.fill(r.z);
  }
  return reqs;
}

std::vector<kem::Message> message_batch() {
  std::vector<kem::Message> msgs(kBatch);
  Xoshiro256StarStar rng(73);
  for (auto& m : msgs) rng.fill(m);
  return msgs;
}

void BM_KeygenMany(benchmark::State& state, const char* name) {
  batch::KemBatch b(kem::kSaber, name, static_cast<unsigned>(state.range(0)));
  const auto reqs = keygen_requests();
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.keygen_many(reqs));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations() * static_cast<i64>(kBatch)));
  state.counters["pool_threads"] = static_cast<double>(b.threads());
}
BENCHMARK_CAPTURE(BM_KeygenMany, ntt, "ntt")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_EncapsMany(benchmark::State& state, const char* name) {
  batch::KemBatch b(kem::kSaber, name, static_cast<unsigned>(state.range(0)));
  kem::SaberKemScheme scheme(kem::kSaber, name);
  Xoshiro256StarStar rng(74);
  const auto keys = scheme.keygen(rng);
  const auto msgs = message_batch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.encaps_many(keys.pk, msgs));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations() * static_cast<i64>(kBatch)));
  state.counters["pool_threads"] = static_cast<double>(b.threads());
}
BENCHMARK_CAPTURE(BM_EncapsMany, ntt, "ntt")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK_CAPTURE(BM_EncapsMany, toom4, "toom4")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_DecapsMany(benchmark::State& state, const char* name) {
  batch::KemBatch b(kem::kSaber, name, static_cast<unsigned>(state.range(0)));
  kem::SaberKemScheme scheme(kem::kSaber, name);
  Xoshiro256StarStar rng(75);
  const auto keys = scheme.keygen(rng);
  const auto msgs = message_batch();
  std::vector<std::vector<u8>> cts;
  cts.reserve(kBatch);
  for (const auto& m : msgs) cts.push_back(scheme.encaps_deterministic(keys.pk, m).ct);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.decaps_many(keys.sk, cts));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations() * static_cast<i64>(kBatch)));
  state.counters["pool_threads"] = static_cast<double>(b.threads());
}
BENCHMARK_CAPTURE(BM_DecapsMany, ntt, "ntt")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Single-operation baseline for the ops/sec comparison.
void BM_EncapsSingle(benchmark::State& state, const char* name) {
  kem::SaberKemScheme scheme(kem::kSaber, name);
  Xoshiro256StarStar rng(76);
  const auto keys = scheme.keygen(rng);
  const auto msgs = message_batch();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheme.encaps_deterministic(keys.pk, msgs[i++ % kBatch]));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EncapsSingle, ntt, "ntt");
BENCHMARK_CAPTURE(BM_EncapsSingle, toom4, "toom4");

// --- Keccak ------------------------------------------------------------------

// keccak_f1600_g over lane word L, `States` independent states per call.
template <typename L, i64 States>
void permute_loop(benchmark::State& state) {
  sha3::KeccakStateT<L> st{};
  for (std::size_t w = 0; w < st.size(); ++w) st[w] ^= u64{0x9E3779B97F4A7C15ULL * (w + 1)};
  for (auto _ : state) {
    sha3::keccak_f1600_g(st);
    benchmark::DoNotOptimize(st.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * States);
}

// f1600: the word BasicSponge<u8> permutes in (sha3::SingleStreamLane, the
// two-lane vector word under AVX-512VL); f1600_u64: the plain u64 word;
// f1600_x4: SpongeX4's four states in one u64x4 word.
void BM_Keccak(benchmark::State& state, void (*run)(benchmark::State&)) { run(state); }
BENCHMARK_CAPTURE(BM_Keccak, f1600, &permute_loop<sha3::SingleStreamLane, 1>);
BENCHMARK_CAPTURE(BM_Keccak, f1600_u64, &permute_loop<u64, 1>);
BENCHMARK_CAPTURE(BM_Keccak, f1600_x4, &permute_loop<u64x4, 4>);

// A's single-stream expansion: SHAKE-128 of the seed, l^2 polynomials.
void BM_GenMatrix(benchmark::State& state, const kem::SaberParams* params) {
  std::array<u8, 32> seed{};
  for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = static_cast<u8>(7 * i + 1);
  for (auto _ : state) benchmark::DoNotOptimize(kem::gen_matrix(seed, *params));
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_GenMatrix, saber, &kem::kSaber);
BENCHMARK_CAPTURE(BM_GenMatrix, firesaber, &kem::kFireSaber);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
