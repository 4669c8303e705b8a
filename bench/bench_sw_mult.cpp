// Experiment E5 (§5.1): software multiplication algorithms.
//
// Prints the operation-count table for schoolbook / Karatsuba / Toom-Cook /
// NTT, the §5.1 comparison of the LW multiplier against software and
// coprocessor implementations, and times every algorithm with
// google-benchmark on the host. BM_HwCoreProduct/<arch> rows time one
// simulated product on each cycle-accurate core (simulator speed, not the
// modeled hardware's).
#include <benchmark/benchmark.h>

#include <array>
#include <iostream>
#include <string>

#include "analysis/comparisons.hpp"
#include "common/rng.hpp"
#include "mult/batch.hpp"
#include "mult/ntt.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "ring/polyvec.hpp"

using namespace saber;

namespace {

void BM_SoftwareMultiply(benchmark::State& state, const char* name) {
  const auto algo = mult::make_multiplier(name);
  Xoshiro256StarStar rng(11);
  const auto a = ring::Poly::random(rng, 13);
  const auto b = ring::Poly::random(rng, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo->multiply(a, b, 13));
  }
  state.counters["coeff_mults"] =
      static_cast<double>(analysis::product_ops(*algo).coeff_mults);
}
BENCHMARK_CAPTURE(BM_SoftwareMultiply, schoolbook, "schoolbook");
BENCHMARK_CAPTURE(BM_SoftwareMultiply, karatsuba1, "karatsuba-1");
BENCHMARK_CAPTURE(BM_SoftwareMultiply, karatsuba2, "karatsuba-2");
BENCHMARK_CAPTURE(BM_SoftwareMultiply, karatsuba4, "karatsuba-4");
BENCHMARK_CAPTURE(BM_SoftwareMultiply, karatsuba8, "karatsuba-8");
BENCHMARK_CAPTURE(BM_SoftwareMultiply, toom3, "toom3");
BENCHMARK_CAPTURE(BM_SoftwareMultiply, toom4, "toom4");
BENCHMARK_CAPTURE(BM_SoftwareMultiply, ntt, "ntt");

enum class Stage { kPreparePublic, kPrepareSecret, kPointwiseAccumulate, kFinalize };

void BM_SplitStage(benchmark::State& state, const char* name, Stage stage,
                   unsigned qbits) {
  // One stage of the split-transform pipeline on Saber-shaped operands
  // (|s| <= 4): the per-stage cost behind each product. qbits 13 is Saber's
  // q; the ntt_q16 rows measure the NTT's two-prime images (ntt_lanes).
  const auto algo = mult::make_multiplier(name);
  Xoshiro256StarStar rng(13);
  const auto a = ring::Poly::random(rng, qbits);
  const auto s = ring::SecretPoly::random(rng, 4);
  const auto ta = algo->prepare_public(a, qbits);
  const auto ts = algo->prepare_secret(s, qbits);
  auto acc = algo->make_accumulator();
  algo->pointwise_accumulate(acc, ta, ts);
  for (auto _ : state) {
    switch (stage) {
      case Stage::kPreparePublic:
        benchmark::DoNotOptimize(algo->prepare_public(a, qbits));
        break;
      case Stage::kPrepareSecret:
        benchmark::DoNotOptimize(algo->prepare_secret(s, qbits));
        break;
      case Stage::kPointwiseAccumulate:
        algo->pointwise_accumulate(acc, ta, ts);
        benchmark::DoNotOptimize(acc.data());
        benchmark::ClobberMemory();
        break;
      case Stage::kFinalize:
        benchmark::DoNotOptimize(algo->finalize(acc, qbits));
        break;
    }
  }
}
#define SPLIT_STAGE_ROWS(tag, name, qbits)                                        \
  BENCHMARK_CAPTURE(BM_SplitStage, tag##_prepare_public, name,                    \
                    Stage::kPreparePublic, qbits);                                \
  BENCHMARK_CAPTURE(BM_SplitStage, tag##_prepare_secret, name,                    \
                    Stage::kPrepareSecret, qbits);                                \
  BENCHMARK_CAPTURE(BM_SplitStage, tag##_pointwise_accumulate, name,              \
                    Stage::kPointwiseAccumulate, qbits);                          \
  BENCHMARK_CAPTURE(BM_SplitStage, tag##_finalize, name, Stage::kFinalize, qbits)
SPLIT_STAGE_ROWS(ntt, "ntt", 13);
SPLIT_STAGE_ROWS(ntt_q16, "ntt", 16);
SPLIT_STAGE_ROWS(toom3, "toom3", 13);
SPLIT_STAGE_ROWS(toom4, "toom4", 13);
SPLIT_STAGE_ROWS(schoolbook, "schoolbook", 13);
#undef SPLIT_STAGE_ROWS

// One transform of 256 residues mod p1, in place: the butterfly stages
// alone, without the residue conversion, allocation and lift of the stage
// rows. Each iteration transforms the previous output (inverse rows keep
// the values reduced the same way).
void BM_Ntt(benchmark::State& state, bool inverse) {
  const auto& t = mult::ntt_tables().primes[0];
  Xoshiro256StarStar rng(14);
  std::array<u32, ring::kN> v;
  for (auto& x : v) x = static_cast<u32>(rng.uniform(t.p));
  for (auto _ : state) {
    if (inverse) {
      mult::ntt_inverse_g(v, t);
    } else {
      mult::ntt_forward_g(v, t);
    }
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_Ntt, forward, false);
BENCHMARK_CAPTURE(BM_Ntt, inverse, true);

// Shared 3x3 Saber fixture for the matrix-vector benchmarks.
struct MatVecInputs {
  ring::PolyMatrix a{3, 3};
  ring::SecretVec s;

  MatVecInputs() {
    Xoshiro256StarStar rng(12);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) a.at(r, c) = ring::Poly::random(rng, 13);
    }
    s.resize(3);
    for (auto& sp : s) sp = ring::SecretPoly::random(rng, 4);
  }
};

void BM_SaberMatrixVector(benchmark::State& state, const char* name) {
  // The l x l matrix-vector product dominating Saber keygen/encaps (the unit
  // [6] reports 317k M4 cycles for), one multiply_secret per product through
  // ring::matrix_vector_mul (the per-product reference).
  const auto algo = mult::make_multiplier(name);
  const auto fn = [&algo](const ring::Poly& a, const ring::SecretPoly& s, unsigned q) {
    return algo->multiply_secret(a, s, q);
  };
  MatVecInputs in;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring::matrix_vector_mul(in.a, in.s, fn, 13, false));
  }
}
BENCHMARK_CAPTURE(BM_SaberMatrixVector, toom3, "toom3");
BENCHMARK_CAPTURE(BM_SaberMatrixVector, toom4, "toom4");
BENCHMARK_CAPTURE(BM_SaberMatrixVector, ntt, "ntt");

void BM_SaberMatrixVectorCached(benchmark::State& state, const char* name) {
  // Same product through the split-transform backend: each operand is
  // transformed once and rows are accumulated in the transform domain.
  const auto algo = mult::make_multiplier(name);
  MatVecInputs in;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mult::matrix_vector_mul(in.a, in.s, *algo, 13, false));
  }
}
BENCHMARK_CAPTURE(BM_SaberMatrixVectorCached, toom3, "toom3");
BENCHMARK_CAPTURE(BM_SaberMatrixVectorCached, toom4, "toom4");
BENCHMARK_CAPTURE(BM_SaberMatrixVectorCached, ntt, "ntt");

void BM_HwCoreProduct(benchmark::State& state, std::string_view name) {
  // One product on a cycle-accurate core, Saber-shaped operands.
  const auto core = arch::make_architecture(name);
  Xoshiro256StarStar rng(14);
  const auto a = ring::Poly::random(rng, 13);
  const auto s = ring::SecretPoly::random(rng, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core->multiply(a, s));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << analysis::render_algorithm_ops() << "\n";
  std::cout << analysis::render_lightweight_comparison() << "\n";
  for (const auto name : arch::architecture_names()) {
    benchmark::RegisterBenchmark(("BM_HwCoreProduct/" + std::string(name)).c_str(),
                                 BM_HwCoreProduct, name);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
