// Experiment E6 (§1/§2): full-KEM cycle profile.
//
// Reproduces the paper's motivating measurement — polynomial multiplication
// takes "up to 56% of the overall computation time" of Saber on a
// [10]-style coprocessor — and shows how the share changes across the
// proposed architectures. Also wall-clock-benchmarks the complete KEM with
// the hardware-simulated multipliers plugged in end-to-end.
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/profile.hpp"
#include "common/rng.hpp"
#include "coproc/programs.hpp"
#include "multipliers/high_speed.hpp"
#include "saber/kem.hpp"

using namespace saber;

namespace {

void BM_KemRoundTrip(benchmark::State& state, const char* mult_name, bool hardware) {
  std::unique_ptr<arch::HwMultiplier> hw_arch;
  if (hardware) hw_arch = arch::make_architecture(mult_name);
  const kem::SaberKemScheme scheme =
      hardware ? kem::SaberKemScheme(kem::kSaber, arch::as_poly_mul(*hw_arch))
               : kem::SaberKemScheme(kem::kSaber, mult_name);
  Xoshiro256StarStar rng(21);
  const auto kp = scheme.keygen(rng);
  for (auto _ : state) {
    const auto enc = scheme.encaps(kp.pk, rng);
    const auto key = scheme.decaps(enc.ct, kp.sk);
    if (key != enc.key) state.SkipWithError("shared-secret mismatch");
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK_CAPTURE(BM_KemRoundTrip, sw_toom4, "toom4", false);
BENCHMARK_CAPTURE(BM_KemRoundTrip, sw_ntt, "ntt", false);
BENCHMARK_CAPTURE(BM_KemRoundTrip, hw_hs1_256, "hs1-256", true);
BENCHMARK_CAPTURE(BM_KemRoundTrip, hw_hs2, "hs2", true);

}  // namespace

namespace {

// Executed (instruction-level) profile: run the real KEM programs on the
// coprocessor model and report the measured per-unit ledger.
void executed_profiles() {
  std::cout << "Executed coprocessor profiles (full KEM run per architecture;\n"
               "outputs are byte-identical to the software implementation):\n\n";
  for (const char* name : {"baseline-256", "hs1-256", "hs1-512", "hs2", "lw4"}) {
    auto mult = arch::make_architecture(name);
    coproc::SaberCoproc cp(kem::kSaber, *mult);
    coproc::SaberCoproc::Seed sa{}, ss{}, z{}, m{};
    sa.fill(0xa5);
    ss.fill(0x5a);
    z.fill(0x11);
    m.fill(0x77);
    const auto keys = cp.keygen(sa, ss, z);
    const auto enc = cp.encaps(keys.pk, m);
    const auto dec = cp.decaps(enc.ct, keys.sk);
    std::cout << name << ":\n"
              << "  keygen " << keys.cycles.to_string() << "\n"
              << "  encaps " << enc.cycles.to_string() << "\n"
              << "  decaps " << dec.cycles.to_string() << "\n\n";
  }
}

// All three parameter sets, executed end-to-end on HS-I-256 (LightSaber's
// |s| = 5 secrets need the max_mag = 5 configuration of the multiplier).
void all_param_sets() {
  std::cout << "Executed KEM totals per parameter set (HS-I 256-MAC class):\n\n";
  for (const auto& p : kem::kAllParams) {
    arch::HighSpeedMultiplier mult(
        arch::HighSpeedConfig{256, true, p.secret_bound() > 4 ? 5u : 4u});
    coproc::SaberCoproc cp(p, mult);
    coproc::SaberCoproc::Seed sa{}, ss{}, z{}, m{};
    sa.fill(1);
    ss.fill(2);
    z.fill(3);
    m.fill(4);
    const auto kg = cp.keygen(sa, ss, z);
    const auto en = cp.encaps(kg.pk, m);
    const auto de = cp.decaps(en.ct, kg.sk);
    if (de.key != en.key) {
      std::cerr << "KEM mismatch for " << p.name << "\n";
      std::exit(1);
    }
    std::cout << "  " << p.name << " (l=" << p.l << "): keygen "
              << kg.cycles.total() << ", encaps " << en.cycles.total() << ", decaps "
              << de.cycles.total() << " cycles; mult shares "
              << static_cast<int>(100.0 * kg.cycles.mult_share() + 0.5) << "/"
              << static_cast<int>(100.0 * en.cycles.mult_share() + 0.5) << "/"
              << static_cast<int>(100.0 * de.cycles.mult_share() + 0.5) << "%\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "E6 — Saber KEM cycle profiles.\n\n"
               "Analytic model (src/analysis/profile.hpp constants):\n\n";
  for (const char* name : {"baseline-256", "hs1-256", "hs1-512", "hs2", "lw4"}) {
    auto arch = arch::make_architecture(name);
    const auto profile = analysis::profile_kem(kem::kSaber, *arch);
    std::cout << analysis::render_profile(kem::kSaber, profile, name) << "\n";
  }
  executed_profiles();
  all_param_sets();
  std::cout << "The [10]-class high-speed designs keep multiplication at roughly\n"
               "half the KEM time (the paper's 56% motivation); on the lightweight\n"
               "multiplier the KEM is almost entirely multiplication-bound, which\n"
               "is why §4 optimizes its memory behaviour rather than its LUTs.\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
