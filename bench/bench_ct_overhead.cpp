// E-ct: runtime cost of the secret-taint instrumentation.
//
// The audited KEM roundtrip (ct::audit_kem_roundtrip) executes the
// production scheme once — the conformance reference — and then the same
// flow kernels instantiated over ct::Tainted words. The tainted-run cost is
// therefore the audit total minus a plain roundtrip, and the reported ratio
// is tainted / plain: what a kernel pays for running under the analyzer.
// The number only matters for audit builds (production instantiates the
// flows over plain words, overhead zero by construction); it is recorded so
// a regression that makes the audit impractically slow is visible.
#include <chrono>
#include <cstdio>
#include <string>

#include "ct/audit.hpp"
#include "mult/strategy.hpp"
#include "saber/kem.hpp"

using namespace saber;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The production-side mirror of the audit's reference portion: keygen,
/// encaps, honest decaps, tampered decaps (implicit rejection).
double plain_roundtrip_ms(const kem::SaberKemScheme& scheme, int reps) {
  kem::Seed seed_a{}, seed_s{}, z{};
  kem::Message m{};
  for (std::size_t i = 0; i < seed_a.size(); ++i) {
    seed_a[i] = static_cast<u8>(i + 1);
    seed_s[i] = static_cast<u8>(0x5A ^ (3 * i));
    z[i] = static_cast<u8>(0xC3 ^ i);
    m[i] = static_cast<u8>(0x3C ^ (5 * i));
  }
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    const auto kp = scheme.keygen_deterministic(seed_a, seed_s, z);
    const auto enc = scheme.encaps_deterministic(kp.pk, m);
    (void)scheme.decaps(enc.ct, kp.sk);
    auto tampered = enc.ct;
    tampered[0] ^= 0x01;
    (void)scheme.decaps(tampered, kp.sk);
  }
  return ms_since(t0) / reps;
}

double audit_ms(std::string_view backend, int reps) {
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    (void)ct::audit_kem_roundtrip(backend, kem::kSaber);
  }
  return ms_since(t0) / reps;
}

}  // namespace

int main() {
  constexpr int kReps = 3;
  std::printf("E-ct — secret-taint analyzer overhead (Saber, per KEM roundtrip:\n");
  std::printf("keygen + encaps + honest decaps + tampered decaps)\n\n");
  std::printf("%-12s %12s %12s %12s %10s\n", "backend", "plain ms", "audit ms",
              "tainted ms", "ratio");
  for (const auto backend : mult::multiplier_names()) {
    const kem::SaberKemScheme scheme(kem::kSaber, backend);
    const double plain = plain_roundtrip_ms(scheme, kReps);
    const double audit = audit_ms(backend, kReps);
    const double tainted = audit - plain;
    std::printf("%-12s %12.2f %12.2f %12.2f %9.1fx\n",
                std::string(backend).c_str(), plain, audit, tainted,
                tainted / plain);
  }
  return 0;
}
