// Shared knobs of the randomized conformance suites (ctest -L conformance).
//
// The iteration count and base seed come from the environment, so CI can
// dial the fuzz budget up and any failure reports a per-iteration seed that
// replays it in isolation:
//
//   SABER_CONFORMANCE_ITERS=64 SABER_CONFORMANCE_SEED=0x1234 ./conformance_test
#pragma once

#include <cstddef>
#include <cstdlib>

#include "common/rng.hpp"

namespace saber::conformance {

inline u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 0) : fallback;
}

inline std::size_t iterations() {
  // Small by default (tier-1 ctest latency); run_all.sh raises it.
  return static_cast<std::size_t>(env_u64("SABER_CONFORMANCE_ITERS", 4));
}

inline u64 base_seed() { return env_u64("SABER_CONFORMANCE_SEED", 0x5ABE2C0FULL); }

/// Per-iteration seed: derived, not sequential, so reporting it is enough to
/// replay one failing iteration in isolation (set SABER_CONFORMANCE_SEED to
/// the reported value and SABER_CONFORMANCE_ITERS=1).
inline u64 iter_seed(u64 base, std::size_t iter) {
  Xoshiro256StarStar rng(base + iter);
  return rng.next_u64();
}

}  // namespace saber::conformance
