// The benchmark's four workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics.hpp"

namespace kembench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;      ///< length of the measured loop (split in two when tracing)
  bool trace = false;       ///< report per-layer metrics from a traced run
  std::uint64_t iterations = 0;  ///< nonzero: run exactly this many iterations per loop
  std::string trace_path;   ///< traced run writes its spans here when nonempty
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< KEM operations whose outputs were checked
  std::uint64_t failed = 0;     ///< of those, failed or wrong
  std::vector<Metric> metrics;
  /// Extra facts for the provenance line: name -> JSON value.
  std::vector<std::pair<std::string, std::string>> details;
};

/// Throws std::invalid_argument for an unknown workload name.
Report run_workload(const Options& opts);

}  // namespace kembench
