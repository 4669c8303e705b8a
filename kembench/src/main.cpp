// kembench: end-to-end and per-layer benchmark of the Saber KEM library.
//
//   kembench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--iterations <n>] [--trace-out <path>]
//            [--git-sha <sha>] [--source-digest <hex>]
//
// Prints one provenance line, then the result line
// {"correct", "attempted", "failed", "metrics"} as the last line of stdout.
// kembench/run.py builds this binary and is the entry point; see README.md.
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "kembench: " << why << "\n"
            << "usage: kembench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--iterations <n>] [--trace-out <path>] [--git-sha <sha>]"
               " [--source-digest <hex>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kembench;
  if (!kOptimizedBuild || std::string(KEMBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "kembench: refusing to report from an unoptimized build (build type '"
              << KEMBENCH_BUILD_TYPE << "')\n";
    return 3;
  }
  Options opts;
  std::string git_sha = "unknown", source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (flag == "--iterations") {
        opts.iterations = std::stoull(value);
      } else if (flag == "--trace-out") {
        opts.trace_path = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");

  Report report;
  try {
    report = run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "kembench: " << e.what() << "\n";
    return 1;
  }

  std::string prov = "{\"provenance\": {";
  prov += "\"git_sha\": " + json_string(git_sha);
  prov += ", \"source_sha256\": " + json_string(source_digest);
  prov += ", \"compiler\": " + json_string(KEMBENCH_COMPILER);
  prov += ", \"build_type\": " + json_string(KEMBENCH_BUILD_TYPE);
  prov += ", \"cxx_flags\": " + json_string(KEMBENCH_CXX_FLAGS);
  prov += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  prov += ", \"workload\": " + json_string(opts.workload);
  prov += ", \"seed\": " + std::to_string(opts.seed);
  prov += ", \"seconds\": " + json_number(opts.seconds);
  prov += ", \"iterations\": " + std::to_string(opts.iterations);
  prov += ", \"trace\": " + std::string(opts.trace ? "true" : "false");
  prov += "}, \"details\": {";
  for (std::size_t i = 0; i < report.details.size(); ++i) {
    if (i != 0) prov += ", ";
    prov += json_string(report.details[i].first) + ": " + report.details[i].second;
  }
  prov += "}}";
  std::cout << prov << "\n"
            << result_json(report.correct, report.attempted, report.failed, report.metrics)
            << std::endl;
  return 0;
}
