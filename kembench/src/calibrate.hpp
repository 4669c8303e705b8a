// Host-speed calibration for the timed loops.
//
// On a shared host a vCPU runs up to 1.5x slower while a neighbour's thread
// shares its core, and whether it does changes from second to second and
// from minute to minute. The calibration kernel is a fixed piece of integer
// work owned by the benchmark, shaped like the KEM's hot loops (Keccak rounds
// and a 16-bit negacyclic multiply-accumulate). Timed in the same time slices
// as the operations, on the same CPUs, it measures how fast those CPUs were
// in each slice, so that a figure can be stated at the speed of an
// undisturbed CPU (see README.md). No library code runs in it: a change to
// the library moves the operations but never the kernel. (Time taken by
// other processes is measured separately, per slice, in workloads.cpp.)
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace kembench {

/// Runs the kernel once.
void calibration_kernel();

/// Times the kernel on `threads` threads at once: on the calling thread
/// alone when `threads` is 1, otherwise on a crew of that many threads,
/// which stand in for a batch's workers.
class Calibrator {
 public:
  explicit Calibrator(unsigned threads);
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Runs the kernel once on every thread and returns each run's time in
  /// nanoseconds (valid until the next call).
  const std::vector<std::int64_t>& run();

 private:
  void crew_main(std::size_t index);

  std::vector<std::int64_t> ns_;
  std::vector<std::thread> crew_;
  std::mutex mu_;
  std::condition_variable start_, done_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
};

}  // namespace kembench
