#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "calibrate.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "replay.hpp"
#include "robust/faulty_multiplier.hpp"
#include "robust/supervisor.hpp"
#include "saber/batch.hpp"
#include "sha3/sha3.hpp"
#include "trace.hpp"
#include "traced.hpp"

namespace kembench {
namespace {

using saber::u64;
using saber::u8;
namespace arch = saber::arch;
namespace batch = saber::batch;
namespace mult = saber::mult;
namespace robust = saber::robust;
namespace sha3 = saber::sha3;

// Workload shape (README.md explains each choice).
constexpr unsigned kBatchThreads = 4;
constexpr std::size_t kKeygenPerRound = 16;
constexpr std::size_t kEncapsPerRound = 64;
constexpr std::size_t kTamperedPerRound = 8;
constexpr std::size_t kInputPool = 4096;  // single-op inputs, reused cyclically
constexpr std::size_t kRoundPool = 256;   // batch rounds, reused cyclically
constexpr std::size_t kSampleEvery = 4;   // rounds between single-threaded reference checks
constexpr std::size_t kSetupRepeats = 128;
constexpr std::size_t kSetupPerBurst = 16;  // set-up samples between pauses
constexpr std::chrono::milliseconds kSetupGap{250};
constexpr std::size_t kSlices = 24;  // time slices per measured loop
// Calibration (see calibrate.hpp and README.md): the kernel's median time on
// an undisturbed CPU of the reference host, how often the loops run it, and
// the exponent of the speed correction.
constexpr double kReferenceKernelUs = 50.0;
constexpr std::int64_t kSpeedPeriodNs = 2'000'000;
constexpr double kSpeedExponent = 0.75;
constexpr u64 kSeqChunk = 16;         // iterations per traced/untraced chunk
constexpr u64 kBatchChunk = 2;        // rounds per traced/untraced chunk
constexpr std::size_t kTraceSpanLimit = 50000;
constexpr const char* kHwCore = "hs1-256";
const std::vector<std::string> kCheckedBackends = {"toom3", "ntt", "schoolbook"};

using Digest = std::array<u8, 32>;
using trace::now_ns;

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

/// Peak resident memory of this process image in MB: VmHWM, which starts
/// afresh at exec (ru_maxrss would carry over the parent that forked us).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Output checks. Items are KEM operations and feed attempted/failed; an
/// invariant (replay equality, exact counts) failing marks the run incorrect.
class Tally {
 public:
  void item(bool good, std::string_view what) {
    ++attempted_;
    if (!good) {
      ++failed_;
      note(what);
    }
  }
  void invariant(bool good, std::string_view what) {
    if (!good) {
      consistent_ = false;
      note(what);
    }
  }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  bool correct() const { return consistent_ && failed_ == 0; }
  const std::string& first_error() const { return first_error_; }

 private:
  void note(std::string_view what) {
    if (first_error_.empty()) first_error_ = what;
  }
  u64 attempted_ = 0;
  u64 failed_ = 0;
  bool consistent_ = true;
  std::string first_error_;
};

/// Mean of the middle half of `v` (its interquartile mean).
double middle_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - lo;
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

/// Time slice of the measured loop the calling thread is in (see run_loop).
thread_local std::size_t g_slice = 0;

/// Calls of one operation kind, per time slice of the loop: exact sums, and
/// the latencies of at most kReservoir calls (a uniform sample of the slice
/// once it has more). The storage is allocated and touched up front, so the
/// benchmark's own bookkeeping adds the same memory to peak_rss_mb however
/// many iterations a run makes.
class OpStats {
 public:
  OpStats() {
    for (auto& s : slices_) s.us.assign(kReservoir, 0.0F);
  }

  void add(std::int64_t t0, std::int64_t t1, double items, double cpu_us = 0) {
    auto& s = slices_[g_slice];
    const auto us = static_cast<float>(static_cast<double>(t1 - t0) / 1e3);
    if (s.calls < kReservoir) {
      s.us[s.calls] = us;
    } else if (const u64 j = next_random() % (s.calls + 1); j < kReservoir) {
      s.us[j] = us;
    }
    ++s.calls;
    s.wall_us += us;
    s.items += items;
    s.cpu_us += cpu_us;
  }

  u64 calls() const {
    u64 n = 0;
    for (const auto& s : slices_) n += s.calls;
    return n;
  }
  double wall_us() const { return sum([](const Slice& s) { return s.wall_us; }); }
  double items() const { return sum([](const Slice& s) { return s.items; }); }
  double cpu_us() const { return sum([](const Slice& s) { return s.cpu_us; }); }

  bool empty(std::size_t k) const { return slices_[k].calls == 0; }
  /// Latency quantile of slice k's calls (0 for an empty slice).
  double latency(std::size_t k, double q) const {
    const auto& s = slices_[k];
    const auto n = static_cast<std::ptrdiff_t>(std::min<u64>(s.calls, kReservoir));
    return quantile(std::vector<double>(s.us.begin(), s.us.begin() + n), q);
  }
  /// Items per second of wall time inside slice k's calls, at their typical
  /// duration: items per call over the interquartile mean of the calls'
  /// durations, so that a few calls stalled by the host do not decide it.
  double per_s(std::size_t k) const {
    const auto& s = slices_[k];
    if (s.calls == 0) return 0.0;
    const auto n = static_cast<std::ptrdiff_t>(std::min<u64>(s.calls, kReservoir));
    const double us = middle_mean(std::vector<double>(s.us.begin(), s.us.begin() + n));
    return ratio(s.items / static_cast<double>(s.calls), us / 1e6);
  }

 private:
  static constexpr u64 kReservoir = 2048;
  struct Slice {
    std::vector<float> us;
    u64 calls = 0;
    double wall_us = 0, items = 0, cpu_us = 0;
  };
  template <typename Field>
  double sum(Field&& field) const {
    double total = 0;
    for (const auto& s : slices_) total += field(s);
    return total;
  }
  u64 next_random() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }
  std::array<Slice, kSlices> slices_;
  u64 rng_ = 0x853c49e6748fea9bULL;
};

/// How fast the loop's CPUs ran in each slice: the calibration kernel's runs
/// (see calibrate.hpp), on the calling thread for the one-thread workloads
/// and on a crew as large as the batch pool for the batch workloads.
///
/// It also measures how much CPU time other processes took from the loop.
/// When another process keeps one of the 4 CPUs busy, a 4-worker batch runs
/// about 4/3 as long, while each kernel run, far shorter than a scheduler
/// time slice, still finds a CPU to itself. So each slice also records the
/// CPUs' worth of busy time (stolen time included) that the machine spent
/// outside this process, from /proc/stat.
struct Speed {
  explicit Speed(unsigned loop_threads) : threads(loop_threads), calibrator(loop_threads) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) cpus = static_cast<double>(CPU_COUNT(&set));
  }
  void sample() {
    for (const auto ns : calibrator.run()) kernel.add(0, ns, 1);
  }
  /// Starts the accounting of slice k, ending that of the previous slice.
  void enter(std::size_t k) {
    leave();
    slice = k;
    start = snapshot();
  }
  /// Ends the accounting of the current slice.
  void leave() {
    if (start.busy_s < 0) return;
    const auto end = snapshot();
    if (end.busy_s >= 0) {
      others_s[slice] += std::max(0.0, (end.busy_s - start.busy_s) - (end.own_s - start.own_s));
      wall_s[slice] += end.wall_s - start.wall_s;
    }
    start.busy_s = -1;
  }

  /// Factor that takes a latency measured in slice k to the reference
  /// speed on an otherwise idle machine: (reference / kernel median)^exponent,
  /// divided by the slowdown that other processes caused. With L CPUs' worth
  /// of other work on N CPUs, the loop's T threads had N - L CPUs, so it ran
  /// max(1, T / (N - L)) times as long. A throughput is divided by it.
  double factor(std::size_t k) const {
    const double slowdown =
        std::max(1.0, static_cast<double>(threads) / std::max(0.5, cpus - others(k)));
    return std::pow(kReferenceKernelUs / kernel.latency(k, 0.5), kSpeedExponent) / slowdown;
  }
  /// CPUs' worth of other processes' work in slice k.
  double others(std::size_t k) const { return ratio(others_s[k], wall_s[k]); }

  unsigned threads;
  double cpus = 1;
  Calibrator calibrator;
  OpStats kernel;

 private:
  struct Snapshot {
    double busy_s = -1;  ///< machine-wide busy CPU time, negative if unknown
    double own_s = 0;    ///< this process's CPU time
    double wall_s = 0;
  };
  /// Busy time from the first line of /proc/stat: user, nice, system, irq,
  /// softirq and steal (guest time is inside user).
  static Snapshot snapshot() {
    Snapshot snap;
    std::ifstream stat("/proc/stat");
    std::string label;
    std::array<double, 8> t{};
    if (!(stat >> label) || label != "cpu") return snap;
    for (auto& x : t) {
      if (!(stat >> x)) return snap;
    }
    static const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
    snap.busy_s = (t[0] + t[1] + t[2] + t[5] + t[6] + t[7]) / hz;
    snap.own_s = static_cast<double>(cpu_ns()) / 1e9;
    snap.wall_s = static_cast<double>(now_ns()) / 1e9;
    return snap;
  }

  std::size_t slice = 0;
  Snapshot start;
  std::array<double, kSlices> others_s{}, wall_s{};
};

/// A latency quantile at the reference speed: each slice's quantile times
/// that slice's speed factor, then the interquartile mean over the slices.
double calibrated_latency(const OpStats& op, const Speed& speed, double q) {
  std::vector<double> v;
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (!op.empty(k) && !speed.kernel.empty(k)) v.push_back(op.latency(k, q) * speed.factor(k));
  }
  return middle_mean(std::move(v));
}

/// Items per second at the reference speed, the same way.
double calibrated_per_s(const OpStats& op, const Speed& speed) {
  std::vector<double> v;
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (!op.empty(k) && !speed.kernel.empty(k)) v.push_back(op.per_s(k) / speed.factor(k));
  }
  return middle_mean(std::move(v));
}

struct Samples {
  OpStats keygen, encaps, decaps;
  double wall_us() const { return keygen.wall_us() + encaps.wall_us() + decaps.wall_us(); }
  double cpu_us() const { return keygen.cpu_us() + encaps.cpu_us() + decaps.cpu_us(); }
  double items() const { return keygen.items() + encaps.items() + decaps.items(); }
};

/// Moves the calling thread over the CPUs the process may use. On a shared
/// host one CPU is often much slower than the others for seconds at a time;
/// rotating keeps a one-thread measurement from depending on where the
/// scheduler first put it. The destructor restores the original affinity.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&original_);
    if (enabled && sched_getaffinity(0, sizeof original_, &original_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
      }
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the k-th allowed CPU (modulo their number); no-op when disabled.
  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Runs `body(i)` for i = 0, 1, ... for `seconds`, or exactly
/// `opts.iterations` times when that is set, in kSlices equal slices (by
/// time, or by count). With `rotate`, the calling thread moves to the next
/// CPU at every slice. The calibration kernel runs at the start of every
/// slice and then once per kSpeedPeriodNs of loop time, between iterations.
/// Returns the number of iterations.
template <typename Fn>
u64 run_loop(const Options& opts, double seconds, bool rotate, Speed& speed, Fn&& body) {
  CpuRotation cpus(rotate);
  std::int64_t due = 0;
  auto enter_slice = [&](std::size_t k) {
    g_slice = k;
    cpus.pin(k);
    speed.enter(k);
    speed.sample();
    due = now_ns() + kSpeedPeriodNs;
  };
  auto after_body = [&] {
    for (auto t = now_ns(); t >= due; due += kSpeedPeriodNs) speed.sample();
  };
  u64 i = 0;
  if (opts.iterations != 0) {
    for (; i < opts.iterations; ++i) {
      const std::size_t k = static_cast<std::size_t>(i * kSlices / opts.iterations);
      if (i == 0 || k != g_slice) enter_slice(k);
      body(i);
      after_body();
    }
  } else {
    const auto start = now_ns();
    const auto length = static_cast<std::int64_t>(seconds * 1e9);
    enter_slice(0);
    for (auto t = start; t - start < length || i == 0; t = now_ns()) {
      const auto k = static_cast<std::size_t>((t - start) * static_cast<std::int64_t>(kSlices) / length);
      if (k != g_slice && k < kSlices) enter_slice(k);
      body(i++);
      after_body();
    }
  }
  speed.leave();
  g_slice = 0;
  return i;
}

/// Construction time of one `make()` at the reference speed: kSetupRepeats
/// samples rotating over the CPUs as run_loop does, each preceded by three
/// runs of the calibration kernel on the same CPU and scaled by their
/// median; the median of the scaled samples. The samples come in bursts of
/// kSetupPerBurst with a pause of kSetupGap between bursts: thread creation,
/// most of a batch engine's set-up, varies by a quarter from one second to
/// the next on a shared host, so samples spread over two seconds give a
/// median that moves less between runs. Objects that build in well
/// under a microsecond are timed in groups (the group doubled until it takes
/// 20 us), so that the clock's resolution does not quantize the result.
/// Destruction is not timed.
template <typename Make>
double setup_seconds(Make&& make) {
  CpuRotation cpus(true);
  Calibrator kernel(1);
  std::vector<decltype(make())> built;
  auto time_group = [&](std::size_t group) {
    built.clear();
    const auto t0 = now_ns();
    for (std::size_t g = 0; g < group; ++g) built.push_back(make());
    return now_ns() - t0;
  };
  std::size_t group = 1;
  while (group < 4096 && time_group(group) < 20'000) group *= 2;
  std::vector<double> samples;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    if (k != 0 && k % kSetupPerBurst == 0) std::this_thread::sleep_for(kSetupGap);
    cpus.pin(k);
    std::vector<double> kernel_us;
    for (int r = 0; r < 3; ++r) kernel_us.push_back(static_cast<double>(kernel.run()[0]) / 1e3);
    const double factor = std::pow(kReferenceKernelUs / median(kernel_us), kSpeedExponent);
    samples.push_back(static_cast<double>(time_group(group)) / 1e9 /
                      static_cast<double>(group) * factor);
  }
  built.clear();
  return median(std::move(samples));
}

struct KemInput {
  kem::Seed seed_a{};
  kem::Seed seed_s{};
  kem::SharedSecret z{};
  kem::Message m{};
};

KemInput draw_input(saber::RandomSource& rng) {
  KemInput in;
  rng.fill(in.seed_a);
  rng.fill(in.seed_s);
  rng.fill(in.z);
  rng.fill(in.m);
  return in;
}

/// Implicit-rejection key for a tampered ciphertext: SHA3-256(z || SHA3-256(ct)).
kem::SharedSecret rejection_key(std::span<const u8> z, std::span<const u8> ct) {
  std::array<u8, 64> kr{};
  std::copy(z.begin(), z.end(), kr.begin());
  const auto h = sha3::Sha3_256::hash(ct);
  std::copy(h.begin(), h.end(), kr.begin() + 32);
  return sha3::Sha3_256::hash(kr);
}

std::span<const u8> z_of(const std::vector<u8>& sk) {
  return std::span<const u8>(sk).last(kem::SaberParams::key_bytes);
}

bool same_keys(const kem::KemKeyPair& a, const kem::KemKeyPair& b) {
  return a.pk == b.pk && a.sk == b.sk;
}

bool same_encaps(const kem::EncapsResult& a, const kem::EncapsResult& b) {
  return a.ct == b.ct && a.key == b.key;
}

std::size_t prepared_values(const kem::PreparedPublicKey& p) {
  return p.a.value_count() + p.b.value_count();
}

// --- side measurements shared by every workload -----------------------------

/// One keygen + encaps + decaps on the cycle-accurate core: the exact cycle
/// ledger of a whole KEM for the workload's parameter set.
struct HwKem {
  u64 products = 0;
  u64 cycles = 0;
};

HwKem hw_kem(const kem::SaberParams& params, const KemInput& in, Tally& tally) {
  TracedHwMultiplier hw(arch::make_architecture(kHwCore));
  const kem::SaberKemScheme scheme(params, arch::as_poly_mul(hw));
  const trace::Request req("hw.kem");
  const auto kp = scheme.keygen_deterministic(in.seed_a, in.seed_s, in.z);
  const auto enc = scheme.encaps_deterministic(kp.pk, in.m);
  tally.invariant(scheme.decaps(enc.ct, kp.sk) == enc.key, "hardware KEM round trip failed");
  return {hw.products(), hw.cycles()};
}

/// Median time of one product on every registered software backend, all on
/// the same seeded operands.
std::vector<Metric> backend_product_us(saber::RandomSource& rng, Tally& tally) {
  constexpr unsigned kQ = kem::SaberParams::eq;
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, kem::kSaber.secret_bound());
  const auto expected = mult::make_multiplier("schoolbook")->multiply_secret(a, s, kQ);
  std::vector<Metric> out;
  for (const auto name : mult::multiplier_names()) {
    const auto m = mult::make_multiplier(name);
    std::vector<double> t;
    const auto start = now_ns();
    do {
      const auto t0 = now_ns();
      const auto p = m->multiply_secret(a, s, kQ);
      t.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (t.size() == 1) tally.invariant(p == expected, "backend product differs from schoolbook");
    } while (t.size() < 3 || (now_ns() - start < 20'000'000 && t.size() < 1000));
    out.push_back({"mult." + std::string(name) + ".product_us", median(std::move(t)), "us"});
  }
  return out;
}

/// The outputs of the untraced iterations: a running digest of all of them,
/// in order, and the per-iteration digests of the last few, which the traced
/// side of an interleaved run compares against. Its size does not grow with
/// the run.
class Outputs {
 public:
  static constexpr u64 kRecent = 16;  ///< at least the longest interleaving chunk

  void add(u64 i, const Digest& d) {
    all_.update(d);
    recent_[i % kRecent] = d;
  }
  const Digest& at(u64 i) const { return recent_[i % kRecent]; }
  std::string hex() const {
    auto h = all_;
    return saber::to_hex(h.digest());
  }

 private:
  sha3::Sha3_256 all_;
  std::array<Digest, kRecent> recent_{};
};

/// Trace mode: alternates chunks of `chunk` untraced and `chunk` traced
/// iterations over the same inputs (iteration indices), for opts.seconds in
/// total, so that load from outside the benchmark hits both sides alike and
/// trace.overhead_ratio compares like with like. opts.iterations, when set,
/// counts iterations per side (rounded up to whole chunks). Returns the
/// iterations run on each side.
template <typename Untraced, typename Traced>
u64 run_interleaved(const Options& opts, u64 chunk, bool rotate, Speed& speed,
                    Untraced&& untraced, Traced&& traced) {
  static_assert(kSeqChunk <= Outputs::kRecent && kBatchChunk <= Outputs::kRecent);
  Options chunked = opts;
  chunked.iterations = (opts.iterations + chunk - 1) / chunk;
  const u64 chunks = run_loop(chunked, opts.seconds, rotate, speed, [&](u64 k) {
    for (u64 j = 0; j < chunk; ++j) untraced(k * chunk + j);
    trace::set_enabled(true);
    for (u64 j = 0; j < chunk; ++j) traced(k * chunk + j);
    trace::set_enabled(false);
  });
  return chunks * chunk;
}

void finish_report(Report& report, const Tally& tally) {
  report.correct = tally.correct();
  report.attempted = tally.attempted();
  report.failed = tally.failed();
  if (!tally.first_error().empty()) {
    report.details.emplace_back("first_error", json_string(tally.first_error()));
  }
}

std::vector<Metric> e2e_metrics(const Samples& s, const Speed& speed, u64 hw_cycles_per_kem,
                                double setup_s, double peak_rss) {
  return {
      {"keygen_us.p50", calibrated_latency(s.keygen, speed, 0.5), "us"},
      {"encaps_us.p50", calibrated_latency(s.encaps, speed, 0.5), "us"},
      {"decaps_us.p50", calibrated_latency(s.decaps, speed, 0.5), "us"},
      {"keygen_per_s", calibrated_per_s(s.keygen, speed), "1/s"},
      {"encaps_per_s", calibrated_per_s(s.encaps, speed), "1/s"},
      {"decaps_per_s", calibrated_per_s(s.decaps, speed), "1/s"},
      {"hw_cycles_per_kem", static_cast<double>(hw_cycles_per_kem), "cycles"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  std::vector<Metric> tail_latencies;
  double items = 0;        ///< KEM operations in the traced loop
  double keygens = 0, encapses = 0, decapses = 0;
  double rounds = 0;       ///< iterations / rounds of the traced loop
  double replayed = 0;     ///< operations replayed stage by stage
  double overhead_ratio = 0;
  double busy_ratio = 0;
  double prepared_values = 0;
  std::vector<Metric> product_us;
  saber::FaultCounters faults;
  double quarantines = 0, routed_around = 0, lazy_prepares = 0;
  double prepared_values_ratio = 0;
  double hw_products_per_kem = 0, hw_cycles_per_product = 0;
  double fail_ratio = 0;
};

/// The p99 latencies, from the untraced side of a traced run. They are
/// per-layer rather than end-to-end metrics: bursts of load on a shared host
/// move them between runs by more than any end-to-end bound allows.
std::vector<Metric> tail_latencies(const Samples& s, const Speed& speed) {
  return {{"keygen_us.p99", calibrated_latency(s.keygen, speed, 0.99), "us"},
          {"encaps_us.p99", calibrated_latency(s.encaps, speed, 0.99), "us"},
          {"decaps_us.p99", calibrated_latency(s.decaps, speed, 0.99), "us"}};
}

std::vector<Metric> layer_metrics(const SpanIndex& idx, const LayerInputs& in) {
  std::vector<Metric> out = in.tail_latencies;
  for (const char* stage :
       {"prepare_public", "prepare_secret", "pointwise", "finalize", "multiply"}) {
    const std::string span = std::string("mult.") + stage;
    out.push_back({span + ".calls", ratio(static_cast<double>(idx.count(span)), in.items),
                   "count/op"});
    out.push_back({span + ".us", ratio(idx.total_us(span), in.items), "us"});
  }
  out.insert(out.end(), in.product_us.begin(), in.product_us.end());
  out.push_back({"mult.batch.prepare_pk_us",
                 ratio(idx.total_us("mult.batch.prepare_pk"),
                       static_cast<double>(idx.count("mult.batch.prepare_pk"))),
                 "us"});
  out.push_back({"mult.batch.prepared_values", in.prepared_values, "count"});

  auto per_replayed_op = [&](const char* span) { return ratio(idx.total_us(span), in.replayed); };
  out.push_back({"saber.gen.matrix_us", per_replayed_op("saber.gen.matrix"), "us"});
  out.push_back({"saber.gen.secret_us", per_replayed_op("saber.gen.secret"), "us"});
  out.push_back({"sha3.sha3_256_us", per_replayed_op("sha3.sha3_256"), "us"});
  out.push_back({"sha3.sha3_512_us", per_replayed_op("sha3.sha3_512"), "us"});
  out.push_back({"sha3.shake128_us", per_replayed_op("sha3.shake128"), "us"});
  out.push_back({"saber.sampler.cbd_us", per_replayed_op("saber.sampler.cbd"), "us"});
  out.push_back({"ring.packing.pack_us", per_replayed_op("ring.packing.pack"), "us"});
  out.push_back({"ring.packing.unpack_us", per_replayed_op("ring.packing.unpack"), "us"});
  out.push_back({"saber.flows.seal_us", per_replayed_op("saber.flows.seal"), "us"});
  out.push_back({"saber.flows.fo_compare_us", per_replayed_op("saber.flows.fo_compare"), "us"});

  out.push_back({"saber.keygen.self_us", ratio(idx.self_us("saber.keygen"), in.keygens), "us"});
  out.push_back({"saber.encaps.self_us", ratio(idx.self_us("saber.encaps"), in.encapses), "us"});
  out.push_back({"saber.decaps.self_us", ratio(idx.self_us("saber.decaps"), in.decapses), "us"});

  out.push_back({"saber.batch.busy_ratio", in.busy_ratio, "ratio"});
  out.push_back({"saber.batch.serial_us",
                 ratio(idx.head_serial_us("saber.keygen") + idx.head_serial_us("saber.encaps") +
                           idx.head_serial_us("saber.decaps"),
                       in.rounds),
                 "us"});

  const auto& f = in.faults;
  out.push_back({"robust.checks", ratio(static_cast<double>(f.checks), in.items), "count/op"});
  out.push_back(
      {"robust.mismatches", ratio(static_cast<double>(f.mismatches), in.items), "count/op"});
  out.push_back({"robust.retries", ratio(static_cast<double>(f.retry_recoveries), in.items),
                 "count/op"});
  out.push_back(
      {"robust.failovers", ratio(static_cast<double>(f.failovers), in.items), "count/op"});
  out.push_back({"robust.recovered_ratio",
                 ratio(static_cast<double>(f.recoveries()), static_cast<double>(f.mismatches)),
                 "ratio"});
  double facade_self = 0;
  for (const char* stage :
       {"multiply", "prepare_public", "prepare_secret", "pointwise", "finalize"}) {
    facade_self += idx.self_us(std::string("robust.") + stage);
  }
  out.push_back({"robust.check_self_us", ratio(facade_self, in.items), "us"});
  out.push_back({"robust.check_overhead_ratio",
                 ratio(idx.total_us("replay.mult"), idx.total_us("replay.mult_base")), "ratio"});
  out.push_back({"robust.supervisor.quarantines", ratio(in.quarantines, in.items), "count/op"});
  out.push_back({"robust.supervisor.routed_around", ratio(in.routed_around, in.items), "count/op"});
  out.push_back({"robust.supervisor.lazy_prepares", ratio(in.lazy_prepares, in.items), "count/op"});
  out.push_back({"robust.prepared_values_ratio", in.prepared_values_ratio, "ratio"});

  out.push_back({"multipliers.products_per_kem", in.hw_products_per_kem, "count"});
  out.push_back({"multipliers.us_per_product",
                 ratio(idx.total_us("multipliers.multiply"),
                       static_cast<double>(idx.count("multipliers.multiply"))),
                 "us"});
  out.push_back({"multipliers.cycles_per_product", in.hw_cycles_per_product, "cycles"});

  out.push_back({"trace.overhead_ratio", in.overhead_ratio, "ratio"});
  out.push_back({"fail_ratio", in.fail_ratio, "ratio"});
  return out;
}

void write_trace(const Options& opts, const SpanIndex& idx, Report& report) {
  if (opts.trace_path.empty()) return;
  const auto n = trace::write_tsv(opts.trace_path, idx.spans(), kTraceSpanLimit);
  report.details.emplace_back("trace_file", json_string(opts.trace_path));
  report.details.emplace_back("trace_spans_written", std::to_string(n));
  report.details.emplace_back("trace_spans_recorded", std::to_string(idx.spans().size()));
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) out += (out.size() > 1 ? ", " : "") + json_number(x);
  return out + "]";
}

/// Least-squares slope of log(y) on log(x) over the pairs with both positive.
double log_slope(const std::vector<double>& x, const std::vector<double>& y) {
  std::vector<std::pair<double, double>> p;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0 && y[i] > 0) p.emplace_back(std::log(x[i]), std::log(y[i]));
  }
  if (p.size() < 2) return 0.0;
  double mx = 0, my = 0;
  for (const auto& [a, b] : p) mx += a, my += b;
  mx /= static_cast<double>(p.size());
  my /= static_cast<double>(p.size());
  double sxy = 0, sxx = 0;
  for (const auto& [a, b] : p) sxy += (a - mx) * (b - my), sxx += (a - mx) * (a - mx);
  return ratio(sxy, sxx);
}

/// Sample counts, and the per-slice medians of every operation and of the
/// calibration kernel, the CPUs' worth of other processes' work per slice,
/// and the slope of log(operation) on log(kernel) over
/// the slices: 1 when the operations slow down exactly as the kernel does.
void add_count_details(Report& r, const Samples& s, const Speed& speed, u64 loops) {
  auto by_slice = [](const OpStats& op) {
    std::vector<double> v;
    for (std::size_t k = 0; k < kSlices; ++k) v.push_back(op.latency(k, 0.5));
    return v;
  };
  const auto kernel = by_slice(speed.kernel);
  r.details.emplace_back("loop_iterations", std::to_string(loops));
  r.details.emplace_back("kernel_samples", std::to_string(speed.kernel.calls()));
  r.details.emplace_back("kernel_us_p50_by_slice", json_list(kernel));
  std::vector<double> others;
  for (std::size_t k = 0; k < kSlices; ++k) others.push_back(speed.others(k));
  r.details.emplace_back("other_cpus_by_slice", json_list(others));
  for (const auto& [name, op] : {std::pair{"keygen", &s.keygen}, std::pair{"encaps", &s.encaps},
                                 std::pair{"decaps", &s.decaps}}) {
    const auto v = by_slice(*op);
    r.details.emplace_back(std::string(name) + "_samples", std::to_string(op->calls()));
    r.details.emplace_back(std::string(name) + "_us_p50_by_slice", json_list(v));
    r.details.emplace_back(std::string(name) + "_speed_slope", json_number(log_slope(kernel, v)));
  }
}

// --- single_op and hw_sim: one thread, one operation at a time ---------------

struct SeqEngine {
  std::shared_ptr<const mult::PolyMultiplier> sw;  ///< single_op
  std::unique_ptr<TracedHwMultiplier> hw;          ///< hw_sim
  std::unique_ptr<kem::SaberKemScheme> scheme;
};

std::unique_ptr<SeqEngine> make_seq(bool hw_sim, bool traced) {
  auto e = std::make_unique<SeqEngine>();
  if (hw_sim) {
    e->hw = std::make_unique<TracedHwMultiplier>(arch::make_architecture(kHwCore));
    e->scheme = std::make_unique<kem::SaberKemScheme>(kem::kSaber, arch::as_poly_mul(*e->hw));
  } else {
    e->sw = mult::make_multiplier("ntt");
    if (traced) e->sw = std::make_shared<TracedMultiplier>(e->sw, "mult");
    e->scheme = std::make_unique<kem::SaberKemScheme>(kem::kSaber, e->sw);
  }
  return e;
}

struct KemOut {
  kem::KemKeyPair kp;
  kem::EncapsResult enc;
  kem::SharedSecret key{};
};

KemOut seq_iteration(const SeqEngine& e, const KemInput& in, Samples& s) {
  KemOut o;
  {
    const trace::Request req("saber.keygen");
    const auto t0 = now_ns();
    o.kp = e.scheme->keygen_deterministic(in.seed_a, in.seed_s, in.z);
    s.keygen.add(t0, now_ns(), 1);
  }
  {
    const trace::Request req("saber.encaps");
    const auto t0 = now_ns();
    o.enc = e.scheme->encaps_deterministic(o.kp.pk, in.m);
    s.encaps.add(t0, now_ns(), 1);
  }
  {
    const trace::Request req("saber.decaps");
    const auto t0 = now_ns();
    o.key = e.scheme->decaps(o.enc.ct, o.kp.sk);
    s.decaps.add(t0, now_ns(), 1);
  }
  return o;
}

Digest seq_digest(const KemOut& o) {
  sha3::Sha3_256 h;
  h.update(o.kp.pk).update(o.kp.sk).update(o.enc.ct).update(o.enc.key).update(o.key);
  return h.digest();
}

Report run_sequential(const Options& opts, bool hw_sim) {
  Report report;
  Tally tally;
  const auto& params = kem::kSaber;
  saber::Xoshiro256StarStar rng(opts.seed ^ (hw_sim ? 0x4857'5349'4d00'0001ULL
                                                    : 0x5349'4e47'4c45'0001ULL));
  std::vector<KemInput> inputs(kInputPool);
  for (auto& in : inputs) in = draw_input(rng);
  // hw_sim's outputs must match a software run on the same seeds.
  const kem::SaberKemScheme reference(params, "ntt");
  const auto engine = make_seq(hw_sim, false);

  // Per-iteration product and cycle counts of the core, which must repeat.
  u64 hw_products = 0, hw_cycles = 0;
  auto iterate = [&](const SeqEngine& e, const KemInput& in, Samples& s) {
    const u64 p0 = e.hw ? e.hw->products() : 0, c0 = e.hw ? e.hw->cycles() : 0;
    auto o = seq_iteration(e, in, s);
    if (hw_sim) {
      tally.item(same_keys(o.kp, reference.keygen_deterministic(in.seed_a, in.seed_s, in.z)),
                 "hw_sim keygen differs from the ntt backend");
      tally.item(same_encaps(o.enc, reference.encaps_deterministic(o.kp.pk, in.m)),
                 "hw_sim encaps differs from the ntt backend");
      const u64 dp = e.hw->products() - p0, dc = e.hw->cycles() - c0;
      if (hw_products == 0) {
        hw_products = dp;
        hw_cycles = dc;
      }
      tally.invariant(dp == hw_products && dc == hw_cycles,
                      "hw cycle count differs between iterations");
    } else {
      tally.item(o.kp.pk.size() == params.pk_bytes() && o.kp.sk.size() == params.kem_sk_bytes(),
                 "keygen output has the wrong size");
      tally.item(o.enc.ct.size() == params.ct_bytes(), "ciphertext has the wrong size");
    }
    tally.item(o.key == o.enc.key, "decaps key differs from encaps key");
    return o;
  };

  {
    Samples warm;
    iterate(*engine, inputs[0], warm);
  }
  Samples untraced;
  Speed speed(1);
  Outputs outputs;
  double cpu_us = 0, wall_us = 0;
  auto untraced_iteration = [&](u64 i) {
    const auto c0 = cpu_ns();
    const auto t0 = now_ns();
    outputs.add(i, seq_digest(iterate(*engine, inputs[i % kInputPool], untraced)));
    wall_us += static_cast<double>(now_ns() - t0) / 1e3;
    cpu_us += static_cast<double>(cpu_ns() - c0) / 1e3;
  };

  if (!opts.trace) {
    const u64 loops = run_loop(opts, opts.seconds, /*rotate=*/true, speed, untraced_iteration);
    // Read before the set-up timing, whose repeated builds are not the workload.
    const double peak_rss = peak_rss_mb();
    const double setup_s = setup_seconds([&] { return make_seq(hw_sim, false); });
    const HwKem side = hw_sim ? HwKem{hw_products, hw_cycles} : hw_kem(params, inputs[0], tally);
    add_count_details(report, untraced, speed, loops);
    report.metrics = e2e_metrics(untraced, speed, side.cycles, setup_s, peak_rss);
  } else {
    const auto traced_engine = make_seq(hw_sim, true);
    // The replay runs its products on a separate, unwrapped instance so they
    // add no spans to the layers of the real operations.
    const std::shared_ptr<const mult::PolyMultiplier> plain_sw = mult::make_multiplier("ntt");
    const auto plain_hw = arch::make_architecture(kHwCore);
    std::unique_ptr<Products> products;
    if (hw_sim) {
      products = std::make_unique<GenericProducts>(arch::as_poly_mul(*plain_hw), "replay.mult");
    } else {
      products = std::make_unique<SoftwareProducts>(*plain_sw, "replay.mult");
    }
    LayerInputs li;
    Samples traced;
    const u64 loops = run_interleaved(opts, kSeqChunk, /*rotate=*/true, speed, untraced_iteration,
                                      [&](u64 i) {
      const auto& in = inputs[i % kInputPool];
      const auto o = iterate(*traced_engine, in, traced);
      tally.invariant(seq_digest(o) == outputs.at(i), "traced output differs from the untraced run");
      {
        const trace::Request req("replay.keygen");
        tally.invariant(same_keys(replay_keygen(params, in.seed_a, in.seed_s, in.z, *products),
                                  o.kp),
                        "replayed keygen differs");
      }
      {
        const trace::Request req("replay.encaps");
        tally.invariant(same_encaps(replay_encaps(params, o.kp.pk, in.m, *products, false),
                                    o.enc),
                        "replayed encaps differs");
      }
      {
        const trace::Request req("replay.decaps");
        tally.invariant(replay_decaps(params, o.enc.ct, o.kp.sk, *products) == o.key,
                        "replayed decaps differs");
      }
      li.replayed += 3;
    });
    trace::set_enabled(true);
    const HwKem side = hw_sim ? HwKem{hw_products, hw_cycles} : hw_kem(params, inputs[0], tally);
    trace::set_enabled(false);
    const SpanIndex idx(trace::collect());

    add_count_details(report, untraced, speed, loops);
    li.tail_latencies = tail_latencies(untraced, speed);
    li.items = traced.items();
    li.keygens = traced.keygen.items();
    li.encapses = traced.encaps.items();
    li.decapses = traced.decaps.items();
    li.rounds = static_cast<double>(loops);
    li.overhead_ratio = ratio(traced.wall_us(), untraced.wall_us());
    li.busy_ratio = ratio(cpu_us, wall_us);
    if (!hw_sim) {
      const kem::SaberPke pke(params, plain_sw);
      const auto kp = reference.keygen_deterministic(inputs[0].seed_a, inputs[0].seed_s,
                                                     inputs[0].z);
      li.prepared_values = static_cast<double>(prepared_values(pke.prepare_pk(kp.pk)));
    }
    li.product_us = backend_product_us(rng, tally);
    li.hw_products_per_kem = static_cast<double>(side.products);
    li.hw_cycles_per_product =
        ratio(static_cast<double>(side.cycles), static_cast<double>(side.products));
    li.fail_ratio = ratio(static_cast<double>(tally.failed()),
                          static_cast<double>(tally.attempted()));
    report.metrics = layer_metrics(idx, li);
    write_trace(opts, idx, report);
  }
  report.details.emplace_back("output_digest", json_string(outputs.hex()));
  finish_report(report, tally);
  return report;
}

// --- batch_server and checked_batch: KemBatch rounds ------------------------

struct Round {
  std::vector<batch::KeygenRequest> requests;
  std::vector<kem::Message> messages;
  std::size_t key = 0;                 ///< request whose key the encaps/decaps use
  std::vector<bool> tampered;          ///< per ciphertext
  std::vector<std::size_t> tamper_byte;
  std::vector<u8> tamper_mask;
  std::size_t sample_keygen = 0, sample_encaps = 0, sample_decaps = 0;
  u64 fault_offset = 0;
  unsigned fault_bit = 0;
  std::size_t fault_coeff = 0;
};

Round draw_round(saber::RandomSource& rng, const kem::SaberParams& params) {
  Round r;
  r.requests.resize(kKeygenPerRound);
  for (auto& q : r.requests) {
    rng.fill(q.seed_a);
    rng.fill(q.seed_s);
    rng.fill(q.z);
  }
  r.messages.resize(kEncapsPerRound);
  for (auto& m : r.messages) rng.fill(m);
  r.key = rng.uniform(kKeygenPerRound);
  r.tampered.assign(kEncapsPerRound, false);
  r.tamper_byte.assign(kEncapsPerRound, 0);
  r.tamper_mask.assign(kEncapsPerRound, 0);
  for (std::size_t n = 0; n < kTamperedPerRound;) {
    const auto i = rng.uniform(kEncapsPerRound);
    if (r.tampered[i]) continue;
    r.tampered[i] = true;
    r.tamper_byte[i] = rng.uniform(params.ct_bytes());
    r.tamper_mask[i] = static_cast<u8>(1 + rng.uniform(255));
    ++n;
  }
  r.sample_keygen = rng.uniform(kKeygenPerRound);
  r.sample_encaps = rng.uniform(kEncapsPerRound);
  r.sample_decaps = rng.uniform(kEncapsPerRound);
  r.fault_offset = rng.next_u64();
  r.fault_bit = static_cast<unsigned>(rng.uniform(kem::SaberParams::ep));
  r.fault_coeff = rng.uniform(ring::kN);
  return r;
}

struct BatchEngine {
  std::shared_ptr<robust::FaultInjector> injector;       ///< checked only
  std::unique_ptr<robust::BackendSupervisor> supervisor;  ///< checked only
  std::vector<std::shared_ptr<const mult::PolyMultiplier>> facades;  ///< checked only
  std::unique_ptr<batch::KemBatch> kb;
};

robust::SupervisorConfig checked_config() {
  robust::SupervisorConfig cfg;
  cfg.check.policy = robust::CheckPolicy::kFull;
  cfg.check.kind = robust::CheckKind::kPointEval;
  return cfg;
}

/// `injector` null: fault-free backends. `traced`: every backend comes out
/// of the factory wrapped in a "mult" TracedMultiplier, and each worker's
/// facade in a "robust" MonitoredTracedMultiplier.
std::unique_ptr<robust::BackendSupervisor> make_supervisor(
    std::shared_ptr<robust::FaultInjector> injector, bool traced) {
  robust::BackendFactory factory = [injector, traced](std::size_t i) {
    std::unique_ptr<mult::PolyMultiplier> m = mult::make_multiplier(kCheckedBackends[i]);
    if (i == 0 && injector) {
      m = std::make_unique<robust::FaultyPolyMultiplier>(std::move(m), injector);
    }
    if (traced) {
      m = std::make_unique<TracedMultiplier>(
          std::shared_ptr<const mult::PolyMultiplier>(std::move(m)), "mult");
    }
    return m;
  };
  return std::make_unique<robust::BackendSupervisor>(kCheckedBackends, checked_config(),
                                                     std::move(factory));
}

std::unique_ptr<BatchEngine> make_batch(bool checked, bool traced, u64 fault_seed) {
  auto e = std::make_unique<BatchEngine>();
  if (!checked) {
    e->kb = std::make_unique<batch::KemBatch>(
        kem::kSaber,
        [traced] {
          std::shared_ptr<const mult::PolyMultiplier> m = mult::make_multiplier("ntt");
          if (traced) m = std::make_shared<TracedMultiplier>(std::move(m), "mult");
          return m;
        },
        kBatchThreads);
    return e;
  }
  e->injector = std::make_shared<robust::FaultInjector>(fault_seed);
  e->supervisor = make_supervisor(e->injector, traced);
  BatchEngine* self = e.get();
  e->kb = std::make_unique<batch::KemBatch>(
      kem::kFireSaber,
      [self, traced] {
        std::shared_ptr<const mult::PolyMultiplier> f = self->supervisor->make_worker_multiplier();
        if (traced) f = std::make_shared<MonitoredTracedMultiplier>(std::move(f), "robust");
        self->facades.push_back(f);
        return f;
      },
      kBatchThreads);
  return e;
}

/// Arms one transient product fault on the primary backend, due within the
/// first half of the round's products, after disarming any that did not fire.
void arm_fault(const BatchEngine& e, const Round& r, u64 products_per_round) {
  if (!e.injector) return;
  e.injector->disarm_all();
  robust::FaultSpec spec;
  spec.site = robust::FaultSite::kProduct;
  spec.kind = robust::FaultSpec::Kind::kTransient;
  spec.bit = r.fault_bit;
  spec.coeff = r.fault_coeff;
  spec.fire_at = e.injector->ordinal(robust::FaultSite::kProduct) +
                 r.fault_offset % std::max<u64>(1, products_per_round / 2);
  e.injector->arm(spec);
}

struct RoundOut {
  std::vector<batch::Outcome<kem::KemKeyPair>> keys;
  std::vector<batch::Outcome<kem::EncapsResult>> encs;
  std::vector<std::vector<u8>> cts;
  std::vector<batch::Outcome<kem::SharedSecret>> decs;
};

template <typename Fn>
auto timed_batch_call(const char* name, OpStats& stats, double items, Fn&& fn) {
  const trace::Request req(name);
  const auto c0 = cpu_ns();
  const auto t0 = now_ns();
  auto out = fn();
  const auto t1 = now_ns();
  stats.add(t0, t1, items, static_cast<double>(cpu_ns() - c0) / 1e3);
  return out;
}

RoundOut batch_round(const BatchEngine& e, const Round& r, const kem::SaberParams& params,
                     Samples& s) {
  RoundOut o;
  o.keys = timed_batch_call("saber.keygen", s.keygen, kKeygenPerRound,
                            [&] { return e.kb->keygen_many(r.requests); });
  if (!o.keys[r.key].ok()) return o;
  const auto& kp = o.keys[r.key].value;
  o.encs = timed_batch_call("saber.encaps", s.encaps, kEncapsPerRound,
                            [&] { return e.kb->encaps_many(kp.pk, r.messages); });
  o.cts.reserve(o.encs.size());
  for (std::size_t i = 0; i < o.encs.size(); ++i) {
    auto ct = o.encs[i].value.ct;
    if (r.tampered[i] && ct.size() == params.ct_bytes()) ct[r.tamper_byte[i]] ^= r.tamper_mask[i];
    o.cts.push_back(std::move(ct));
  }
  o.decs = timed_batch_call("saber.decaps", s.decaps, kEncapsPerRound,
                            [&] { return e.kb->decaps_many(kp.sk, o.cts); });
  return o;
}

/// Checks every item of a round; returns its output digest.
Digest check_round(const Round& r, const RoundOut& o, Tally& tally, u64& recovered) {
  sha3::Sha3_256 h;
  for (const auto& k : o.keys) {
    tally.item(k.ok(), "keygen item failed");
    recovered += k.status == batch::ItemStatus::kRecovered;
    h.update(k.value.pk).update(k.value.sk);
  }
  if (o.decs.size() != kEncapsPerRound) {
    tally.item(false, "round aborted: its key failed");
    return h.digest();
  }
  const auto z = z_of(o.keys[r.key].value.sk);
  for (std::size_t i = 0; i < kEncapsPerRound; ++i) {
    const auto& enc = o.encs[i];
    const auto& dec = o.decs[i];
    tally.item(enc.ok(), "encaps item failed");
    const auto expected = r.tampered[i] ? rejection_key(z, o.cts[i]) : enc.value.key;
    tally.item(dec.ok() && dec.value == expected,
               r.tampered[i] ? "tampered ciphertext not rejected with SHA3-256(z || H(ct))"
                             : "decaps key differs from encaps key");
    recovered += (enc.status == batch::ItemStatus::kRecovered) +
                 (dec.status == batch::ItemStatus::kRecovered);
    h.update(enc.value.ct).update(enc.value.key).update(dec.value);
  }
  return h.digest();
}

/// Bit-for-bit comparison of one sampled item per operation with a
/// single-threaded scheme.
void sample_check(const Round& r, const RoundOut& o, const kem::SaberKemScheme& ref,
                  Tally& tally) {
  if (o.decs.size() != kEncapsPerRound) return;
  const auto& q = r.requests[r.sample_keygen];
  tally.item(same_keys(ref.keygen_deterministic(q.seed_a, q.seed_s, q.z),
                       o.keys[r.sample_keygen].value),
             "batch keygen differs from the single-threaded scheme");
  const auto& kp = o.keys[r.key].value;
  tally.item(same_encaps(ref.encaps_deterministic(kp.pk, r.messages[r.sample_encaps]),
                         o.encs[r.sample_encaps].value),
             "batch encaps differs from the single-threaded scheme");
  tally.item(ref.decaps(o.cts[r.sample_decaps], kp.sk) == o.decs[r.sample_decaps].value,
             "batch decaps differs from the single-threaded scheme");
}

/// The replay's products: the workload's own backend (for checked_batch a
/// fault-free supervised facade, paired with unwrapped toom3 as the base of
/// robust.check_overhead_ratio), on instances outside the measured path.
struct BatchReplay {
  std::unique_ptr<robust::BackendSupervisor> supervisor;
  std::shared_ptr<const mult::PolyMultiplier> mult, base_mult;
  std::unique_ptr<kem::SaberPke> pke, base_pke;
  std::unique_ptr<SoftwareProducts> primary, base;
  std::unique_ptr<BaselinedProducts> baselined;

  const Products& products() const {
    return baselined ? static_cast<const Products&>(*baselined) : *primary;
  }
};

std::unique_ptr<BatchReplay> make_batch_replay(bool checked, const kem::SaberParams& params) {
  auto rp = std::make_unique<BatchReplay>();
  if (checked) {
    rp->supervisor = make_supervisor(nullptr, false);
    rp->mult = rp->supervisor->make_worker_multiplier();
    rp->base_mult = mult::make_multiplier(kCheckedBackends[0]);
    rp->base_pke = std::make_unique<kem::SaberPke>(params, rp->base_mult);
    rp->base = std::make_unique<SoftwareProducts>(*rp->base_mult, "replay.mult_base");
  } else {
    rp->mult = mult::make_multiplier("ntt");
  }
  rp->pke = std::make_unique<kem::SaberPke>(params, rp->mult);
  rp->primary = std::make_unique<SoftwareProducts>(*rp->mult, "replay.mult");
  if (checked) rp->baselined = std::make_unique<BaselinedProducts>(*rp->primary, *rp->base);
  return rp;
}

void replay_round(const Round& r, const RoundOut& o, const kem::SaberParams& params,
                  BatchReplay& rp, Tally& tally) {
  if (o.decs.size() != kEncapsPerRound) return;
  const auto& kp = o.keys[r.key].value;
  {
    const auto& q = r.requests[r.sample_keygen];
    const trace::Request req("replay.keygen");
    tally.invariant(same_keys(replay_keygen(params, q.seed_a, q.seed_s, q.z, rp.products()),
                              o.keys[r.sample_keygen].value),
                    "replayed keygen differs");
  }
  std::optional<kem::PreparedPublicKey> prep, base_prep;
  {
    const trace::Request req("replay.prepare_pk");
    {
      const trace::Scope span("mult.batch.prepare_pk");
      prep.emplace(rp.pke->prepare_pk(kp.pk));
    }
    if (rp.base_pke) base_prep.emplace(rp.base_pke->prepare_pk(kp.pk));
  }
  rp.primary->bind(&*prep);
  if (rp.base) rp.base->bind(&*base_prep);
  {
    const trace::Request req("replay.encaps");
    tally.invariant(same_encaps(replay_encaps(params, kp.pk, r.messages[r.sample_encaps],
                                              rp.products(), true),
                                o.encs[r.sample_encaps].value),
                    "replayed encaps differs");
  }
  {
    const trace::Request req("replay.decaps");
    tally.invariant(replay_decaps(params, o.cts[r.sample_decaps], kp.sk, rp.products()) ==
                        o.decs[r.sample_decaps].value,
                    "replayed decaps differs");
  }
  rp.primary->bind(nullptr);
  if (rp.base) rp.base->bind(nullptr);
}

Report run_batch(const Options& opts, bool checked) {
  Report report;
  Tally tally;
  const auto& params = checked ? kem::kFireSaber : kem::kSaber;
  saber::Xoshiro256StarStar rng(opts.seed ^ (checked ? 0x4348'4543'4b00'0001ULL
                                                     : 0x4241'5443'4800'0001ULL));
  const u64 fault_seed = rng.next_u64();

  std::vector<Round> rounds;
  rounds.reserve(kRoundPool);
  for (std::size_t i = 0; i < kRoundPool; ++i) rounds.push_back(draw_round(rng, params));
  const kem::SaberKemScheme reference(params, "ntt");
  const auto engine = make_batch(checked, false, fault_seed);

  u64 recovered = 0;
  // Products the primary backend sees in one fault-free round, which sets
  // the window the per-round fault is drawn from.
  u64 products_per_round = 0;
  {
    Samples warm;
    const u64 before = engine->injector ? engine->injector->ordinal(robust::FaultSite::kProduct) : 0;
    const auto o = batch_round(*engine, rounds[0], params, warm);
    check_round(rounds[0], o, tally, recovered);
    if (engine->injector) {
      products_per_round = engine->injector->ordinal(robust::FaultSite::kProduct) - before;
    }
  }

  Samples untraced;
  Speed speed(kBatchThreads);
  Outputs outputs;
  auto untraced_round = [&](u64 i) {
    const auto& r = rounds[i % kRoundPool];
    arm_fault(*engine, r, products_per_round);
    const auto o = batch_round(*engine, r, params, untraced);
    outputs.add(i, check_round(r, o, tally, recovered));
    if (i % kSampleEvery == 0) sample_check(r, o, reference, tally);
  };

  if (!opts.trace) {
    const u64 loops = run_loop(opts, opts.seconds, /*rotate=*/false, speed, untraced_round);
    if (engine->injector) engine->injector->disarm_all();
    // Read before the set-up timing, whose repeated builds are not the workload.
    const double peak_rss = peak_rss_mb();
    const double setup_s = setup_seconds([&] { return make_batch(checked, false, fault_seed); });
    const HwKem side = hw_kem(params, draw_input(rng), tally);
    add_count_details(report, untraced, speed, loops);
    report.metrics = e2e_metrics(untraced, speed, side.cycles, setup_s, peak_rss);
  } else {
    const auto traced_engine = make_batch(checked, true, fault_seed);
    const auto rp = make_batch_replay(checked, params);
    LayerInputs li;
    Samples traced;
    const u64 loops = run_interleaved(opts, kBatchChunk, /*rotate=*/false, speed, untraced_round,
                                      [&](u64 i) {
      const auto& r = rounds[i % kRoundPool];
      arm_fault(*traced_engine, r, products_per_round);
      const auto o = batch_round(*traced_engine, r, params, traced);
      tally.invariant(check_round(r, o, tally, recovered) == outputs.at(i),
                      "traced output differs from the untraced run");
      if (traced_engine->injector) traced_engine->injector->disarm_all();
      replay_round(r, o, params, *rp, tally);
      li.replayed += 3;
    });
    if (engine->injector) engine->injector->disarm_all();
    trace::set_enabled(true);
    const HwKem side = hw_kem(params, draw_input(rng), tally);
    trace::set_enabled(false);
    const SpanIndex idx(trace::collect());

    add_count_details(report, untraced, speed, loops);
    li.tail_latencies = tail_latencies(untraced, speed);
    li.items = traced.items();
    li.keygens = traced.keygen.items();
    li.encapses = traced.encaps.items();
    li.decapses = traced.decaps.items();
    li.rounds = static_cast<double>(loops);
    li.overhead_ratio = ratio(traced.wall_us(), untraced.wall_us());
    li.busy_ratio = ratio(untraced.cpu_us(), kBatchThreads * untraced.wall_us());
    {
      const auto& q = rounds[0].requests[0];
      const auto kp = reference.keygen_deterministic(q.seed_a, q.seed_s, q.z);
      const auto values = static_cast<double>(prepared_values(rp->pke->prepare_pk(kp.pk)));
      li.prepared_values = values;
      if (checked) {
        li.prepared_values_ratio =
            ratio(values, static_cast<double>(prepared_values(rp->base_pke->prepare_pk(kp.pk))));
      }
    }
    for (const auto& f : traced_engine->facades) {
      const auto c = dynamic_cast<const saber::FaultMonitor&>(*f).fault_counters();
      li.faults.checks += c.checks;
      li.faults.mismatches += c.mismatches;
      li.faults.retry_recoveries += c.retry_recoveries;
      li.faults.failovers += c.failovers;
    }
    if (traced_engine->supervisor) {
      for (const auto& st : traced_engine->supervisor->status()) {
        li.quarantines += static_cast<double>(st.quarantines);
        li.routed_around += static_cast<double>(st.routed_around);
        li.lazy_prepares += static_cast<double>(st.lazy_prepares);
      }
    }
    li.product_us = backend_product_us(rng, tally);
    li.hw_products_per_kem = static_cast<double>(side.products);
    li.hw_cycles_per_product =
        ratio(static_cast<double>(side.cycles), static_cast<double>(side.products));
    li.fail_ratio = ratio(static_cast<double>(tally.failed()),
                          static_cast<double>(tally.attempted()));
    report.metrics = layer_metrics(idx, li);
    write_trace(opts, idx, report);
  }
  report.details.emplace_back("output_digest", json_string(outputs.hex()));
  report.details.emplace_back("recovered_items", std::to_string(recovered));
  if (engine->injector) {
    // checked_batch exists to run the checks, retries and failover: a run in
    // which no injected fault fired, or none was recovered, measured a
    // fault-free supervised batch instead.
    const auto fired = engine->injector->activations().size();
    report.details.emplace_back("faults_fired", std::to_string(fired));
    tally.invariant(fired > 0, "no injected fault fired");
    tally.invariant(recovered > 0, "no item was recovered from an injected fault");
  }
  finish_report(report, tally);
  return report;
}

}  // namespace

Report run_workload(const Options& opts) {
  if (opts.workload == "single_op") return run_sequential(opts, false);
  if (opts.workload == "hw_sim") return run_sequential(opts, true);
  if (opts.workload == "batch_server") return run_batch(opts, false);
  if (opts.workload == "checked_batch") return run_batch(opts, true);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace kembench
