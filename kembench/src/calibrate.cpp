#include "calibrate.hpp"

#include <array>

#include "trace.hpp"

namespace kembench {
namespace {

using u64 = std::uint64_t;

constexpr u64 rotl(u64 x, unsigned n) { return n == 0 ? x : (x << n) | (x >> (64 - n)); }

constexpr std::array<u64, 24> kRoundConstants = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL, 0x8000000080008000ULL,
    0x000000000000808bULL, 0x0000000080000001ULL, 0x8000000080008081ULL, 0x8000000000008009ULL,
    0x000000000000008aULL, 0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL, 0x8000000000008003ULL,
    0x8000000000008002ULL, 0x8000000000000080ULL, 0x000000000000800aULL, 0x800000008000000aULL,
    0x8000000080008081ULL, 0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

constexpr std::array<unsigned, 25> kRho = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                                           25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};

/// The Keccak-f[1600] permutation, written plainly: the benchmark's own copy,
/// since the library's sha3 module is part of what the operations measure.
void keccak_f(std::array<u64, 25>& a) {
  for (const u64 rc : kRoundConstants) {
    std::array<u64, 5> c{}, d{};
    for (unsigned x = 0; x < 5; ++x) c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    for (unsigned x = 0; x < 5; ++x) d[x] = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
    std::array<u64, 25> b{};
    for (unsigned x = 0; x < 5; ++x) {
      for (unsigned y = 0; y < 5; ++y) {
        const unsigned i = x + 5 * y;
        b[y + 5 * ((2 * x + 3 * y) % 5)] = rotl(a[i] ^ d[x], kRho[i]);
      }
    }
    for (unsigned y = 0; y < 5; ++y) {
      for (unsigned x = 0; x < 5; ++x) {
        a[x + 5 * y] = b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
      }
    }
    a[0] ^= rc;
  }
}

/// The kernel reads its start from a volatile and stores its result to one,
/// so that it can be neither evaluated at compile time nor dropped.
volatile u64 g_start = 0x9e3779b97f4a7c15ULL;
volatile u64 g_result = 0;

constexpr unsigned kN = 256;
constexpr unsigned kPermutations = 16;

}  // namespace

void calibration_kernel() {
  std::array<u64, 25> state{};
  state[0] = g_start;
  for (unsigned i = 0; i < kPermutations; ++i) keccak_f(state);

  // One negacyclic product of 16-bit polynomials modulo x^256 + 1, with
  // operands drawn from the permutation's output.
  std::array<std::uint16_t, kN> a{}, s{};
  std::array<std::uint32_t, kN> acc{};
  for (unsigned i = 0; i < kN; ++i) {
    a[i] = static_cast<std::uint16_t>(state[i % 25] >> (16 * (i % 4)));
    s[i] = static_cast<std::uint16_t>((state[(i + 7) % 25] >> (i % 61)) & 7);
  }
  for (unsigned i = 0; i < kN; ++i) {
    for (unsigned j = 0; j < kN - i; ++j) acc[i + j] += std::uint32_t{a[i]} * s[j];
    for (unsigned j = kN - i; j < kN; ++j) acc[i + j - kN] -= std::uint32_t{a[i]} * s[j];
  }
  u64 digest = state[1];
  for (unsigned i = 0; i < kN; ++i) digest = digest * 31 + (acc[i] & 0x1fff);
  g_result = digest;
}

Calibrator::Calibrator(unsigned threads) : ns_(threads == 0 ? 1 : threads, 0) {
  if (threads <= 1) return;
  for (std::size_t i = 0; i < threads; ++i) crew_.emplace_back([this, i] { crew_main(i); });
}

Calibrator::~Calibrator() {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  start_.notify_all();
  for (auto& t : crew_) t.join();
}

const std::vector<std::int64_t>& Calibrator::run() {
  if (crew_.empty()) {
    const auto t0 = trace::now_ns();
    calibration_kernel();
    ns_[0] = trace::now_ns() - t0;
    return ns_;
  }
  std::unique_lock lock(mu_);
  ++generation_;
  pending_ = crew_.size();
  start_.notify_all();
  done_.wait(lock, [this] { return pending_ == 0; });
  return ns_;
}

void Calibrator::crew_main(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    const auto t0 = trace::now_ns();
    calibration_kernel();
    const auto t1 = trace::now_ns();
    const std::lock_guard lock(mu_);
    ns_[index] = t1 - t0;
    if (--pending_ == 0) done_.notify_one();
  }
}

}  // namespace kembench
