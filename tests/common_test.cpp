// Unit tests for the common utilities: bit manipulation, RNG, hex codec,
// contract checking.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/zeroize.hpp"

namespace saber {
namespace {

TEST(Bits, Mask64) {
  EXPECT_EQ(mask64(0), 0u);
  EXPECT_EQ(mask64(1), 1u);
  EXPECT_EQ(mask64(13), 0x1fffu);
  EXPECT_EQ(mask64(63), 0x7fffffffffffffffULL);
  EXPECT_EQ(mask64(64), ~u64{0});
  EXPECT_THROW(mask64(65), ContractViolation);
}

TEST(Bits, BitField) {
  EXPECT_EQ(bit_field(0xabcd, 15, 8), 0xabu);
  EXPECT_EQ(bit_field(0xabcd, 7, 0), 0xcdu);
  EXPECT_EQ(bit_field(0xabcd, 3, 0), 0xdu);
  EXPECT_EQ(bit_field(~u64{0}, 63, 0), ~u64{0});
  EXPECT_THROW(bit_field(0, 3, 4), ContractViolation);
}

TEST(Bits, BitAt) {
  EXPECT_EQ(bit_at(0b1010, 1), 1u);
  EXPECT_EQ(bit_at(0b1010, 0), 0u);
  EXPECT_EQ(bit_at(u64{1} << 63, 63), 1u);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xf, 4), -1);
  EXPECT_EQ(sign_extend(0x7, 4), 7);
  EXPECT_EQ(sign_extend(0x8, 4), -8);
  EXPECT_EQ(sign_extend(0x1fff, 13), -1);
  EXPECT_EQ(sign_extend(0x0fff, 13), 4095);
  EXPECT_EQ(sign_extend(0, 13), 0);
}

TEST(Bits, TwosComplementRoundTrip) {
  for (unsigned bits : {4u, 13u, 16u}) {
    const i64 half = i64{1} << (bits - 1);
    for (i64 v = -half; v < half; v += std::max<i64>(1, half / 37)) {
      EXPECT_EQ(sign_extend(to_twos_complement(v, bits), bits), v)
          << "bits=" << bits << " v=" << v;
    }
  }
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div<u32>(0, 4), 0u);
  EXPECT_EQ(ceil_div<u32>(1, 4), 1u);
  EXPECT_EQ(ceil_div<u32>(4, 4), 1u);
  EXPECT_EQ(ceil_div<u32>(5, 4), 2u);
  EXPECT_EQ(ceil_div<std::size_t>(256 * 13, 64), 52u);  // public poly in words
}

TEST(Bits, Parity) {
  EXPECT_EQ(parity(0), 0u);
  EXPECT_EQ(parity(1), 1u);
  EXPECT_EQ(parity(0b1011), 1u);
  EXPECT_EQ(parity(0b1001), 0u);
}

TEST(Hex, RoundTrip) {
  const std::vector<u8> data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "0001abff10");
  EXPECT_EQ(from_hex("0001abff10"), data);
  EXPECT_EQ(from_hex("0001ABFF10"), data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), ContractViolation);
  EXPECT_THROW(from_hex("zz"), ContractViolation);
}

TEST(Rng, Deterministic) {
  Xoshiro256StarStar a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, FillCoversAllBytes) {
  Xoshiro256StarStar rng(7);
  std::vector<u8> buf(4096, 0);
  rng.fill(buf);
  std::set<u8> seen(buf.begin(), buf.end());
  // 4096 bytes from a uniform source hit nearly all 256 values.
  EXPECT_GT(seen.size(), 200u);
}

TEST(Rng, UniformBound) {
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(13), 13u);
  }
  EXPECT_THROW(rng.uniform(0), ContractViolation);
}

TEST(Rng, UniformRangeHitsEndpoints) {
  Xoshiro256StarStar rng(2);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.uniform_range(-4, 4);
    EXPECT_GE(v, -4);
    EXPECT_LE(v, 4);
    lo |= v == -4;
    hi |= v == 4;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Check, ThrowsWithLocation) {
  try {
    SABER_REQUIRE(false, "the message");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("common_test.cpp"), std::string::npos);
  }
}

TEST(Zeroize, SpanWipesEveryElement) {
  // Word elements take the per-element store, structs the byte loop; both
  // must clear the whole span and nothing past it.
  std::vector<i64> words(130, -1);
  secure_zeroize(std::span<i64>(words).first(129));
  for (std::size_t i = 0; i < 129; ++i) EXPECT_EQ(words[i], 0) << i;
  EXPECT_EQ(words[129], -1);

  struct Pair {
    u8 a;
    u16 b;
  };
  std::vector<Pair> pairs(3, Pair{0xAA, 0xBBBB});
  secure_zeroize(std::span<Pair>(pairs).first(2));
  EXPECT_EQ(pairs[0].a, 0);
  EXPECT_EQ(pairs[1].b, 0);
  EXPECT_EQ(pairs[2].a, 0xAA);
  EXPECT_EQ(pairs[2].b, 0xBBBB);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<unsigned>> counts(n);
  pool.run(n, [&](unsigned, std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1u);
}

TEST(ThreadPool, BackToBackRunsWithChangingSizes) {
  // Regression for two races in the run() handshake: a done-notification
  // landing between the waiter's predicate check and its block (lost wakeup
  // = hang), and a worker still draining job G touching the counters/job of
  // G+1 (double-executed or skipped indices). Tiny jobs immediately followed
  // by larger ones maximize both windows.
  ThreadPool pool(4);
  const std::size_t sizes[] = {1, 32, 2, 57, 3, 128};
  for (std::size_t round = 0; round < 300; ++round) {
    const std::size_t n = sizes[round % std::size(sizes)];
    std::vector<std::atomic<unsigned>> counts(n);
    pool.run(n, [&](unsigned, std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(counts[i].load(), 1u) << "round=" << round << " i=" << i;
    }
  }
}

TEST(ThreadPool, RunCaptureMapsExceptionsToTheirIndices) {
  ThreadPool pool(4);
  const std::size_t n = 64;
  std::vector<std::atomic<unsigned>> counts(n);
  const auto errors = pool.run_capture(n, [&](unsigned, std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
    if (i % 5 == 0) throw std::runtime_error("boom " + std::to_string(i));
  });
  ASSERT_EQ(errors.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(counts[i].load(), 1u) << i;  // a throwing task still ran
    if (i % 5 == 0) {
      ASSERT_TRUE(errors[i]) << i;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(i));
      }
    } else {
      EXPECT_FALSE(errors[i]) << i;
    }
  }
}

TEST(ThreadPool, RunRethrowsLowestIndexAfterBatchCompletes) {
  ThreadPool pool(3);
  const std::size_t n = 40;
  std::vector<std::atomic<unsigned>> counts(n);
  try {
    pool.run(n, [&](unsigned, std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 7 || i == 23) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected run() to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task 7");
  }
  // Failure isolation: every other index still executed exactly once.
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1u) << i;
}

TEST(ThreadPool, ThrowingTasksDoNotPoisonTheHandshake) {
  // Stress the exception path the way BackToBackRunsWithChangingSizes
  // stresses the clean path: alternating throwing and clean rounds must not
  // hang, leak a handshake generation, or corrupt later rounds.
  ThreadPool pool(4);
  const std::size_t sizes[] = {1, 32, 2, 57, 3, 128};
  for (std::size_t round = 0; round < 150; ++round) {
    const std::size_t n = sizes[round % std::size(sizes)];
    std::vector<std::atomic<unsigned>> counts(n);
    const bool throwing = round % 2 == 0;
    const auto errors = pool.run_capture(n, [&](unsigned, std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
      if (throwing && i % 3 == 0) throw std::bad_alloc();
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(counts[i].load(), 1u) << "round=" << round << " i=" << i;
      ASSERT_EQ(static_cast<bool>(errors[i]), throwing && i % 3 == 0)
          << "round=" << round << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace saber
