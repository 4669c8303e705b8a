// Equivalence of the word-at-a-time kernels against bit-serial and u128
// references, as part of the randomized conformance suite (ctest -L
// conformance; SABER_CONFORMANCE_ITERS / SABER_CONFORMANCE_SEED set the
// budget and replay seed, see conformance_env.hpp).
//
//  * The byte-stream codecs (ring::pack_bits / unpack_bits) and the CBD
//    sampler move a whole value or a whole group of coefficients per step.
//    The oracles below are test-only copies of the bit-serial loops they
//    replaced, which moved one bit per step. Every width 1..16 and every
//    value count 0..2N is swept on buffers exactly bytes_for() long, so a
//    tail over-read lands outside the allocation (the asan-ubsan leg of
//    scripts/run_all.sh turns that into a failure).
//  * The NTT butterflies multiply by public twiddles with Shoup's method on
//    top of the ct::mul_hi_g primitive. Both are checked against plain u128
//    arithmetic, and the transforms against a direct O(N^2) evaluation of
//    the negacyclic NTT definition.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "conformance_env.hpp"
#include "ct/tainted.hpp"
#include "mult/modmath.hpp"
#include "mult/ntt.hpp"
#include "ring/packing.hpp"
#include "saber/sampler.hpp"

namespace saber {
namespace {

using conformance::base_seed;
using conformance::iter_seed;
using conformance::iterations;
using mult::u128;

constexpr u64 kP = mult::kNttPrime;

// --- bit-serial oracles ------------------------------------------------------

std::vector<u8> pack_bits_serial(std::span<const u16> values, unsigned bits) {
  std::vector<u8> out(ring::bytes_for(values.size(), bits), 0);
  std::size_t bitpos = 0;
  for (const u16 v : values) {
    for (unsigned b = 0; b < bits; ++b, ++bitpos) {
      out[bitpos / 8] =
          static_cast<u8>(out[bitpos / 8] | (((v >> b) & 1u) << (bitpos % 8)));
    }
  }
  return out;
}

std::vector<u16> unpack_bits_serial(std::span<const u8> data, unsigned bits,
                                    std::size_t count) {
  std::vector<u16> values(count);
  std::size_t bitpos = 0;
  for (auto& v : values) {
    u32 x = 0;
    for (unsigned b = 0; b < bits; ++b, ++bitpos) {
      x |= ((static_cast<u32>(data[bitpos / 8]) >> (bitpos % 8)) & 1u) << b;
    }
    v = static_cast<u16>(x);
  }
  return values;
}

ring::SecretPoly cbd_sample_serial(std::span<const u8> buf, unsigned mu) {
  ring::SecretPoly s;
  std::size_t bitpos = 0;
  auto weight = [&](unsigned count) {
    int w = 0;
    for (unsigned b = 0; b < count; ++b, ++bitpos) {
      w += (buf[bitpos / 8] >> (bitpos % 8)) & 1;
    }
    return w;
  };
  for (std::size_t i = 0; i < ring::kN; ++i) {
    const int x = weight(mu / 2);
    const int y = weight(mu / 2);
    s[i] = static_cast<i8>(x - y);
  }
  return s;
}

// --- codecs ------------------------------------------------------------------

TEST(KernelEquivalence, PackAndUnpackMatchBitSerialOracle) {
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    const u64 seed = iter_seed(base, iter) ^ 0xC0DECULL;
    Xoshiro256StarStar rng(seed);
    for (unsigned bits = 1; bits <= 16; ++bits) {
      const u64 mask = mask64(bits);
      // Mix uniform values with the extremes 0 and 2^bits - 1.
      std::vector<u16> vals(2 * ring::kN);
      for (auto& v : vals) {
        const u64 pick = rng.uniform(8);
        v = static_cast<u16>(pick == 0 ? 0 : pick == 1 ? mask : rng.uniform(mask + 1));
      }
      for (std::size_t count = 0; count <= vals.size(); ++count) {
        const std::span<const u16> in(vals.data(), count);
        const std::size_t nbytes = ring::bytes_for(count, bits);

        const auto packed = ring::pack_bits(in, bits);
        const auto want = pack_bits_serial(in, bits);
        ASSERT_EQ(packed, want) << "pack bits=" << bits << " count=" << count
                                << " (seed 0x" << std::hex << seed << ")";
        ASSERT_EQ(packed.size(), nbytes);

        // Unpack from an allocation of exactly bytes_for() bytes: once the
        // packed stream, once arbitrary bytes (so the unused high bits of
        // the final byte are set, and must be ignored).
        std::vector<u8> random_bytes(nbytes);
        for (auto& b : random_bytes) b = static_cast<u8>(rng.next_u64());
        for (const std::vector<u8>& data : {packed, random_bytes}) {
          const std::vector<u8> exact(data.begin(), data.end());
          std::vector<u16> got(count);
          ring::unpack_bits(exact, bits, got);
          ASSERT_EQ(got, unpack_bits_serial(exact, bits, count))
              << "unpack bits=" << bits << " count=" << count << " (seed 0x"
              << std::hex << seed << ")";
        }
        std::vector<u16> back(count);
        ring::unpack_bits(packed, bits, back);
        ASSERT_EQ(back, std::vector<u16>(in.begin(), in.end()))
            << "round trip bits=" << bits << " count=" << count;
      }
    }
  }
}

// --- CBD sampler -----------------------------------------------------------------

TEST(KernelEquivalence, CbdMatchesBitSerialOracle) {
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    const u64 seed = iter_seed(base, iter) ^ 0xCBDULL;
    Xoshiro256StarStar rng(seed);
    // mu = 10 / 8 / 6 are LightSaber / Saber / FireSaber; 2 and 4 are the
    // remaining widths the sampler accepts.
    for (const unsigned mu : {2u, 4u, 6u, 8u, 10u}) {
      const std::size_t nbytes = ring::kN * mu / 8;
      std::vector<std::vector<u8>> inputs = {std::vector<u8>(nbytes, 0x00),
                                             std::vector<u8>(nbytes, 0xff),
                                             std::vector<u8>(nbytes, 0x0f)};
      for (int k = 0; k < 4; ++k) {
        std::vector<u8> buf(nbytes);
        for (auto& b : buf) b = static_cast<u8>(rng.next_u64());
        inputs.push_back(std::move(buf));
      }
      for (const auto& buf : inputs) {
        ASSERT_EQ(kem::cbd_sample(buf, mu), cbd_sample_serial(buf, mu))
            << "mu=" << mu << " (seed 0x" << std::hex << seed << ")";
      }
    }
  }
}

// --- high-half multiply and Shoup mulmod -----------------------------------------

u64 mul_hi_ref(u64 a, u64 b) {
  return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
}

TEST(KernelEquivalence, MulHiMatchesU128Reference) {
  const std::vector<u64> edges = {0,           1,          2,      kP - 1,
                                  kP,          u64{1} << 41, u64{1} << 63,
                                  ~u64{0} - 1, ~u64{0}};
  for (const u64 a : edges) {
    for (const u64 b : edges) {
      EXPECT_EQ(ct::mul_hi_g(a, b), mul_hi_ref(a, b)) << a << " * " << b;
    }
  }
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    Xoshiro256StarStar rng(iter_seed(base, iter) ^ 0x41ULL);
    for (int k = 0; k < 1000; ++k) {
      const u64 a = rng.next_u64();
      const u64 b = rng.next_u64();
      ASSERT_EQ(ct::mul_hi_g(a, b), mul_hi_ref(a, b)) << a << " * " << b;
    }
  }
}

TEST(KernelEquivalence, ShoupMulmodMatchesU128Reference) {
  const auto& t = mult::ntt_tables();
  std::vector<u64> residues = {0, 1, 2, kP - 1, kP - 2, u64{1} << 41, (u64{1} << 41) - 1,
                               t.n_inv};
  std::vector<u64> multipliers = residues;
  multipliers.insert(multipliers.end(), t.zetas.begin(), t.zetas.end());
  multipliers.insert(multipliers.end(), t.zetas_inv.begin(), t.zetas_inv.end());
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    Xoshiro256StarStar rng(iter_seed(base, iter) ^ 0x5A0ULL);
    for (int k = 0; k < 64; ++k) residues.push_back(rng.uniform(kP));
  }
  for (const u64 w : multipliers) {
    const u64 w_shoup = mult::ntt_shoup(w);
    ASSERT_EQ(w_shoup, static_cast<u64>((static_cast<u128>(w) << 64) / kP));
    for (const u64 a : residues) {
      ASSERT_EQ(mult::ntt_mulmod_shoup_g(a, w, w_shoup), mult::mulmod(a, w, kP))
          << a << " * " << w;
    }
  }
}

// --- transforms ------------------------------------------------------------------

constexpr unsigned brv8(unsigned x) {
  unsigned r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 1) | ((x >> i) & 1u);
  return r;
}

/// Direct evaluation of the negacyclic NTT in the kernel's output order:
/// slot i holds A(psi^(2*brv8(i)+1)) for the primitive 2N-th root psi.
/// `inverse` evaluates the inverse map instead (the conjugate roots, scaled
/// by N^-1). Plain u128 arithmetic, no butterflies.
std::array<u64, ring::kN> ntt_reference(const std::array<u64, ring::kN>& v, bool inverse) {
  constexpr std::size_t n = ring::kN;
  const u64 psi = mult::powmod(mult::NttMultiplier::kGenerator, (kP - 1) / (2 * n), kP);
  std::array<u64, 2 * n> pow{};  // psi^k, k < 2N (psi^2N = 1)
  pow[0] = 1;
  for (std::size_t k = 1; k < 2 * n; ++k) pow[k] = mult::mulmod(pow[k - 1], psi, kP);
  std::array<u64, n> out{};
  for (std::size_t i = 0; i < n; ++i) {
    u64 acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      // Forward: out[i] = sum_j v[j] psi^(e_i j). Inverse: out[j] = N^-1
      // sum_i v[i] psi^(-e_i j); evaluated here with the roles of i and j
      // swapped so `i` still indexes the output.
      const std::size_t e = inverse ? (2 * brv8(static_cast<unsigned>(j)) + 1) * i
                                    : (2 * brv8(static_cast<unsigned>(i)) + 1) * j;
      const std::size_t k = inverse ? (2 * n - e % (2 * n)) % (2 * n) : e % (2 * n);
      acc = mult::addmod(acc, mult::mulmod(v[j], pow[k], kP), kP);
    }
    out[i] = inverse ? mult::mulmod(acc, mult::invmod_prime(n, kP), kP) : acc;
  }
  return out;
}

TEST(KernelEquivalence, ShoupNttMatchesDirectEvaluation) {
  const auto& t = mult::ntt_tables();
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    const u64 seed = iter_seed(base, iter) ^ 0x1177ULL;
    Xoshiro256StarStar rng(seed);
    std::vector<std::array<u64, ring::kN>> inputs(3);
    inputs[1].fill(kP - 1);
    for (auto& x : inputs[2]) x = rng.uniform(kP);
    // Pin the residues at the edges of the Shoup window in every slot class.
    for (std::size_t i = 0; i < 8; ++i) {
      inputs[2][rng.uniform(ring::kN)] = 0;
      inputs[2][rng.uniform(ring::kN)] = 1;
      inputs[2][rng.uniform(ring::kN)] = kP - 1;
      inputs[2][rng.uniform(ring::kN)] = u64{1} << 41;
    }
    for (const auto& in : inputs) {
      mult::OpCounts ops;
      auto fwd = in;
      mult::ntt_forward_g(fwd, t, ops);
      ASSERT_EQ(fwd, ntt_reference(in, false)) << "forward (seed 0x" << std::hex << seed
                                               << ")";
      EXPECT_EQ(ops.coeff_mults, ring::kN / 2 * 8);
      EXPECT_EQ(ops.coeff_adds, ring::kN * 8);

      mult::OpCounts inv_ops;
      auto inv = in;
      mult::ntt_inverse_g(inv, t, inv_ops);
      ASSERT_EQ(inv, ntt_reference(in, true)) << "inverse (seed 0x" << std::hex << seed
                                              << ")";
      EXPECT_EQ(inv_ops.coeff_mults, ring::kN / 2 * 8 + ring::kN);
      EXPECT_EQ(inv_ops.coeff_adds, ring::kN * 8);

      mult::ntt_inverse_g(fwd, t, inv_ops);
      ASSERT_EQ(fwd, in) << "round trip";
    }
  }
}

}  // namespace
}  // namespace saber
