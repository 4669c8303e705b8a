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
//  * The NTT works on u32 residues mod one or two 31-bit primes: butterflies
//    multiply by public twiddles with Shoup's method, the pointwise product
//    is Montgomery's, and a centered reduce mod p1 (one prime) or a CRT (two
//    primes) lifts the residues back to Z. Each is checked against plain
//    u64/u128 arithmetic per prime, and the transforms against a direct
//    O(N^2) evaluation of the negacyclic NTT definition.
//  * The high-speed cores apply one broadcast coefficient to a whole row of
//    MACs at once (hw::mac_row) and read their secret shift register as a
//    window into [-s, s] (hw::SecretWindow). Both are checked against the
//    scalar per-MAC loop and per-broadcast register shift they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "conformance_env.hpp"
#include "hw/mac.hpp"
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

// --- Shoup, Montgomery and CRT arithmetic ----------------------------------------

TEST(KernelEquivalence, ShoupMulmodMatchesU128Reference) {
  const auto& tables = mult::ntt_tables();
  const u64 base = base_seed();
  for (const auto& t : tables.primes) {
    const u32 p = t.p;
    std::vector<u32> residues = {0, 1, 2, p - 2, p - 1, t.n_inv_mont.w};
    std::vector<u32> multipliers = residues;
    multipliers.insert(multipliers.end(), t.zetas.begin(), t.zetas.end());
    multipliers.insert(multipliers.end(), t.zetas_inv.begin(), t.zetas_inv.end());
    // Shoup's bound holds for any a < 2^32, not only for reduced residues.
    residues.push_back(~u32{0});
    for (std::size_t iter = 0; iter < iterations(); ++iter) {
      Xoshiro256StarStar rng(iter_seed(base, iter) ^ 0x5A0ULL ^ p);
      for (int k = 0; k < 64; ++k) residues.push_back(static_cast<u32>(rng.uniform(p)));
    }
    for (const u32 w : multipliers) {
      const mult::Twiddle tw = mult::ntt_twiddle(w, p);
      ASSERT_EQ(tw.w, w);
      ASSERT_EQ(tw.shoup, static_cast<u32>((u128{w} << 32) / p));
      for (const u32 a : residues) {
        ASSERT_EQ(mult::ntt_mulmod_shoup_g(a, tw, p), mult::mulmod(a, w, p))
            << a << " * " << w << " mod " << p;
      }
    }
  }
}

TEST(KernelEquivalence, MontgomeryMulmodMatchesU64Reference) {
  const u64 base = base_seed();
  for (const auto& t : mult::ntt_tables().primes) {
    const u32 p = t.p;
    ASSERT_EQ(static_cast<u32>(p * t.p_neg_inv), ~u32{0});  // p * (-p^-1) = -1
    const u64 r_inv = mult::invmod_prime((u64{1} << 32) % p, p);
    std::vector<u32> residues = {0, 1, 2, p - 2, p - 1};
    for (std::size_t iter = 0; iter < iterations(); ++iter) {
      Xoshiro256StarStar rng(iter_seed(base, iter) ^ 0x3047ULL ^ p);
      for (int k = 0; k < 32; ++k) residues.push_back(static_cast<u32>(rng.uniform(p)));
    }
    for (const u32 a : residues) {
      for (const u32 b : residues) {
        const u64 want = u64{a} * b % p * r_inv % p;
        ASSERT_EQ(mult::ntt_mulmod_mont_g(a, b, p, t.p_neg_inv), want)
            << a << " * " << b << " mod " << p;
      }
    }
  }
}

TEST(KernelEquivalence, CrtLiftMatchesInt128Reference) {
  __extension__ using i128 = __int128;
  const auto& t = mult::ntt_tables();
  const i64 half = static_cast<i64>(u64{mult::kNttPrimes[0]} * mult::kNttPrimes[1] / 2);
  std::vector<i64> values = {0, 1, -1, half - 1, -(half - 1), half, -half};
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    Xoshiro256StarStar rng(iter_seed(base, iter) ^ 0xC47ULL);
    for (int k = 0; k < 256; ++k) {
      values.push_back(static_cast<i64>(rng.uniform(2 * static_cast<u64>(half) + 1)) -
                       half);
    }
  }
  for (const i64 v : values) {
    std::array<u32, 2> r{};
    for (std::size_t k = 0; k < r.size(); ++k) {
      const i128 p = mult::kNttPrimes[k];
      r[k] = static_cast<u32>(((i128{v} % p) + p) % p);
    }
    ASSERT_EQ(mult::ntt_crt_lift_g(r[0], r[1], t), v) << v;
  }
}

TEST(KernelEquivalence, CenteredReduceMatchesInt128Reference) {
  // The one-prime lift: a residue mod p1 back to [-(p1-1)/2, (p1-1)/2].
  __extension__ using i128 = __int128;
  const u32 p = mult::kNttPrimes[0];
  const i64 half = (p - 1) / 2;
  std::vector<i64> values = {0, 1, -1, half, -half, half - 1, -(half - 1)};
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    Xoshiro256StarStar rng(iter_seed(base, iter) ^ 0xCE7ULL);
    for (int k = 0; k < 256; ++k) {
      values.push_back(static_cast<i64>(rng.uniform(2 * static_cast<u64>(half) + 1)) -
                       half);
    }
  }
  for (const i64 v : values) {
    const auto r = static_cast<u32>(((i128{v} % p) + p) % p);
    ASSERT_EQ(mult::ntt_center_g(r, p), v) << v;
  }
}

// --- transforms ------------------------------------------------------------------

constexpr unsigned brv8(unsigned x) {
  unsigned r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 1) | ((x >> i) & 1u);
  return r;
}

/// Direct evaluation of the negacyclic NTT mod p in the kernel's output
/// order: slot i holds A(psi^(2*brv8(i)+1)) for the primitive 2N-th root psi.
/// `inverse` evaluates the inverse map instead (the conjugate roots), scaled
/// by N^-1 * 2^32 as the kernel's is. Plain u128 arithmetic, no butterflies.
std::array<u32, ring::kN> ntt_reference(const std::array<u32, ring::kN>& v, u64 p,
                                        bool inverse) {
  constexpr std::size_t n = ring::kN;
  const u64 psi = mult::powmod(mult::NttMultiplier::kGenerator, (p - 1) / (2 * n), p);
  std::array<u64, 2 * n> pow{};  // psi^k, k < 2N (psi^2N = 1)
  pow[0] = 1;
  for (std::size_t k = 1; k < 2 * n; ++k) pow[k] = mult::mulmod(pow[k - 1], psi, p);
  const u64 scale = mult::mulmod(mult::invmod_prime(n, p), (u64{1} << 32) % p, p);
  std::array<u32, n> out{};
  for (std::size_t i = 0; i < n; ++i) {
    u64 acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      // Forward: out[i] = sum_j v[j] psi^(e_i j). Inverse: out[j] = N^-1
      // sum_i v[i] psi^(-e_i j); evaluated here with the roles of i and j
      // swapped so `i` still indexes the output.
      const std::size_t e = inverse ? (2 * brv8(static_cast<unsigned>(j)) + 1) * i
                                    : (2 * brv8(static_cast<unsigned>(i)) + 1) * j;
      const std::size_t k = inverse ? (2 * n - e % (2 * n)) % (2 * n) : e % (2 * n);
      acc = mult::addmod(acc, mult::mulmod(v[j], pow[k], p), p);
    }
    out[i] = static_cast<u32>(inverse ? mult::mulmod(acc, scale, p) : acc);
  }
  return out;
}

TEST(KernelEquivalence, ShoupNttMatchesDirectEvaluation) {
  const u64 base = base_seed();
  for (const auto& t : mult::ntt_tables().primes) {
    const u32 p = t.p;
    for (std::size_t iter = 0; iter < iterations(); ++iter) {
      const u64 seed = iter_seed(base, iter) ^ 0x1177ULL ^ p;
      Xoshiro256StarStar rng(seed);
      std::vector<std::array<u32, ring::kN>> inputs(3);
      inputs[1].fill(p - 1);
      for (auto& x : inputs[2]) x = static_cast<u32>(rng.uniform(p));
      // Pin the residues at the edges of the reduction window in every slot class.
      for (std::size_t i = 0; i < 8; ++i) {
        inputs[2][rng.uniform(ring::kN)] = 0;
        inputs[2][rng.uniform(ring::kN)] = 1;
        inputs[2][rng.uniform(ring::kN)] = p - 1;
        inputs[2][rng.uniform(ring::kN)] = p - 2;
      }
      for (const auto& in : inputs) {
        auto fwd = in;
        mult::ntt_forward_g(fwd, t);
        ASSERT_EQ(fwd, ntt_reference(in, p, false))
            << "forward mod " << p << " (seed 0x" << std::hex << seed << ")";

        auto inv = in;
        mult::ntt_inverse_g(inv, t);
        ASSERT_EQ(inv, ntt_reference(in, p, true))
            << "inverse mod " << p << " (seed 0x" << std::hex << seed << ")";

        // Through the Montgomery domain (times the image of 1, which is 1 in
        // every slot), forward then inverse is the identity.
        for (auto& x : fwd) x = mult::ntt_mulmod_mont_g(x, u32{1}, p, t.p_neg_inv);
        mult::ntt_inverse_g(fwd, t);
        ASSERT_EQ(fwd, in) << "round trip mod " << p;
      }
    }
  }
}

// --- MAC row ---------------------------------------------------------------------

TEST(KernelEquivalence, ShiftAddMultipleIsLowBitsProduct) {
  constexpr unsigned kQ = 13;
  for (u32 a = 0; a < (u32{1} << kQ); ++a) {
    for (unsigned m = 0; m <= 5; ++m) {
      ASSERT_EQ(low_bits(u64{a} * m, kQ), hw::shift_add_multiple(static_cast<u16>(a), m, kQ))
          << a << " * " << m;
    }
  }
}

using Lanes = std::array<u16, ring::kN>;
using SecretLanes = std::array<i8, ring::kN>;

/// The per-broadcast negacyclic shift of the secret register (b <- b * x)
/// that hw::SecretWindow replaced.
void shift_secret_serial(SecretLanes& b) {
  const i8 last = b[ring::kN - 1];
  for (std::size_t j = ring::kN - 1; j > 0; --j) b[j] = b[j - 1];
  b[0] = static_cast<i8>(-last);
}

/// The per-MAC loop hw::mac_row replaced: the MultipleSet select mux with its
/// top input saturating, then the MAC step, with the two fault sites.
void mac_row_serial(Lanes& acc, const SecretLanes& b, u16 a, unsigned max_mag,
                    hw::FaultHook* hook) {
  constexpr unsigned kQ = 13;
  const hw::MultipleSet multiples(a, kQ, max_mag);
  for (std::size_t j = 0; j < ring::kN; ++j) {
    const int sj = b[j];
    const unsigned raw_mag = static_cast<unsigned>(sj < 0 ? -sj : sj);
    u16 multiple = multiples.select(raw_mag > max_mag ? max_mag : raw_mag);
    if (hook != nullptr) {
      multiple = static_cast<u16>(low_bits(hook->on_small_mult(multiple, kQ), kQ));
    }
    acc[j] = hw::mac_accumulate(acc[j], multiple, sj < 0, kQ, hook);
  }
}

/// Flips bit 0 of every 7th value through either site and logs every call,
/// so a result or log mismatch exposes a dropped, extra or reordered site.
class RecordingHook final : public hw::FaultHook {
 public:
  std::vector<std::pair<char, u16>> log;

  u16 on_small_mult(u16 value, unsigned) override { return record('m', value); }
  u16 on_mac_accumulate(u16 value, unsigned) override { return record('a', value); }

 private:
  u16 record(char site, u16 value) {
    log.emplace_back(site, value);
    return log.size() % 7 == 0 ? static_cast<u16>(value ^ 1u) : value;
  }
};

TEST(KernelEquivalence, SecretWindowMatchesNegacyclicShift) {
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    Xoshiro256StarStar rng(iter_seed(base, iter) ^ 0x5E1ULL);
    SecretLanes b{};
    for (auto& x : b) x = static_cast<i8>(static_cast<int>(rng.uniform(17)) - 8);
    const hw::SecretWindow<ring::kN> window(b);
    for (std::size_t shifts = 0; shifts <= ring::kN; ++shifts) {
      const auto view = window.after(shifts);
      ASSERT_TRUE(std::equal(view.begin(), view.end(), b.begin())) << "shifts=" << shifts;
      shift_secret_serial(b);
    }
  }
}

TEST(KernelEquivalence, MacRowMatchesScalarReference) {
  constexpr unsigned kQ = 13;
  hw::FaultHook identity;
  const u64 base = base_seed();
  for (std::size_t iter = 0; iter < iterations(); ++iter) {
    const u64 seed = iter_seed(base, iter) ^ 0x3ACULL;
    Xoshiro256StarStar rng(seed);
    for (const unsigned max_mag : {4u, 5u}) {
      // Secrets up to +-8 (a 4-bit nibble), so the clamp saturates; every
      // magnitude and sign also appears at a fixed lane.
      SecretLanes b{};
      for (auto& x : b) x = static_cast<i8>(static_cast<int>(rng.uniform(17)) - 8);
      for (int v = -8; v <= 8; ++v) b[static_cast<std::size_t>(v + 8)] = static_cast<i8>(v);
      const hw::SecretWindow<ring::kN> window(b);
      for (std::size_t shifts = 0; shifts < ring::kN; ++shifts) {
        const u64 pick = rng.uniform(8);
        const u16 a = static_cast<u16>(pick == 0 ? 0 : pick == 1 ? mask64(kQ)
                                                                 : rng.uniform(u64{1} << kQ));
        Lanes acc{};
        for (auto& x : acc) x = static_cast<u16>(rng.uniform(u64{1} << kQ));

        Lanes want = acc;
        mac_row_serial(want, b, a, max_mag, nullptr);
        Lanes plain = acc;
        hw::mac_row<false, ring::kN>(plain, window.after(shifts), a, max_mag, kQ, nullptr);
        ASSERT_EQ(plain, want) << "hook-free, max_mag=" << max_mag << " shifts=" << shifts
                               << " (seed 0x" << std::hex << seed << ")";
        Lanes hooked = acc;
        hw::mac_row<true, ring::kN>(hooked, window.after(shifts), a, max_mag, kQ, &identity);
        ASSERT_EQ(hooked, want) << "identity hook, max_mag=" << max_mag << " shifts=" << shifts
                                << " (seed 0x" << std::hex << seed << ")";

        // A hook that corrupts values sees the same sites in the same order.
        RecordingHook want_hook, got_hook;
        Lanes want_faulty = acc;
        mac_row_serial(want_faulty, b, a, max_mag, &want_hook);
        Lanes got_faulty = acc;
        hw::mac_row<true, ring::kN>(got_faulty, window.after(shifts), a, max_mag, kQ,
                                    &got_hook);
        ASSERT_EQ(got_faulty, want_faulty) << "shifts=" << shifts;
        ASSERT_EQ(got_hook.log, want_hook.log) << "shifts=" << shifts;
        ASSERT_EQ(got_hook.log.size(), 2 * ring::kN);

        shift_secret_serial(b);
      }
    }
  }
}

}  // namespace
}  // namespace saber
