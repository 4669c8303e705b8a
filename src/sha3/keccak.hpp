// Keccak-f[1600] permutation and the generic sponge construction underlying
// SHA-3 and SHAKE (FIPS 202). Implemented from the specification.
//
// Both the permutation and the sponge are templated over the byte/lane word
// type. Keccak is naturally constant-time — every operation is xor/and/not/
// rotate-by-constant and all positions (rate, rho offsets, pi lane shuffle)
// are public — so one permutation body, keccak_f1600_g, serves every word:
//   - ct::Tainted<u64>: the secret-independence audit, where a secret seed
//     taints the entire state and hence everything squeezed from it;
//   - u64x4: four independent states at once, which SpongeX4 uses to hash
//     four equal-length inputs in lockstep;
//   - SingleStreamLane: the word BasicSponge<u8> holds and permutes its one
//     state in. It is u64x2 (both lanes carry the same state, lane 0 is read)
//     when the build targets AVX-512VL, and plain u64 otherwise. With
//     AVX-512VL the two-lane body compiles to vprolq/vpternlogq over 32
//     vector registers and beats the u64 body; without it (plain x86-64 or
//     -mavx2) the vector word is the slower of the two (EXPERIMENTS.md,
//     E-keccak1). The choice is made at compile time only.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <type_traits>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/zeroize.hpp"
#include "ct/tainted.hpp"

namespace saber::sha3 {

/// 1600-bit Keccak state: 25 lanes of 64 bits, lane (x, y) at index x + 5*y.
template <typename L>
using KeccakStateT = std::array<L, 25>;
using KeccakState = KeccakStateT<u64>;

namespace detail {

// Round constants (FIPS 202 §3.2.5).
inline constexpr u64 kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// Rotation offsets for rho, indexed x + 5*y (FIPS 202 §3.2.2).
inline constexpr unsigned kRho[25] = {
    0,  1,  62, 28, 27,  //
    36, 44, 6,  55, 20,  //
    3,  10, 43, 25, 39,  //
    41, 45, 15, 21, 8,   //
    18, 2,  61, 56, 14,
};

}  // namespace detail

/// Apply the full 24-round Keccak-f[1600] permutation in place (lane-generic).
template <typename L>
void keccak_f1600_g(KeccakStateT<L>& a) {
  for (int round = 0; round < 24; ++round) {
    // theta
    L c[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = a[static_cast<std::size_t>(x)] ^ a[static_cast<std::size_t>(x + 5)] ^
             a[static_cast<std::size_t>(x + 10)] ^ a[static_cast<std::size_t>(x + 15)] ^
             a[static_cast<std::size_t>(x + 20)];
    }
    L d[5];
    for (int x = 0; x < 5; ++x) {
      d[x] = c[(x + 4) % 5] ^ ct::rotl_g(c[(x + 1) % 5], 1);
    }
    for (int y = 0; y < 5; ++y) {
      for (int x = 0; x < 5; ++x) {
        a[static_cast<std::size_t>(x + 5 * y)] ^= d[x];
      }
    }

    // rho + pi: b[y, 2x+3y] = rotl(a[x, y], rho[x, y])
    L b[25];
    for (int y = 0; y < 5; ++y) {
      for (int x = 0; x < 5; ++x) {
        const int src = x + 5 * y;
        const int dst = y + 5 * ((2 * x + 3 * y) % 5);
        b[dst] = ct::rotl_g(a[static_cast<std::size_t>(src)], detail::kRho[src]);
      }
    }

    // chi
    for (int y = 0; y < 5; ++y) {
      for (int x = 0; x < 5; ++x) {
        a[static_cast<std::size_t>(x + 5 * y)] =
            b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
      }
    }

    // iota
    a[0] ^= detail::kRoundConstants[round];
  }
}

/// The word the single-stream sponge runs its state in (see the file
/// comment): the two-lane vector word only where AVX-512VL makes it faster.
#if defined(__AVX512VL__)
using SingleStreamLane = u64x2;
#else
using SingleStreamLane = u64;
#endif

/// Plain-lane entry point (the original API).
void keccak_f1600(KeccakState& state);

/// Four states in lockstep: element j of every lane word is state j.
void keccak_f1600_x4(KeccakStateT<u64x4>& state);

/// Generic sponge with byte-granular absorb/squeeze over byte word type B,
/// moving whole 8-byte lanes whenever the position is lane-aligned.
///
/// `rate_bytes` is the block size (e.g. 136 for SHA3-256 / SHAKE-256, 168 for
/// SHAKE-128, 72 for SHA3-512); `domain` is the padding domain-separation
/// byte (0x06 for SHA-3, 0x1f for SHAKE). All absorb/squeeze positions are
/// byte counters — public by construction.
template <typename B = u8>
class BasicSponge {
 public:
  using Lane = ct::rebind_t<B, u64>;
  /// The word the state is held and permuted in: SingleStreamLane for plain
  /// bytes, Lane itself for Tainted ones. A u64 xored into a vector word goes
  /// into every lane, so all lanes carry the same state.
  using Word = std::conditional_t<std::is_same_v<Lane, u64>, SingleStreamLane, Lane>;

  BasicSponge(std::size_t rate_bytes, u8 domain) : rate_(rate_bytes), domain_(domain) {
    SABER_REQUIRE(rate_bytes > 0 && rate_bytes < 200 && rate_bytes % 8 == 0,
                  "sponge rate must be a positive multiple of 8 below 200");
  }

  /// The state may derive from secret input (SHA3-512 over m || H(pk), SHAKE
  /// over a secret seed): it is wiped before the storage is released. It is
  /// permuted in place, so no copy of it outlives the sponge. The positions
  /// are public counters.
  ~BasicSponge() { secure_zeroize(std::span<Word>(state_)); }

  /// Absorb more message bytes. Must not be called after finalize().
  /// Whenever the sponge position is lane-aligned and eight bytes remain,
  /// a whole lane is xored in at once; the rate is a multiple of 8, so an
  /// aligned lane never straddles a block boundary.
  void absorb(std::span<const B> data) {
    SABER_REQUIRE(!finalized_, "absorb after finalize");
    std::size_t i = 0;
    while (i < data.size()) {
      if (absorb_pos_ % 8 == 0 && data.size() - i >= 8) {
        Lane lane = ct::cast<u64>(data[i]);
        for (unsigned k = 1; k < 8; ++k) {
          lane = lane | (ct::cast<u64>(data[i + k]) << (8 * k));
        }
        state_[absorb_pos_ / 8] ^= lane;
        i += 8;
        absorb_pos_ += 8;
      } else {
        state_[absorb_pos_ / 8] ^= ct::cast<u64>(data[i]) << (8 * (absorb_pos_ % 8));
        ++i;
        ++absorb_pos_;
      }
      if (absorb_pos_ == rate_) {
        permute_block();
        absorb_pos_ = 0;
      }
    }
  }

  /// Apply padding and switch to the squeezing phase.
  void finalize() {
    SABER_REQUIRE(!finalized_, "double finalize");
    // Multi-rate padding: domain byte at the current position, 0x80 at the
    // end of the block (they coincide when absorb_pos_ == rate_ - 1).
    state_[absorb_pos_ / 8] ^= u64{domain_} << (8 * (absorb_pos_ % 8));
    state_[(rate_ - 1) / 8] ^= u64{0x80} << (8 * ((rate_ - 1) % 8));
    permute_block();
    finalized_ = true;
    squeeze_pos_ = 0;
  }

  /// Squeeze output bytes; implicitly finalizes on first call. Lane-aligned
  /// runs of eight bytes are written from one lane at once.
  void squeeze(std::span<B> out) {
    if (!finalized_) finalize();
    std::size_t i = 0;
    while (i < out.size()) {
      if (squeeze_pos_ == rate_) {
        permute_block();
        squeeze_pos_ = 0;
      }
      const Lane lane = lane0(state_[squeeze_pos_ / 8]);
      if (squeeze_pos_ % 8 == 0 && out.size() - i >= 8) {
        for (unsigned k = 0; k < 8; ++k) out[i + k] = ct::cast<u8>(lane >> (8 * k));
        i += 8;
        squeeze_pos_ += 8;
      } else {
        out[i] = ct::cast<u8>(lane >> (8 * (squeeze_pos_ % 8)));
        ++i;
        ++squeeze_pos_;
      }
    }
  }

  /// Reset to the empty-message state (same rate/domain).
  void reset() {
    state_.fill(Word{});
    absorb_pos_ = 0;
    squeeze_pos_ = 0;
    finalized_ = false;
  }

  std::size_t rate_bytes() const { return rate_; }

 private:
  void permute_block() { keccak_f1600_g(state_); }

  static Lane lane0(const Word& w) {
    if constexpr (is_u64xN_v<Word>) {
      return w.v[0];
    } else {
      return w;
    }
  }

  KeccakStateT<Word> state_{};
  std::size_t rate_;
  u8 domain_;
  std::size_t absorb_pos_ = 0;
  std::size_t squeeze_pos_ = 0;
  bool finalized_ = false;
};

using Sponge = BasicSponge<u8>;

/// Four sponges in lockstep over one u64x4 Keccak state, the "times4" layout
/// of XKCP: lane word w of sponge j is element j of state word w. It absorbs
/// one whole message per sponge, all four of equal length, padded exactly as
/// BasicSponge::finalize pads, then squeezes whole blocks: every squeeze call
/// starts at a block boundary and permutes before each block after the first.
/// Byte-granular streaming stays BasicSponge's job. Every position is a
/// public counter, and the state is wiped on destruction.
class SpongeX4 {
 public:
  static constexpr std::size_t kLanes = 4;
  template <typename T>
  using Lanes = std::array<T, kLanes>;

  SpongeX4(std::size_t rate_bytes, u8 domain);
  ~SpongeX4();
  SpongeX4(const SpongeX4&) = delete;
  SpongeX4& operator=(const SpongeX4&) = delete;

  /// Absorb and pad in[j] into sponge j. Called once, before any squeeze.
  void absorb(const Lanes<std::span<const u8>>& in);

  /// Fill out[j] from sponge j, ceil(size / rate) blocks of equal-length
  /// outputs; the last block is cut to size.
  void squeeze(const Lanes<std::span<u8>>& out);

 private:
  KeccakStateT<u64x4> state_{};
  /// The last, padded input block in state words, zero outside absorb():
  /// wiped right after use with one store per word. Sits after state_.
  KeccakStateT<u64x4> tail_{};
  std::size_t rate_;
  u8 domain_;
  bool absorbed_ = false;
  bool fresh_ = false;  ///< the state holds a block not yet squeezed
};

}  // namespace saber::sha3
