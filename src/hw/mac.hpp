// Functional models of the multiply-and-accumulate datapaths, plus the
// cycle/power accounting records shared by every architecture model.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "hw/fault_hook.hpp"

namespace saber::hw {

/// Coefficient-wise shift-and-add multiplier (Algorithm 2 of the paper):
/// computes a * mag mod 2^qbits for a small magnitude using only shifts and
/// one addition — the multiplier inside each MAC of the [10] baseline.
/// Magnitudes up to 5 are supported (LightSaber needs 5; the paper's Alg. 2
/// targets Saber's 0..4).
u16 shift_add_multiple(u16 a, unsigned mag, unsigned qbits);

/// The centralized multiple generator of §3.1: all multiples
/// {0, a, 2a, 3a, 4a, 5a} computed once and broadcast to every MAC, which
/// then only needs a multiplexer (select by |s|) and an add/sub (by sign).
class MultipleSet {
 public:
  MultipleSet() = default;
  MultipleSet(u16 a, unsigned qbits, unsigned max_mag = 4);

  /// Multiple selected by the secret magnitude (the MAC-internal mux).
  u16 select(unsigned mag) const {
    SABER_REQUIRE(mag <= max_mag_, "magnitude outside precomputed set");
    return multiples_[mag];
  }

  unsigned max_mag() const { return max_mag_; }

 private:
  std::array<u16, 6> multiples_{};
  unsigned max_mag_ = 0;
};

// The MAC step and the multiple select run once per coefficient product in
// every cycle-accurate core, so they are defined inline: an out-of-line call
// per step dominated the simulated cores' run time, and its cost shifted
// with the code layout of unrelated translation units.

/// One MAC accumulate step: acc + sign * multiple mod 2^qbits.
inline u16 mac_accumulate(u16 acc, u16 multiple, bool negative, unsigned qbits) {
  const u32 q = u32{1} << qbits;
  const u32 m = static_cast<u32>(low_bits(multiple, qbits));
  const u32 r = negative ? static_cast<u32>(acc) + q - m : static_cast<u32>(acc) + m;
  return static_cast<u16>(low_bits(r, qbits));
}

/// As above, with an optional fault hook on the sum (modeling a stuck-at or
/// transient bit in the MAC's accumulator adder). Null hook = fault-free.
inline u16 mac_accumulate(u16 acc, u16 multiple, bool negative, unsigned qbits,
                          FaultHook* hook) {
  u16 r = mac_accumulate(acc, multiple, negative, qbits);
  if (hook) r = static_cast<u16>(low_bits(hook->on_mac_accumulate(r, qbits), qbits));
  return r;
}

/// The secret shift register of the high-speed cores, which shifts
/// negacyclically (b <- b * x) once per broadcast coefficient, held as a
/// window into ext = [-s, s] of length 2N: after i shifts the register reads
/// ext[N-i .. 2N-i), so a shift moves the window instead of N lanes.
template <std::size_t N>
class SecretWindow {
 public:
  explicit SecretWindow(std::span<const i8, N> s) {
    for (std::size_t j = 0; j < N; ++j) {
      ext_[j] = static_cast<i8>(-s[j]);
      ext_[N + j] = s[j];
    }
  }

  /// Register contents after `shifts` shifts (0 <= shifts <= N).
  std::span<const i8, N> after(std::size_t shifts) const {
    SABER_REQUIRE(shifts <= N, "secret window shifted past one full turn");
    return std::span<const i8, N>(ext_.data() + (N - shifts), N);
  }

 private:
  std::array<i8, 2 * N> ext_{};
};

/// One broadcast step of a row of MACs (HS-I §3.1 and the [10] baseline):
/// coefficient `a` meets every secret lane at once,
///   acc[j] = acc[j] +- low_bits(a * min(|s[j]|, max_mag), qbits),
/// the sign taken from s[j]. low_bits(a * m) is the shift-and-add multiple
/// of Algorithm 2, and the clamp is the select mux's top input: a corrupted
/// secret nibble beyond +-max_mag saturates there (fault-free the packed
/// range is within +-max_mag).
///
/// kHooked = false compiles to a straight-line u16 loop the compiler
/// vectorizes (the software form of many narrow MACs in one wide word).
/// kHooked = true consults `hook` at the two per-MAC fault sites, in datapath
/// order: the small-multiplier output, then the accumulator sum.
template <bool kHooked, std::size_t N>
inline void mac_row(std::span<u16, N> acc, std::span<const i8, N> s, u16 a,
                    unsigned max_mag, unsigned qbits,
                    [[maybe_unused]] FaultHook* hook) {
  const u16 mask = static_cast<u16>(mask64(qbits));
  const u16 av = static_cast<u16>(a & mask);
  const u16 top = static_cast<u16>(max_mag);
  for (std::size_t j = 0; j < N; ++j) {
    const i8 sj = s[j];
    const u16 raw_mag = static_cast<u16>(sj < 0 ? -sj : sj);
    const u16 mag = raw_mag > top ? top : raw_mag;
    u16 multiple = static_cast<u16>(av * mag & mask);
    if constexpr (kHooked) {
      multiple = static_cast<u16>(low_bits(hook->on_small_mult(multiple, qbits), qbits));
    }
    const u16 term = sj < 0 ? static_cast<u16>(-multiple) : multiple;
    u16 sum = static_cast<u16>((acc[j] + term) & mask);
    if constexpr (kHooked) {
      sum = static_cast<u16>(low_bits(hook->on_mac_accumulate(sum, qbits), qbits));
    }
    acc[j] = sum;
  }
}

/// Cycle accounting for one polynomial multiplication, split the way the
/// paper discusses overheads (§4.1: pure multiplication vs memory accesses).
struct CycleStats {
  u64 total = 0;            ///< everything below
  u64 compute = 0;          ///< cycles in which MACs/DSPs performed work
  u64 preload = 0;          ///< operand loading before compute can start
  u64 stall_public_load = 0;   ///< compute paused for public-operand words
  u64 stall_secret_load = 0;   ///< compute paused for secret-operand words
  u64 stall_accumulator = 0;   ///< compute paused for accumulator traffic
  u64 readout = 0;          ///< result extraction after compute
  u64 pipeline = 0;         ///< pipeline fill/drain (e.g. DSP latency)

  u64 overhead() const { return total - compute; }

  /// Memory overhead as a fraction of the total (the paper quotes <16 % for
  /// LW and 39 % for the HS 512 configuration).
  double overhead_fraction() const {
    return total == 0 ? 0.0 : static_cast<double>(overhead()) / static_cast<double>(total);
  }

  std::string to_string() const;
};

/// Activity-based power proxy (§5: the LW design's power advantage comes from
/// few flip-flops toggling and few memory accesses).
struct PowerProxy {
  u64 ff_bits = 0;       ///< flip-flop bits in the design
  u64 ff_toggles = 0;    ///< register-bit updates over the run
  u64 bram_reads = 0;
  u64 bram_writes = 0;
  u64 dsp_ops = 0;

  /// Single activity figure used for cross-architecture comparison:
  /// weighted events per multiplication (weights reflect the relative
  /// dynamic energy of BRAM vs FF vs DSP activity on 7-series class parts).
  double activity_score() const {
    return static_cast<double>(ff_toggles) * 1.0 +
           static_cast<double>(bram_reads + bram_writes) * 8.0 +
           static_cast<double>(dsp_ops) * 4.0;
  }
};

}  // namespace saber::hw
