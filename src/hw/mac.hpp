// Functional models of the multiply-and-accumulate datapaths, plus the
// cycle/power accounting records shared by every architecture model.
#pragma once

#include <array>
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
