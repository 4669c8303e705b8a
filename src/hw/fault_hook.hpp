// Fault-injection hook points of the hardware model.
//
// Each primitive (Bram64, Dsp48, the MAC accumulate step) consults an
// optional hook at the exact datapath location where a physical fault would
// strike: the BRAM read/write data, the MAC sum, the DSP output register.
// The hook interface lives down here in saber_hw so the primitives stay free
// of any dependency on the robustness library; robust::FaultInjector is the
// production implementation (stuck-at / transient / burst campaigns).
//
// A null hook (the default) is fault-free. Bram64, Dsp48 and the scalar
// hw::mac_accumulate step (LW and HS-II cores) compare the pointer per event.
// The HS-I/baseline cores instead choose once per multiply between two
// instantiations of their MAC row (hw::mac_row): one with the per-MAC sites
// compiled in, and a hook-free one with no per-MAC check at all.
#pragma once

#include <cstddef>

#include "common/bits.hpp"

namespace saber::hw {

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Word leaving the BRAM array on a read (before it is latched).
  virtual u64 on_bram_read(std::size_t addr, u64 value) {
    (void)addr;
    return value;
  }

  /// Word entering the BRAM array on a write (before it is committed).
  virtual u64 on_bram_write(std::size_t addr, u64 value) {
    (void)addr;
    return value;
  }

  /// Sum leaving a MAC accumulate step (mod 2^qbits).
  virtual u16 on_mac_accumulate(u16 value, unsigned qbits) {
    (void)qbits;
    return value;
  }

  /// Product leaving a small (shift-and-add) multiplier, before the MAC
  /// adder consumes it. The LW/HS-I analogue of the DSP output site.
  virtual u16 on_small_mult(u16 value, unsigned qbits) {
    (void)qbits;
    return value;
  }

  /// Product entering the DSP pipeline's first output stage.
  virtual i64 on_dsp_output(i64 value) { return value; }
};

}  // namespace saber::hw
