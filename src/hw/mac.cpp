#include "hw/mac.hpp"

#include <sstream>

#include "common/check.hpp"

namespace saber::hw {

u16 shift_add_multiple(u16 a, unsigned mag, unsigned qbits) {
  SABER_REQUIRE(mag <= 5, "shift-add multiplier supports magnitudes 0..5");
  const u32 v = static_cast<u32>(low_bits(a, qbits));
  u32 r = 0;
  switch (mag) {
    case 0: r = 0; break;
    case 1: r = v; break;
    case 2: r = v << 1; break;            // wired shift
    case 3: r = v + (v << 1); break;      // one adder
    case 4: r = v << 2; break;            // wired shift
    case 5: r = v + (v << 2); break;      // one adder (LightSaber extension)
  }
  return static_cast<u16>(low_bits(r, qbits));
}

MultipleSet::MultipleSet(u16 a, unsigned qbits, unsigned max_mag) : max_mag_(max_mag) {
  SABER_REQUIRE(max_mag >= 1 && max_mag <= 5, "unsupported magnitude range");
  for (unsigned m = 0; m <= max_mag; ++m) {
    multiples_[m] = shift_add_multiple(a, m, qbits);
  }
}

std::string CycleStats::to_string() const {
  std::ostringstream os;
  os << "total=" << total << " compute=" << compute << " preload=" << preload
     << " stall(pub=" << stall_public_load << ", sec=" << stall_secret_load
     << ", acc=" << stall_accumulator << ") readout=" << readout
     << " pipeline=" << pipeline << " overhead=" << overhead() << " ("
     << static_cast<int>(overhead_fraction() * 100.0 + 0.5) << "%)";
  return os.str();
}

}  // namespace saber::hw
