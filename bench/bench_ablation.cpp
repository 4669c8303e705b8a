// Ablation studies for the design choices DESIGN.md calls out:
//
//  A1. Centralized-multiplier gain vs MAC count (§3.1: "the gains are
//      directly correlated to the number of coefficient-wise multipliers").
//  A2. DSP-generation ablation (§5 future work: wider DSP58-class packing
//      removes the s' path and the carry-direction fix logic).
//  A3. Karatsuba depth on the software side (how [11]'s 8-level choice
//      trades base multiplications against additions).
#include <iostream>

#include "analysis/comparisons.hpp"
#include "analysis/table.hpp"
#include "mult/karatsuba.hpp"
#include "multipliers/dsp_packed.hpp"
#include "multipliers/high_speed.hpp"

using namespace saber;

namespace {

void ablation_centralized() {
  analysis::TextTable t({"MACs", "Cycles", "baseline LUT", "HS-I LUT", "saved LUT",
                         "reduction"});
  for (unsigned macs : {64u, 128u, 256u, 512u, 1024u}) {
    const auto base =
        arch::HighSpeedMultiplier(arch::HighSpeedConfig{macs, false}).area().total();
    const auto cent =
        arch::HighSpeedMultiplier(arch::HighSpeedConfig{macs, true}).area().total();
    t.add_row({std::to_string(macs), analysis::TextTable::num(u64{256} * 256 / macs),
               analysis::TextTable::num(base.lut), analysis::TextTable::num(cent.lut),
               analysis::TextTable::num(base.lut - cent.lut),
               analysis::TextTable::num(
                   100.0 * (1.0 - static_cast<double>(cent.lut) /
                                      static_cast<double>(base.lut)),
                   1) +
                   "%"});
  }
  std::cout << "A1 — centralization gain vs parallelism (§3.1)\n\n"
            << t.to_string()
            << "\nAbsolute savings grow with the MAC count: exactly the paper's\n"
               "argument for applying the optimization to wider configurations.\n\n";
}

void ablation_dsp_generation() {
  arch::DspPackedMultiplier base(3, arch::kPackingDsp48);
  arch::DspPackedMultiplier wide(3, arch::kPackingWide);
  analysis::TextTable t({"Packing", "shift", "Cycles", "LUT", "FF", "DSP"});
  for (const auto* m : {&base, &wide}) {
    const auto a = m->area().total();
    t.add_row({std::string(m->name()), std::to_string(m->spec().shift),
               analysis::TextTable::num(m->headline_cycles()),
               analysis::TextTable::num(a.lut), analysis::TextTable::num(a.ff),
               analysis::TextTable::num(a.dsp)});
  }
  std::cout << "A2 — DSP generation ablation (§5: \"future generations of FPGAs\n"
               "are expected to bring larger DSPs\")\n\n"
            << t.to_string()
            << "\n2^16 packing on a 27x24 slice: S fits the B port whole (no s'\n"
               "path, no C-port align adder) and the 16-bit middle lane holds the\n"
               "full cross sum (borrow-only fix logic).\n\n";
}

void ablation_karatsuba_depth() {
  analysis::TextTable t({"Levels", "coeff mults", "coeff adds", "mults saved vs depth-0"});
  u64 base_mults = 0;
  for (unsigned levels : {0u, 1u, 2u, 4u, 6u, 8u}) {
    const auto ops = analysis::product_ops(mult::KaratsubaMultiplier(levels));
    if (levels == 0) base_mults = ops.coeff_mults;
    t.add_row({std::to_string(levels), analysis::TextTable::num(ops.coeff_mults),
               analysis::TextTable::num(ops.coeff_adds),
               analysis::TextTable::num(
                   100.0 * (1.0 - static_cast<double>(ops.coeff_mults) /
                                      static_cast<double>(base_mults)),
                   1) +
                   "%"});
  }
  std::cout << "A3 — Karatsuba recursion depth ([11] uses 8 levels in hardware;\n"
               "the paper notes its pre/postprocessing costs area and clock speed)\n\n"
            << t.to_string()
            << "\nDeeper recursion trades 9x fewer base multiplications for ~12%\n"
               "more additions plus the recombination layers — the LUT/clock cost\n"
               "the paper attributes to [11]'s design.\n";
}

void ablation_area_model_sensitivity() {
  // A4: how robust is the headline HS-I claim (−22/−24 % LUTs) to the area
  // model's calibration? The ledger's structural formula is
  //   baseline(macs) = macs*(gen + mux + addsub) + overhead
  //   HS-I(macs)     = broadcasts*gen + macs*(mux + addsub) + overhead
  // so the reduction is (macs-broadcasts)*gen / baseline. Sweep the two
  // calibration knobs — the shift-add generator cost and the 5:1 mux cost —
  // across a generous range around the Xilinx LUT6 defaults (gen=13, mux=26).
  analysis::TextTable t({"gen LUT", "mux LUT", "reduction @256", "reduction @512"});
  const double addsub = 14.0;
  const double overhead = 250.0;  // buffers/control glue (LUT part)
  for (const double gen : {7.0, 13.0, 20.0, 26.0}) {
    for (const double mux : {13.0, 26.0, 52.0}) {
      auto reduction = [&](double macs) {
        const double broadcasts = macs >= 256 ? macs / 256 : 1;
        const double per_acc = macs > 256 ? 2.0 * addsub * 256 : addsub * macs;
        const double base = macs * (gen + mux) + per_acc + overhead;
        const double cent = broadcasts * gen + macs * mux + per_acc + overhead;
        return 100.0 * (base - cent) / base;
      };
      t.add_row({analysis::TextTable::num(gen, 0), analysis::TextTable::num(mux, 0),
                 analysis::TextTable::num(reduction(256), 1) + "%",
                 analysis::TextTable::num(reduction(512), 1) + "%"});
    }
  }
  std::cout << "A4 — sensitivity of the §3.1 claim to area-model calibration\n"
               "(structural formula from the ledger; defaults gen=13, mux=26)\n\n"
            << t.to_string()
            << "\nAcross a 4x range of calibration constants the centralization\n"
               "saving stays strictly positive, grows with the MAC count, and sits\n"
               "between ~9% and ~48% — the paper's 22-24% claim is a property of\n"
               "the structure, not of our particular LUT-mapping constants.\n";
}

}  // namespace

int main() {
  ablation_centralized();
  ablation_dsp_generation();
  ablation_karatsuba_depth();
  ablation_area_model_sensitivity();
  return 0;
}
