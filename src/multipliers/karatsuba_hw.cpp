#include "multipliers/karatsuba_hw.hpp"

#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "mult/karatsuba.hpp"
#include "ring/packing.hpp"

namespace saber::arch {

namespace {

constexpr unsigned kQ = MemoryMap::kQBits;

u64 pow3(unsigned e) {
  u64 r = 1;
  for (unsigned i = 0; i < e; ++i) r *= 3;
  return r;
}

/// LUT cost of a full unsigned wa x wb array multiplier built from fabric
/// logic (partial-product generation + compressor tree): ~0.55 LUT per
/// partial-product bit on 6-input LUTs.
hw::AreaCost lut_multiplier(unsigned wa, unsigned wb) {
  return hw::glue_lut(static_cast<u64>(std::lround(0.55 * wa * wb)));
}

}  // namespace

KaratsubaHwMultiplier::KaratsubaHwMultiplier(const KaratsubaHwConfig& cfg) : cfg_(cfg) {
  SABER_REQUIRE(cfg.levels >= 1 && cfg.levels <= 8, "supported Karatsuba levels: 1..8");
  SABER_REQUIRE(cfg.units >= 1 && cfg.units <= pow3(cfg.levels),
                "more engines than subproblems");
  name_ = "karatsuba-hw-l" + std::to_string(cfg.levels) + "-u" + std::to_string(cfg.units);
  build_area();
}

u64 KaratsubaHwMultiplier::headline_cycles() const {
  const u64 sub = pow3(cfg_.levels);
  const u64 sub_size = ring::kN >> cfg_.levels;
  // Pre-processing pyramid (one level per cycle), batched subproducts (each
  // engine is a schoolbook unit taking sub_size cycles per subproduct), and
  // the pipelined recombination tree.
  const u64 pre = cfg_.levels;
  const u64 mult = ceil_div(sub, u64{cfg_.units}) * sub_size;
  const u64 post = 2ull * cfg_.levels;
  return pre + mult + post;
}

MultiplierResult KaratsubaHwMultiplier::multiply(const ring::Poly& a,
                                                 const ring::SecretPoly& s,
                                                 const ring::Poly* accumulate) {
  MultiplierResult res;
  hw::Bram64 mem(MemoryMap::kTotalWords);
  load_operands(mem, a, s);
  if (trace_memory_) mem.enable_trace();
  auto& st = res.cycles;

  auto run_cycle = [&] {
    mem.tick();
    ++st.total;
  };

  // Operand load (same 64-bit memory interface as every other design).
  for (std::size_t w = 0; w < MemoryMap::kSecretWords; ++w) {
    mem.read(MemoryMap::kSecretBase + w);
    run_cycle();
  }
  run_cycle();
  st.preload += MemoryMap::kSecretWords + 1;
  // Karatsuba needs the whole public operand resident before the pre-add
  // pyramid can run: no read-while-compute overlap, 52 + latency cycles.
  for (std::size_t w = 0; w < MemoryMap::kPublicWords; ++w) {
    mem.read(MemoryMap::kPublicBase + w);
    run_cycle();
  }
  run_cycle();
  st.preload += MemoryMap::kPublicWords + 1;

  // Functional product via the (verified) software Karatsuba on the same
  // operand decomposition the hardware would use.
  const auto av = mult::centered_lift(a, kQ);
  const auto sv = mult::centered_lift(s.to_poly(kQ), kQ);
  std::vector<i64> conv(2 * ring::kN - 1);
  mult::karatsuba_acc_g<i64>(av, sv, conv, cfg_.levels);
  auto out = mult::fold_negacyclic<ring::kN>(conv, kQ);
  if (accumulate != nullptr) {
    SABER_REQUIRE(accumulate->reduced(kQ), "accumulator must be reduced mod q");
    ring::add_inplace(out, *accumulate, kQ);
  }

  // Schedule: pre-add pyramid, engine batches, recombination tree. The
  // pyramid is datapath fill (headline_cycles counts it), not operand load,
  // so it lands in `pipeline` with the recombination tree.
  for (unsigned c = 0; c < cfg_.levels; ++c) run_cycle();
  st.pipeline += cfg_.levels;
  const u64 sub = pow3(cfg_.levels);
  const u64 sub_size = ring::kN >> cfg_.levels;
  const u64 batches = ceil_div(sub, u64{cfg_.units});
  for (u64 b = 0; b < batches; ++b) {
    for (u64 c = 0; c < sub_size; ++c) {
      run_cycle();
      ++st.compute;
    }
  }
  for (unsigned c = 0; c < 2 * cfg_.levels; ++c) {
    run_cycle();
    ++st.pipeline;
  }
  res.power.ff_toggles += st.compute * cfg_.units * (kQ + cfg_.levels) * 2;

  // Result write-back.
  run_cycle();
  const auto words =
      ring::pack_words(std::span<const u16>(out.c.data(), out.c.size()), kQ);
  for (std::size_t w = 0; w < words.size(); ++w) {
    mem.write(MemoryMap::kAccBase + w, words[w]);
    run_cycle();
  }
  st.readout += 1 + words.size();

  res.product = out;
  res.power.ff_bits = area_.total().ff;
  res.power.bram_reads = mem.reads();
  res.power.bram_writes = mem.writes();
  if (trace_memory_) res.mem_trace = mem.trace();
  SABER_ENSURE(read_result(mem) == out, "memory image disagrees with result");
  return res;
}

void KaratsubaHwMultiplier::build_area() {
  using namespace hw;
  const unsigned L = cfg_.levels;
  const unsigned w = kQ + L;  // evaluation sums grow one bit per level
  const u64 sub_size = ring::kN >> L;

  // Pre-processing: at level k there are 3^k half-size operand additions for
  // each of the two operands; total adder bits ~ sum over levels.
  u64 pre_adder_bits = 0;
  for (unsigned k = 1; k <= L; ++k) {
    pre_adder_bits += 2ull * pow3(k - 1) * (ring::kN >> k) * (kQ + k);
  }
  area_.add("pre-processing adder pyramid", 1, glue_lut(pre_adder_bits));

  // Subproduct engines: sub_size parallel full-width MACs each.
  area_.add("subproduct engine: full-width multipliers", cfg_.units * sub_size,
            lut_multiplier(w, w));
  area_.add("subproduct engine: product accumulators", cfg_.units * sub_size,
            add_sub(2 * w) + reg(2 * w));

  // Post-processing recombination (three-term merges per level).
  u64 post_adder_bits = 0;
  for (unsigned k = L; k >= 1; --k) {
    post_adder_bits += 3ull * pow3(k - 1) * (ring::kN >> (k - 1)) / 2 * (kQ + k + 2);
  }
  area_.add("post-processing recombination adders", 1, glue_lut(post_adder_bits));
  area_.add("operand buffers (full polynomials)", 1, reg(2 * 256 * kQ));
  area_.add("control FSM", 1, counter(10) + glue_lut(200) + reg(80));
  area_.add("memory interface", 1, glue_lut(30) + reg(8));
}

}  // namespace saber::arch
