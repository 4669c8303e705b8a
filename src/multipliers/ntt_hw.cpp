#include "multipliers/ntt_hw.hpp"

#include "common/check.hpp"
#include "ring/packing.hpp"

namespace saber::arch {

namespace {

constexpr unsigned kQ = MemoryMap::kQBits;
constexpr u64 kStages = 8;       // log2(256)
constexpr u64 kButterflyOps = 128;  // butterflies per stage

}  // namespace

NttHwMultiplier::NttHwMultiplier(const NttHwConfig& cfg) : cfg_(cfg) {
  SABER_REQUIRE(cfg.butterflies >= 1 && cfg.butterflies <= 128,
                "supported butterfly counts: 1..128");
  SABER_REQUIRE(cfg.mul_latency >= 1 && cfg.mul_latency <= 8,
                "modular multiplier latency out of range");
  name_ = "ntt-hw-b" + std::to_string(cfg.butterflies);
  build_area();
}

u64 NttHwMultiplier::headline_cycles() const {
  const u64 per_transform = kStages * (kButterflyOps / cfg_.butterflies);
  const u64 pointwise = 256 / cfg_.butterflies;
  // Two forward transforms, pointwise multiplication, one inverse transform;
  // each phase drains the multiplier pipeline once.
  return 3 * per_transform + pointwise + 4ull * cfg_.mul_latency;
}

MultiplierResult NttHwMultiplier::multiply(const ring::Poly& a,
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

  // Operand load (the NTT core has its own coefficient memories; both
  // operands must be resident before the first stage).
  for (std::size_t w = 0; w < MemoryMap::kSecretWords; ++w) {
    mem.read(MemoryMap::kSecretBase + w);
    run_cycle();
  }
  run_cycle();
  st.preload += MemoryMap::kSecretWords + 1;
  for (std::size_t w = 0; w < MemoryMap::kPublicWords; ++w) {
    mem.read(MemoryMap::kPublicBase + w);
    run_cycle();
  }
  run_cycle();
  st.preload += MemoryMap::kPublicWords + 1;

  // Functional result from the verified software NTT. That one works mod two
  // 31-bit primes with a CRT, not over the modeled 42-bit datapath prime;
  // both lifts are exact, so the product is the same.
  auto out = ntt_.multiply(a, s.to_poly(kQ), kQ);
  if (accumulate != nullptr) {
    SABER_REQUIRE(accumulate->reduced(kQ), "accumulator must be reduced mod q");
    ring::add_inplace(out, *accumulate, kQ);
  }

  // Schedule: 2 forward NTTs, pointwise, inverse NTT, pipeline drains.
  const u64 per_transform = kStages * (kButterflyOps / cfg_.butterflies);
  for (int phase = 0; phase < 3; ++phase) {
    for (u64 c = 0; c < per_transform; ++c) {
      run_cycle();
      ++st.compute;
    }
    for (unsigned c = 0; c < cfg_.mul_latency; ++c) {
      run_cycle();
      ++st.pipeline;
    }
  }
  for (u64 c = 0; c < 256 / cfg_.butterflies; ++c) {
    run_cycle();
    ++st.compute;
  }
  for (unsigned c = 0; c < cfg_.mul_latency; ++c) {
    run_cycle();
    ++st.pipeline;
  }
  res.power.ff_toggles += st.compute * cfg_.butterflies * 42 * 2;
  res.power.dsp_ops += st.compute * cfg_.butterflies * 4;  // 42b mul = 4 DSPs

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

void NttHwMultiplier::build_area() {
  using namespace hw;
  const unsigned B = cfg_.butterflies;
  // A 42-bit modular multiplier: 4 cascaded DSPs for the integer product,
  // plus Barrett/Montgomery reduction logic in fabric.
  area_.add("butterfly: 42b modular multiplier (DSP cascade)", B,
            dsp_slice() * 4 + glue_lut(180));
  area_.add("butterfly: modular add/sub pair", B, glue_lut(2 * 43));
  area_.add("butterfly: operand/pipeline registers", B, reg(3 * 42 + 16));
  area_.add("twiddle-factor ROM (512 x 42b)", 1, bram36());
  area_.add("coefficient memories (2 x 256 x 42b, banked)", 2, bram36());
  area_.add("address generation (bit-reverse + stage strides)", 1,
            counter(9) + counter(4) + glue_lut(120) + reg(24));
  area_.add("exact-lift / mod-2^13 reduction", 1, glue_lut(140));
  area_.add("control FSM", 1, counter(6) + glue_lut(90) + reg(30));
  area_.add("memory interface", 1, glue_lut(30) + reg(8));
}

}  // namespace saber::arch
