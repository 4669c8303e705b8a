#include "multipliers/high_speed.hpp"

#include <array>
#include <bit>

#include "common/check.hpp"
#include "ring/packing.hpp"

namespace saber::arch {

namespace {

constexpr unsigned kQ = MemoryMap::kQBits;

}  // namespace

HighSpeedMultiplier::HighSpeedMultiplier(const HighSpeedConfig& cfg) : cfg_(cfg) {
  SABER_REQUIRE(cfg.macs >= 64 && cfg.macs <= 1024 && std::has_single_bit(cfg.macs),
                "supported MAC counts: powers of two in [64, 1024]");
  SABER_REQUIRE(cfg.max_mag == 4 || cfg.max_mag == 5,
                "supported secret magnitude ranges: 4 (Saber/FireSaber), 5 (LightSaber)");
  name_ = std::string(cfg.centralized ? "hs1-" : "baseline-") + std::to_string(cfg.macs);
  build_area();
}

MultiplierResult HighSpeedMultiplier::multiply(const ring::Poly& a,
                                               const ring::SecretPoly& s,
                                               const ring::Poly* accumulate) {
  SABER_REQUIRE(s.max_magnitude() <= cfg_.max_mag,
                "secret magnitude exceeds the configured multiplier range");
  MultiplierResult res;
  hw::Bram64 mem(MemoryMap::kTotalWords);
  load_operands(mem, a, s);
  if (trace_memory_) mem.enable_trace();
  auto& st = res.cycles;

  // Accumulator buffer (3328 flip-flops); MAC-mode runs keep the previous
  // inner-product term resident instead of re-reading it from memory.
  std::array<u16, ring::kN> acc{};
  if (accumulate != nullptr) {
    SABER_REQUIRE(accumulate->reduced(kQ), "accumulator must be reduced mod q");
    for (std::size_t j = 0; j < ring::kN; ++j) acc[j] = (*accumulate)[j];
  }

  mem.set_fault_hook(fault_hook_);

  auto run_cycle = [&] {
    mem.tick();
    ++st.total;
  };

  // --- secret burst: 16 reads, data lags one cycle -------------------------
  std::vector<u64> sec_words;
  sec_words.reserve(MemoryMap::kSecretWords);
  for (std::size_t w = 0; w < MemoryMap::kSecretWords; ++w) {
    mem.read(MemoryMap::kSecretBase + w);
    run_cycle();
    sec_words.push_back(mem.read_data());
  }
  run_cycle();  // last word's read latency
  st.preload += MemoryMap::kSecretWords + 1;

  // --- public preload: first 13-word chunk (64 coefficients) ---------------
  std::vector<u64> pub_words;
  pub_words.reserve(MemoryMap::kPublicWords);
  for (std::size_t w = 0; w < 13; ++w) {
    mem.read(MemoryMap::kPublicBase + w);
    run_cycle();
    pub_words.push_back(mem.read_data());
  }
  run_cycle();  // read latency
  run_cycle();  // stream-alignment cycle (§2.2: "+1 cycle per multiplication")
  st.preload += 14;
  st.stall_public_load += 1;

  // The datapath consumes the words the memory actually returned, not the
  // caller's polynomials: fault-free the decode is the exact pack/unpack
  // roundtrip, and with a fault hook attached a read-port upset propagates
  // into the computation the way the real design would carry it.
  const auto sdec =
      ring::unpack_secret_words<ring::kN>(sec_words, MemoryMap::kSecretBits);
  auto pub_coeff = [&](std::size_t i) -> u16 {
    const std::size_t bit = i * kQ;
    SABER_ENSURE((bit + kQ + 63) / 64 <= pub_words.size(), "public stream underrun");
    const std::size_t w = bit / 64, off = bit % 64;
    u64 v = pub_words[w] >> off;
    if (off + kQ > 64) v |= pub_words[w + 1] << (64 - off);
    return static_cast<u16>(v & mask64(kQ));
  };

  // --- compute --------------------------------------------------------------
  // macs >= 256: `unroll` outer iterations per cycle (one broadcast each);
  // macs <  256: each outer iteration takes `j_chunks` cycles (the MAC bank
  // walks the accumulator in chunks).
  const unsigned unroll = cfg_.macs >= 256 ? cfg_.macs / 256 : 1;
  const unsigned j_chunks = cfg_.macs >= 256 ? 1 : 256 / cfg_.macs;
  const hw::SecretWindow<ring::kN> secret(sdec.c);
  // HS-I: one central multiple generator per broadcast coefficient;
  // baseline: each MAC derives the multiple itself. Functionally equal — the
  // difference is pure area (see build_area). The fault sites are compiled
  // into the row only when a hook is attached.
  const auto mac_row = fault_hook_ != nullptr ? &hw::mac_row<true, ring::kN>
                                              : &hw::mac_row<false, ring::kN>;

  std::size_t next_public_word = 13;  // words 13..51 stream during compute
  for (std::size_t i = 0; i < ring::kN; i += unroll) {
    for (unsigned chunk = 0; chunk < j_chunks; ++chunk) {
      // Stream the rest of the public polynomial through the read port while
      // the MACs work (read-while-load multiplexer of [10]).
      const bool streamed = next_public_word < MemoryMap::kPublicWords;
      if (streamed) {
        mem.read(MemoryMap::kPublicBase + next_public_word);
        ++next_public_word;
      }
      if (chunk + 1 == j_chunks) {
        // Functional update for the whole outer step happens once the last
        // chunk's cycle runs; per-chunk slicing does not change the result.
        for (unsigned u = 0; u < unroll; ++u) {
          mac_row(acc, secret.after(i + u), pub_coeff(i + u), cfg_.max_mag, kQ,
                  fault_hook_);
        }
      }
      // Activity: the MAC bank updates macs accumulator coefficients/cycle.
      res.power.ff_toggles += cfg_.macs * kQ + ring::kN * 4 / j_chunks;
      run_cycle();
      ++st.compute;
      if (streamed) pub_words.push_back(mem.read_data());
    }
  }

  // --- write the accumulator back to memory ---------------------------------
  run_cycle();  // stage the first packed word
  ring::Poly out;
  for (std::size_t j = 0; j < ring::kN; ++j) out[j] = acc[j];
  const auto words =
      ring::pack_words(std::span<const u16>(out.c.data(), out.c.size()), kQ);
  for (std::size_t w = 0; w < words.size(); ++w) {
    mem.write(MemoryMap::kAccBase + w, words[w]);
    run_cycle();
  }
  st.readout += 1 + words.size();

  res.power.ff_bits = area_.total().ff;
  res.power.bram_reads = mem.reads();
  res.power.bram_writes = mem.writes();
  if (trace_memory_) res.mem_trace = mem.trace();
  if (fault_hook_ != nullptr) {
    // A write-port fault legitimately desyncs the internal mirror from the
    // memory image; the product is what the memory holds, because that is
    // what a consumer of the result would read.
    res.product = read_result(mem);
  } else {
    res.product = out;
    SABER_ENSURE(read_result(mem) == out, "memory image disagrees with accumulator");
  }
  return res;
}

unsigned HighSpeedMultiplier::logic_depth() const {
  // multiple generation (adder) -> select mux -> accumulate add/sub, plus a
  // second accumulate level for the three-way adders of the 512 variant.
  return cfg_.macs > 256 ? 4 : 3;
}

void HighSpeedMultiplier::build_area() {
  using namespace hw;
  const unsigned macs = cfg_.macs;
  const unsigned broadcasts = macs >= 256 ? macs / 256 : 1;
  // One adder produces 3a (2a and 4a are wired shifts); supporting
  // LightSaber's |s| = 5 needs a second adder for 5a = a + 4a.
  const AreaCost multiple_gen =
      cfg_.max_mag == 5 ? adder(kQ) + adder(kQ) : adder(kQ);
  const AreaCost select_mux = mux(cfg_.max_mag + 1, kQ);

  if (cfg_.centralized) {
    // §3.1: one shift-and-add generator per broadcast coefficient; each MAC
    // is a multiple-select mux plus an add/sub accumulator stage.
    area_.add("central multiple generator (3a adder; 2a,4a wired)", broadcasts,
              multiple_gen);
    area_.add("MAC: multiple select mux (5:1 x 13b)", macs, select_mux);
  } else {
    // [10]: every MAC owns a full shift-and-add multiplier (Alg. 2).
    area_.add("MAC: shift-add multiplier (3a adder + 5:1 mux)", macs,
              multiple_gen + select_mux);
  }
  if (macs <= 256) {
    // One add/sub per MAC (for macs < 256 the bank walks the accumulator,
    // needing write-select glue into the wide buffer).
    area_.add("MAC: accumulator add/sub", macs, add_sub(kQ));
    if (macs < 256) {
      area_.add("accumulator chunk write select", 1,
                glue_lut(256 / macs >= 4 ? 96 : 64));
    }
  } else {
    // Multiple contributions per accumulator coefficient per cycle: an
    // adder tree of depth unroll on every coefficient.
    area_.add("MAC: accumulator multi-way add/sub", 256,
              add_sub(kQ) * (macs / 256));
  }
  area_.add("secret polynomial buffer (256 x 4b)", 1, reg(1024));
  area_.add("secret negacyclic shift wrap negate", broadcasts, cond_negate(4));
  area_.add("accumulator buffer (256 x 13b)", 1, reg(13 * 256));
  area_.add("public polynomial buffer (676b)", 1, reg(676));
  area_.add("public read-while-load mux", 1, mux(2, 64) + glue_lut(18));
  area_.add("coefficient broadcast staging", broadcasts, reg(kQ));
  area_.add("control FSM + address generation", 1,
            counter(9) + counter(6) + glue_lut(150) + reg(70));
  area_.add("memory interface", 1, glue_lut(30) + reg(8));
}

}  // namespace saber::arch
