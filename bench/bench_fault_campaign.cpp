// E8: fault-tolerance campaign for the robustness layer (src/robust/).
//
// Unlike the other bench binaries this is not a google-benchmark harness: a
// fault campaign is a counting experiment (detection / recovery rates over
// seeded fault draws), not a timing distribution. Run with no arguments for a
// human-readable summary (the scripts/run_all.sh convention); pass
// `--json <path>` to also write the distilled BENCH_fault.json that
// scripts/bench_json.sh checks in.
//
// Five experiments:
//   1. transient campaign - seeded single-bit transient product faults through
//      CheckedMultiplier(kFull): detection must be 100%, retry recovery ~100%.
//   2. stuck-at campaign   - permanently stuck product bits: detection 100%,
//      recovery via failover to the reference backend.
//   3. architecture campaign - seeded transient and stuck-at faults at the
//      real datapath sites (BRAM read/write ports, MAC adder, shift-and-add
//      small multiplier, DSP output) of the HS-I / HS-II / LW cycle-accurate
//      cores, repaired by CheckedHwMultiplier: zero silent corruptions, ever.
//   4. checking overhead   - cost of the verification policies and check
//      kinds (schoolbook re-derivation vs point-evaluation), at the
//      multiplier level and for full KEM decapsulations (the decaps rows
//      repeated, reported as median and quartiles).
//   5. supervised prepare cost - lazy copy-on-quarantine transform caching:
//      preparing a 3x3 public matrix through the supervised facade must cost
//      ~1x a single checked backend (time and memory), not the sum over the
//      failover chain the old eager design paid.
//
// `--smoke` shrinks every trial/iteration count so the whole campaign runs in
// seconds under sanitizers (the run_all.sh asan-ubsan smoke).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "mult/batch.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "ring/polyvec.hpp"
#include "robust/checked_multiplier.hpp"
#include "robust/fault_injector.hpp"
#include "robust/faulty_multiplier.hpp"
#include "robust/supervisor.hpp"
#include "saber/kem.hpp"

namespace saber::robust {
namespace {

constexpr unsigned kQ = 13;
// The backend the checked_batch benchmark ships: overhead ratios are quoted
// against a competitive baseline, not a pathologically slow one.
constexpr const char* kBackend = "toom3";

struct Campaign {
  int trials = 0;
  int detected = 0;
  int retry_recovered = 0;
  int failover_recovered = 0;
  int unrecovered = 0;  ///< FaultDetectedError or wrong result

  int recovered() const { return retry_recovered + failover_recovered; }
  double detection_rate() const {
    return trials == 0 ? 0.0 : static_cast<double>(detected) / trials;
  }
  double recovery_rate() const {
    return trials == 0 ? 0.0 : static_cast<double>(recovered()) / trials;
  }
};

/// One multiply under an armed fault; classifies what the checker did.
void run_trial(Campaign& c, std::shared_ptr<FaultInjector> inj,
               RandomSource& rng) {
  mult::SchoolbookMultiplier ref;
  CheckedMultiplier checked(
      std::make_unique<FaultyPolyMultiplier>(mult::make_multiplier(kBackend),
                                             std::move(inj)));
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  const auto expect = ref.multiply_secret(a, s, kQ);
  ++c.trials;
  try {
    const auto got = checked.multiply_secret(a, s, kQ);
    const auto counters = checked.fault_counters();
    if (counters.mismatches > 0) ++c.detected;
    if (got != expect) {
      ++c.unrecovered;
    } else if (counters.retry_recoveries > 0) {
      ++c.retry_recovered;
    } else if (counters.failovers > 0) {
      ++c.failover_recovered;
    }
  } catch (const FaultDetectedError&) {
    ++c.detected;
    ++c.unrecovered;
  }
}

Campaign transient_campaign(int trials) {
  Campaign c;
  Xoshiro256StarStar rng(1001);
  for (int t = 0; t < trials; ++t) {
    auto inj = std::make_shared<FaultInjector>(static_cast<u64>(t) + 1);
    inj->arm(inj->random_product_transient(kQ, /*max_ordinal=*/1));
    run_trial(c, std::move(inj), rng);
  }
  return c;
}

Campaign stuck_at_campaign(int trials) {
  Campaign c;
  Xoshiro256StarStar rng(2002);
  Xoshiro256StarStar draw(3003);
  for (int t = 0; t < trials; ++t) {
    auto inj = std::make_shared<FaultInjector>(static_cast<u64>(t) + 1);
    const auto coeff = static_cast<std::size_t>(draw.next_u64() % ring::kN);
    const auto bit = static_cast<unsigned>(draw.next_u64() % kQ);
    inj->arm(FaultSpec::permanent_flip(FaultSite::kProduct, bit, coeff));
    run_trial(c, std::move(inj), rng);
  }
  return c;
}

// --- architecture-routed site campaigns -------------------------------------

/// Detection/recovery counts for one (architecture, site, fault-kind) cell.
struct ArchCampaign {
  std::string architecture;
  std::string site;
  std::string kind;  ///< "transient" or "stuck-at"
  int trials = 0;
  int effective = 0;  ///< fault corrupted the unchecked product
  int masked = 0;     ///< fault fired but the product was unaffected
  int detected = 0;
  int recovered = 0;  ///< effective faults repaired (retry or failover)
  int silent = 0;     ///< wrong checked product - the never-tolerated outcome
};

/// One fault through an architecture: classify against an unchecked copy,
/// then require the CheckedHwMultiplier to detect-and-repair it.
void run_arch_trial(ArchCampaign& c, std::string_view arch,
                    const FaultSpec& spec, const ring::Poly& a,
                    const ring::SecretPoly& s, const ring::Poly& expect) {
  ++c.trials;

  FaultInjector cls;
  cls.arm(spec);
  auto unchecked = arch::make_architecture(arch);
  unchecked->set_fault_hook(&cls);
  const bool effective = unchecked->multiply(a, s).product != expect;
  effective ? ++c.effective : ++c.masked;

  FaultInjector inj;
  inj.arm(spec);
  CheckedHwMultiplier checked(arch::make_architecture(arch));
  checked.set_fault_hook(&inj);
  const auto res = checked.multiply(a, s);
  const auto counters = checked.fault_counters();
  if (counters.mismatches > 0) ++c.detected;
  if (res.product != expect) {
    ++c.silent;
  } else if (effective) {
    ++c.recovered;
  }
}

std::vector<ArchCampaign> architecture_campaigns(int transient_trials,
                                                 int stuck_trials) {
  std::vector<ArchCampaign> out;
  mult::SchoolbookMultiplier ref;
  Xoshiro256StarStar rng(5050);
  Xoshiro256StarStar bits(6060);
  struct SiteCase {
    FaultSite site;
    unsigned width;  ///< bit width of values flowing past the site
  };
  for (const std::string arch : {"hs1-256", "hs2", "lw4"}) {
    std::vector<SiteCase> sites = {{FaultSite::kBramRead, 64},
                                   {FaultSite::kBramWrite, 64},
                                   {FaultSite::kMacAccumulate, kQ}};
    // The shift-and-add multiple selector only exists on the MAC-based cores;
    // HS-II's packed DSP lanes replace it and never fire the site (and
    // random_transient requires at least one event to draw from).
    if (arch != "hs2") sites.push_back({FaultSite::kSmallMult, kQ});
    // Only HS-II has DSP-packed lanes; the other cores never touch the site.
    if (arch == "hs2") sites.push_back({FaultSite::kDspOutput, 42});
    for (const auto& sc : sites) {
      const auto a = ring::Poly::random(rng, kQ);
      const auto s = ring::SecretPoly::random(rng, 4);
      const auto expect = ref.multiply_secret(a, s, kQ);

      // Count the site's events in one clean run so transient draws always
      // land on an ordinal that actually occurs.
      FaultInjector probe;
      {
        auto m = arch::make_architecture(arch);
        m->set_fault_hook(&probe);
        m->multiply(a, s);
      }
      const u64 events = probe.ordinal(sc.site);

      ArchCampaign transient{arch, std::string(to_string(sc.site)),
                             "transient"};
      for (int t = 0; t < transient_trials; ++t) {
        FaultInjector draw(static_cast<u64>(t) * 77 + 5);
        run_arch_trial(transient, arch,
                       draw.random_transient(sc.site, sc.width, events), a, s,
                       expect);
      }
      out.push_back(transient);

      ArchCampaign stuck{arch, std::string(to_string(sc.site)), "stuck-at"};
      for (int t = 0; t < stuck_trials; ++t) {
        const auto bit = static_cast<unsigned>(bits.next_u64() % sc.width);
        run_arch_trial(stuck, arch, FaultSpec::permanent_flip(sc.site, bit), a,
                       s, expect);
      }
      out.push_back(stuck);
    }
  }
  return out;
}

// --- checking overhead ------------------------------------------------------

/// Interference-resistant comparative timing. The configs under comparison
/// are interleaved round-robin in small chunks and each reports its fastest
/// chunk: every config samples the same machine-load profile, and the
/// per-config minimum discards the chunks a background burst inflated. A
/// single sequential block per config (the obvious loop) is at the mercy of
/// *when* the host decides to run something else, and was observed to skew
/// ratios by +-10% run to run.
std::vector<double> interleaved_ns_per_call(
    const std::vector<std::function<void()>>& configs, int iters) {
  constexpr int kChunks = 8;
  const int per_chunk = iters / kChunks > 0 ? iters / kChunks : 1;
  for (const auto& fn : configs) fn();  // warmup (page-in, frequency ramp)
  std::vector<double> best(configs.size(),
                           std::numeric_limits<double>::infinity());
  for (int c = 0; c < kChunks; ++c) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < per_chunk; ++i) configs[k]();
      const auto stop = std::chrono::steady_clock::now();
      const auto ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count());
      best[k] = std::min(best[k], ns / per_chunk);
    }
  }
  return best;
}

/// Median and quartiles of a sample (linear interpolation between order
/// statistics, as Python's statistics.quantiles(method="inclusive")).
struct Spread {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.5), at(0.25), at(0.75)};
}

/// One timed config: ns per call and its ratio to the first config (the
/// unchecked baseline) within each repetition, as median and quartiles.
struct TimedRow {
  std::string config;
  Spread ns;
  Spread ratio;
};

/// Fills rows[i].ns/.ratio from `reps` repetitions of the interleaved
/// timing: one run's per-config minimum still moves with the host by tens of
/// percent, so every timed section reports the median and quartiles.
template <class Row>
void time_rows(std::vector<Row>& rows,
               const std::vector<std::function<void()>>& configs, int iters, int reps) {
  std::vector<std::vector<double>> ns(rows.size()), ratio(rows.size());
  for (int r = 0; r < reps; ++r) {
    const auto rep = interleaved_ns_per_call(configs, iters);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ns[i].push_back(rep[i]);
      ratio[i].push_back(rep[i] / rep[0]);
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].ns = spread_of(ns[i]);
    rows[i].ratio = spread_of(ratio[i]);
  }
}

std::vector<TimedRow> multiplier_overhead(int iters, int reps) {
  const struct {
    const char* label;
    CheckedConfig config;
  } policies[] = {
      {"off", {CheckPolicy::kOff}},
      {"full", {CheckPolicy::kFull}},
      {"full/point-eval", {CheckPolicy::kFull, CheckKind::kPointEval}},
  };

  std::vector<TimedRow> rows;
  std::vector<std::shared_ptr<const mult::PolyMultiplier>> mults;
  rows.push_back({std::string(kBackend), {}, {}});
  mults.push_back(mult::make_multiplier(kBackend));
  for (const auto& p : policies) {
    rows.push_back({"checked(" + std::string(kBackend) + ")/" + p.label, {}, {}});
    mults.push_back(make_checked(kBackend, p.config));
  }

  Xoshiro256StarStar rng(4004);
  const auto a = ring::Poly::random(rng, kQ);
  const auto s = ring::SecretPoly::random(rng, 4);
  volatile u16 sink = 0;  // keep the products alive without google-benchmark
  std::vector<std::function<void()>> configs;
  for (const auto& m : mults) {
    configs.push_back([&sink, &a, &s, m] { sink = m->multiply_secret(a, s, kQ)[0]; });
  }
  time_rows(rows, configs, iters, reps);
  (void)sink;
  return rows;
}

/// A FireSaber 4-term inner product over a prepared public row (the encaps
/// shape <b, s'>, with the secrets prepared per call): plain toom3 against
/// the supervised point-eval facade kembench's checked_batch runs.
std::vector<TimedRow> inner_product_overhead(int iters, int reps) {
  constexpr std::size_t kL = 4;
  Xoshiro256StarStar rng(5005);
  ring::PolyVec b(kL);
  ring::SecretVec s(kL);
  for (std::size_t i = 0; i < kL; ++i) {
    b[i] = ring::Poly::random(rng, kQ);
    s[i] = ring::SecretPoly::random(rng, 3);
  }
  SupervisorConfig cfg;
  cfg.check = {CheckPolicy::kFull, CheckKind::kPointEval};
  BackendSupervisor sup({kBackend, "ntt", "schoolbook"}, cfg);
  const std::vector<std::shared_ptr<const mult::PolyMultiplier>> mults = {
      mult::make_multiplier(kBackend), sup.make_worker_multiplier()};
  std::vector<TimedRow> rows = {{std::string(kBackend), {}, {}},
                                {std::string(sup.name()) + "/point-eval", {}, {}}};
  std::vector<mult::PreparedVector> prepared;
  for (const auto& m : mults) prepared.emplace_back(b, *m, kQ);
  volatile u16 sink = 0;
  std::vector<std::function<void()>> configs;
  for (std::size_t i = 0; i < mults.size(); ++i) {
    configs.push_back(
        [&, i] { sink = mult::inner_product(prepared[i], s, *mults[i])[0]; });
  }
  time_rows(rows, configs, iters, reps);
  (void)sink;
  return rows;
}

/// Decaps cost per config over `reps` repetitions of the interleaved timing:
/// a decaps is ~0.1-0.5 ms, so one run's per-config minimum still moves with
/// the host by tens of percent; the rows report the median and quartiles.
std::vector<TimedRow> kem_decaps_overhead(int iters, int reps) {
  kem::Seed sa{}, ss{};
  sa.fill(0x31);
  ss.fill(0x32);
  kem::SharedSecret z{};
  z.fill(0x33);
  kem::Message m{};
  m.fill(0x34);

  kem::SaberKemScheme plain(kem::kSaber, kBackend);
  const auto keys = plain.keygen_deterministic(sa, ss, z);
  const auto enc = plain.encaps_deterministic(keys.pk, m);

  const struct {
    const char* label;
    CheckKind kind;
  } kinds[] = {
      {"checked/full", CheckKind::kReference},
      {"checked/full/point-eval", CheckKind::kPointEval},
  };

  std::vector<TimedRow> rows;
  std::vector<std::shared_ptr<kem::SaberKemScheme>> schemes;
  rows.push_back({std::string(kBackend), {}, {}});
  schemes.push_back(std::make_shared<kem::SaberKemScheme>(kem::kSaber, kBackend));
  for (const auto& k : kinds) {
    rows.push_back({k.label, {}, {}});
    schemes.push_back(std::make_shared<kem::SaberKemScheme>(
        kem::kSaber, std::shared_ptr<const mult::PolyMultiplier>(make_checked(
                         kBackend, {CheckPolicy::kFull, k.kind}))));
  }

  volatile u8 sink = 0;
  std::vector<std::function<void()>> configs;
  for (const auto& sch : schemes) {
    configs.push_back(
        [&sink, &enc, &keys, sch] { sink = sch->decaps(enc.ct, keys.sk)[0]; });
  }
  time_rows(rows, configs, iters, reps);
  (void)sink;
  return rows;
}

// --- supervised prepare cost ------------------------------------------------

struct PrepareRow : TimedRow {
  std::size_t values = 0;  ///< i64 values held by the prepared 3x3 matrix
};

/// Cost of caching a 3x3 public matrix (the Saber l=3 hot shape) under each
/// preparation regime. The supervised facade prepares lazily
/// (copy-on-quarantine), so its no-fault cost must track a single checked
/// backend; the last row emulates the retired eager design that materialized
/// every failover backend's image up front.
std::vector<PrepareRow> supervised_prepare_cost(int iters, int reps) {
  constexpr std::size_t kL = 3;
  Xoshiro256StarStar rng(7007);
  ring::PolyMatrix a(kL, kL);
  for (std::size_t r = 0; r < kL; ++r) {
    for (std::size_t c = 0; c < kL; ++c) {
      a.at(r, c) = ring::Poly::random(rng, kQ);
    }
  }

  const auto raw = mult::make_multiplier(kBackend);
  const auto checked = make_checked(kBackend, {});
  const auto checked_alt = make_checked("ntt", {});
  BackendSupervisor sup({kBackend, "ntt"});
  const auto supervised = sup.make_worker_multiplier();

  volatile std::size_t sink = 0;
  const std::vector<std::function<void()>> configs = {
      [&] { sink = mult::PreparedMatrix(a, *raw, kQ).value_count(); },
      [&] { sink = mult::PreparedMatrix(a, *checked, kQ).value_count(); },
      [&] { sink = mult::PreparedMatrix(a, *supervised, kQ).value_count(); },
      [&] {
        sink = mult::PreparedMatrix(a, *checked, kQ).value_count() +
               mult::PreparedMatrix(a, *checked_alt, kQ).value_count();
      },
  };
  std::vector<PrepareRow> rows(4);
  rows[0].config = kBackend;
  rows[1].config = "checked(" + std::string(kBackend) + ")";
  rows[2].config = "supervised(" + std::string(kBackend) + ">ntt) lazy";
  rows[3].config = "eager two-backend images (old)";
  time_rows(rows, configs, iters, reps);
  (void)sink;
  rows[0].values = mult::PreparedMatrix(a, *raw, kQ).value_count();
  rows[1].values = mult::PreparedMatrix(a, *checked, kQ).value_count();
  rows[2].values = mult::PreparedMatrix(a, *supervised, kQ).value_count();
  rows[3].values = rows[1].values +
                   mult::PreparedMatrix(a, *checked_alt, kQ).value_count();
  return rows;
}

// --- reporting --------------------------------------------------------------

void print_campaign(const char* title, const Campaign& c) {
  std::printf("%s: %d trials\n", title, c.trials);
  std::printf("  detected            %4d  (%.1f%%)\n", c.detected,
              100.0 * c.detection_rate());
  std::printf("  recovered           %4d  (%.1f%%)  [retry %d, failover %d]\n",
              c.recovered(), 100.0 * c.recovery_rate(), c.retry_recovered,
              c.failover_recovered);
  std::printf("  unrecovered         %4d\n\n", c.unrecovered);
}

void print_row(const TimedRow& r, const char* unit) {
  std::printf("  %-34s %10.1f ns/%s [%.1f, %.1f]  (%.2fx [%.2f, %.2f])\n",
              r.config.c_str(), r.ns.median, unit, r.ns.q1, r.ns.q3, r.ratio.median,
              r.ratio.q1, r.ratio.q3);
}

/// `"<key>": median, "<key>_q1": ..., "<key>_q3": ..., "ratio": ...` of a row.
void write_row_json(std::FILE* f, const TimedRow& r, const char* key) {
  std::fprintf(f,
               "\"config\": \"%s\", \"%s\": %.1f, \"%s_q1\": %.1f, \"%s_q3\": %.1f, "
               "\"ratio\": %.3f, \"ratio_q1\": %.3f, \"ratio_q3\": %.3f",
               r.config.c_str(), key, r.ns.median, key, r.ns.q1, key, r.ns.q3,
               r.ratio.median, r.ratio.q1, r.ratio.q3);
}

void write_campaign_json(std::FILE* f, const char* key, const Campaign& c) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"trials\": %d,\n"
               "    \"detected\": %d,\n"
               "    \"detection_rate\": %.4f,\n"
               "    \"recovered\": %d,\n"
               "    \"recovery_rate\": %.4f,\n"
               "    \"retry_recoveries\": %d,\n"
               "    \"failovers\": %d,\n"
               "    \"unrecovered\": %d\n"
               "  },\n",
               key, c.trials, c.detected, c.detection_rate(), c.recovered(),
               c.recovery_rate(), c.retry_recovered, c.failover_recovered,
               c.unrecovered);
}

int run(int argc, char** argv) {
  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  const int kTrials = smoke ? 12 : 200;
  const int kArchTransientTrials = smoke ? 3 : 20;
  const int kArchStuckTrials = smoke ? 2 : 10;
  const int kMultIters = smoke ? 25 : 400;
  const int kDecapsIters = smoke ? 3 : 40;
  const int kPrepareIters = smoke ? 8 : 120;
  const int kReps = smoke ? 2 : 7;  // every timed section

  const auto transient = transient_campaign(kTrials);
  const auto stuck = stuck_at_campaign(kTrials);
  const auto arch_campaigns =
      architecture_campaigns(kArchTransientTrials, kArchStuckTrials);
  const auto rows = multiplier_overhead(kMultIters, kReps);
  const auto inner = inner_product_overhead(kMultIters / 4, kReps);
  const auto decaps = kem_decaps_overhead(kDecapsIters, kReps);
  const auto prep = supervised_prepare_cost(kPrepareIters, kReps);

  std::printf("Fault-tolerance campaign (backend %s, mod 2^%u, policy full)%s\n\n",
              kBackend, kQ, smoke ? " [smoke]" : "");
  print_campaign("single-bit transient product faults", transient);
  print_campaign("stuck-at product bits", stuck);

  std::printf(
      "architecture site campaigns (%d transient + %d stuck-at trials/site):\n",
      kArchTransientTrials, kArchStuckTrials);
  int total_silent = 0;
  for (const auto& c : arch_campaigns) {
    total_silent += c.silent;
    std::printf(
        "  %-8s %-14s %-9s  effective %2d/%2d  detected %2d  recovered %2d  "
        "silent %d\n",
        c.architecture.c_str(), c.site.c_str(), c.kind.c_str(), c.effective,
        c.trials, c.detected, c.recovered, c.silent);
  }
  std::printf("  silent corruptions total: %d%s\n\n", total_silent,
              total_silent == 0 ? " (ok)" : "  ** FAILURE **");

  std::printf(
      "checking overhead, multiplier level (%d iters x %d repetitions, median "
      "[q1, q3]):\n",
      kMultIters, kReps);
  for (const auto& r : rows) print_row(r, "mult");
  std::printf("\nFireSaber 4-term inner product over a prepared row:\n");
  for (const auto& r : inner) print_row(r, "row");
  std::printf(
      "\nchecking overhead, KEM decaps (%d iters x %d repetitions, median "
      "[q1, q3]):\n",
      kDecapsIters, kReps);
  for (const auto& d : decaps) print_row(d, "decaps");

  std::printf("\nsupervised prepare cost, 3x3 public matrix (%d iters):\n",
              kPrepareIters);
  for (const auto& p : prep) {
    print_row(p, "prepare");
    std::printf("  %-32s %zu i64 values\n", "", p.values);
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n");
    write_campaign_json(f, "transient_campaign", transient);
    write_campaign_json(f, "stuck_at_campaign", stuck);
    std::fprintf(f, "  \"architecture_campaigns\": [\n");
    for (std::size_t i = 0; i < arch_campaigns.size(); ++i) {
      const auto& c = arch_campaigns[i];
      std::fprintf(f,
                   "    { \"architecture\": \"%s\", \"site\": \"%s\", "
                   "\"kind\": \"%s\", \"trials\": %d, \"effective\": %d, "
                   "\"masked\": %d, \"detected\": %d, \"recovered\": %d, "
                   "\"silent\": %d }%s\n",
                   c.architecture.c_str(), c.site.c_str(), c.kind.c_str(),
                   c.trials, c.effective, c.masked, c.detected, c.recovered,
                   c.silent, i + 1 < arch_campaigns.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    const auto section = [f](const char* name, const auto& list, const char* key,
                             const char* close) {
      std::fprintf(f, "  \"%s\": [\n", name);
      for (std::size_t i = 0; i < list.size(); ++i) {
        std::fprintf(f, "    { ");
        write_row_json(f, list[i], key);
        if constexpr (std::is_same_v<std::decay_t<decltype(list[i])>, PrepareRow>) {
          std::fprintf(f, ", \"i64_values\": %zu", list[i].values);
        }
        std::fprintf(f, " }%s\n", i + 1 < list.size() ? "," : "");
      }
      std::fprintf(f, "  ]%s\n", close);
    };
    std::fprintf(f, "  \"repetitions\": %d,\n", kReps);
    section("checking_overhead", rows, "ns_per_multiply", ",");
    section("inner_product_overhead", inner, "ns_per_row", ",");
    section("supervised_prepare", prep, "ns_per_prepare", ",");
    std::fprintf(f, "  \"kem_decaps_overhead\": {\n    \"backend\": \"%s\",\n"
                 "    \"rows\": [\n", kBackend);
    for (std::size_t i = 0; i < decaps.size(); ++i) {
      std::fprintf(f, "      { ");
      write_row_json(f, decaps[i], "ns_per_decaps");
      std::fprintf(f, " }%s\n", i + 1 < decaps.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return total_silent == 0 ? 0 : 1;
}

}  // namespace
}  // namespace saber::robust

int main(int argc, char** argv) { return saber::robust::run(argc, argv); }
