// Power observability tests (docs/observability.md): energy conservation
// between the epoch trace / span profile and the aggregate energy model,
// zero-perturbation of the sampler (bit-identical runs with sampling on,
// off, at any epoch size, under the hazard checker and under fault
// injection), exact span attribution (innermost span, name-ordered
// grouping, independent of epoch binning), clock-gating monotonicity of
// the energy model, and the non-finite guards on manifests and the
// comparator.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/power.hpp"
#include "autofocus/workload.hpp"
#include "sar/scene.hpp"
#include "telemetry/compare.hpp"
#include "telemetry/manifest.hpp"

namespace esarp {
namespace {

using ep::Cycles;

// Relative 1e-9 tolerance with an absolute floor for near-zero bins.
void expect_close(double a, double b) {
  EXPECT_NEAR(a, b, 1e-12 + 1e-9 * std::max(std::abs(a), std::abs(b)));
}

core::FfbpSimResult run_small_ffbp(ep::ChipConfig cfg) {
  const auto p = sar::test_params(32, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  core::FfbpMapOptions opt;
  opt.n_cores = 16;
  return core::run_ffbp_epiphany(data, p, opt, cfg);
}

core::AfSimResult run_small_mpmd(ep::ChipConfig cfg) {
  af::AfParams p;
  Rng rng(42);
  std::vector<af::BlockPair> pairs;
  for (int i = 0; i < 4; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));
  return core::run_autofocus_mpmd(pairs, p, {}, cfg);
}

// ---------------------------------------------------------- conservation

TEST(PowerConservation, TraceReconcilesWithAggregateEnergy) {
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  cfg.power.epoch_cycles = 512; // many epochs on the small run
  const auto sim = run_small_ffbp(cfg);
  ASSERT_TRUE(sim.power.enabled);
  const auto& tr = sim.power.trace;
  ASSERT_GT(tr.n_epochs, 4u);

  const double total = sim.energy.total_j();
  expect_close(tr.total_j, total);

  // The chip row is the column sum of the per-core grid, bin by bin, and
  // the bins sum back to the aggregate model's joules.
  double sum = 0.0;
  for (std::size_t e = 0; e < tr.n_epochs; ++e) {
    double col = 0.0;
    for (int c = 0; c < tr.n_cores; ++c) col += tr.joules(c, e);
    expect_close(col, tr.chip_j[e]);
    sum += tr.chip_j[e];
  }
  expect_close(sum, total);
}

TEST(PowerConservation, RebinningFoldPreservesTotals) {
  // A tiny epoch with a tiny cap forces the sampler to re-bin (double the
  // epoch and fold pairwise) many times; joules must survive exactly.
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  cfg.power.epoch_cycles = 16;
  cfg.power.max_epochs = 8;
  const auto sim = run_small_ffbp(cfg);
  const auto& tr = sim.power.trace;
  EXPECT_LE(tr.n_epochs, 8u);
  EXPECT_GT(tr.epoch_cycles, Cycles{16});
  expect_close(tr.total_j, sim.energy.total_j());
}

TEST(PowerConservation, SpanProfileReconcilesWithAggregateEnergy) {
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  const auto sim = run_small_ffbp(cfg);
  const auto& prof = sim.power.profile;
  expect_close(prof.attributed_j + prof.unattributed_j, prof.total_j);
  expect_close(prof.total_j, sim.energy.total_j());
}

// ------------------------------------------------------ zero-perturbation

void expect_same_run(const core::FfbpSimResult& a,
                     const core::FfbpSimResult& b, const char* what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.image, b.image) << what;
  EXPECT_EQ(a.perf.makespan, b.perf.makespan) << what;
  EXPECT_EQ(a.perf.engine_events, b.perf.engine_events) << what;
  ASSERT_EQ(a.perf.per_core.size(), b.perf.per_core.size()) << what;
  for (std::size_t i = 0; i < a.perf.per_core.size(); ++i) {
    const auto& ca = a.perf.per_core[i];
    const auto& cb = b.perf.per_core[i];
    EXPECT_EQ(ca.busy, cb.busy) << what << " core " << i;
    EXPECT_EQ(ca.total_wait(), cb.total_wait()) << what << " core " << i;
    EXPECT_EQ(ca.finish_time, cb.finish_time) << what << " core " << i;
    EXPECT_EQ(ca.ops.flops(), cb.ops.flops()) << what << " core " << i;
    EXPECT_EQ(ca.dma_bytes, cb.dma_bytes) << what << " core " << i;
  }
  EXPECT_EQ(a.perf.noc_total.transfers, b.perf.noc_total.transfers) << what;
  EXPECT_EQ(a.perf.noc_total.bytes, b.perf.noc_total.bytes) << what;
  EXPECT_EQ(a.perf.noc_total.byte_hops, b.perf.noc_total.byte_hops) << what;
  EXPECT_EQ(a.perf.ext.read_bytes, b.perf.ext.read_bytes) << what;
  EXPECT_EQ(a.perf.ext.write_bytes, b.perf.ext.write_bytes) << what;
}

TEST(PowerZeroPerturbation, SamplingNeverChangesTheRun) {
  const auto off = run_small_ffbp({});

  ep::ChipConfig fine;
  fine.power.enabled = true;
  fine.power.epoch_cycles = 64;
  expect_same_run(off, run_small_ffbp(fine), "epoch=64");

  ep::ChipConfig coarse;
  coarse.power.enabled = true; // default epoch size
  expect_same_run(off, run_small_ffbp(coarse), "epoch=default");

  ep::ChipConfig checked;
  checked.power.enabled = true;
  checked.check.enabled = true;
  expect_same_run(off, run_small_ffbp(checked), "checker+power");
}

TEST(PowerZeroPerturbation, FaultCampaignScheduleHashUnchanged) {
  ep::ChipConfig plain;
  plain.faults.seed = 99;
  plain.faults.dma_corrupt_rate = 1e-3;
  const auto a = run_small_ffbp(plain);

  ep::ChipConfig sampled = plain;
  sampled.power.enabled = true;
  sampled.power.epoch_cycles = 128;
  const auto b = run_small_ffbp(sampled);

  EXPECT_EQ(a.faults.schedule_hash, b.faults.schedule_hash);
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  expect_same_run(a, b, "faults+power");
}

// ------------------------------------------------------------ energy model

TEST(ClockGating, IdlingACoreNeverIncreasesTotalEnergy) {
  ep::PerfReport rep;
  rep.makespan = 100'000;
  rep.per_core.resize(16);
  for (auto& c : rep.per_core) {
    c.busy = 80'000;
    c.ops.fadd = 10'000;
    c.ops.load = 5'000;
  }
  double prev = ep::compute_energy(rep).total_j();
  // Progressively clock-gate one core (same makespan, same ops): the
  // idle rate is below the active rate, so total energy is monotone
  // non-increasing in busy cycles.
  for (Cycles busy : {Cycles{60'000}, Cycles{30'000}, Cycles{0}}) {
    rep.per_core[7].busy = busy;
    const double now = ep::compute_energy(rep).total_j();
    EXPECT_LE(now, prev) << "busy=" << busy;
    prev = now;
  }
}

TEST(EnergyGuards, ZeroCycleRunHasFiniteAvgWatts) {
  ep::PerfReport rep; // makespan == 0, no cores ran
  const auto e = ep::compute_energy(rep);
  EXPECT_TRUE(std::isfinite(e.avg_watts));
  EXPECT_EQ(e.avg_watts, 0.0);
}

// -------------------------------------------------------- span attribution

TEST(SpanAttribution, PipelinePhasesAreAttributed) {
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  const auto sim = run_small_mpmd(cfg);
  ASSERT_TRUE(sim.power.enabled);
  const auto& prof = sim.power.profile;
  expect_close(prof.attributed_j + prof.unattributed_j, prof.total_j);
  expect_close(prof.total_j, sim.energy.total_j());

  bool range = false, beam = false, corr = false;
  for (const auto& e : prof.entries) {
    if (e.name == "range-interp") range = true;
    if (e.name == "beam-interp") beam = true;
    if (e.name == "criterion-block") corr = true;
    EXPECT_GT(e.spans, 0) << e.name;
  }
  EXPECT_TRUE(range && beam && corr);
  // The pipeline's compute phases dominate: most joules are attributed.
  EXPECT_GT(prof.attributed_j, prof.unattributed_j);
}

using Activity = ep::PowerSampler::Activity;

Activity compute_activity(const ep::CostModel& cost, const OpCounts& ops) {
  Activity a;
  a.busy = static_cast<double>(cost.cycles(ops));
  a.fp = static_cast<double>(ops.fp_issues());
  a.ialu = static_cast<double>(ops.ialu);
  a.ldst = static_cast<double>(ops.load + ops.store);
  return a;
}

void expect_same_activity(const Activity& a, const Activity& b,
                          const std::string& what) {
  EXPECT_EQ(a.busy, b.busy) << what;
  EXPECT_EQ(a.fp, b.fp) << what;
  EXPECT_EQ(a.ialu, b.ialu) << what;
  EXPECT_EQ(a.ldst, b.ldst) << what;
  EXPECT_EQ(a.byte_hops, b.byte_hops) << what;
  EXPECT_EQ(a.elink_bytes, b.elink_bytes) << what;
}

// The activity-proportional joules of one span, in build_span_profile's
// order of operations.
double span_joules(const Activity& a, const ep::EnergyParams& p) {
  return (a.busy * p.core_active_pj_per_cycle + a.fp * p.flop_pj +
          a.ialu * p.ialu_pj + a.ldst * p.ldst_local_pj +
          a.byte_hops * p.noc_pj_per_byte_hop +
          a.elink_bytes * p.elink_pj_per_byte) *
         1e-12;
}

TEST(SpanAttribution, ChargesTheInnermostSpanExactly) {
  // Nested spans, one name open on two cores at once, activity with no
  // span open, a name reopened after it closed, and an 8-cycle epoch
  // capped at 4 bins, so the sampler folds many times mid-run. Each
  // name's totals must be exactly what was charged while it was innermost.
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  cfg.power.epoch_cycles = 8;
  cfg.power.max_epochs = 4;
  ep::Machine m(cfg, 1 << 16);
  const ep::CostModel& cost = m.cost_model();
  auto ext = m.ext().alloc<std::uint8_t>(256);
  auto mailbox = m.core(0).mem().alloc<std::uint8_t>(64);

  OpCounts a, b, c, d, e, f, g, h, k;
  a.fadd = 40;
  b.fma = 301;
  b.load = 7;
  c.fmul = 123;
  c.ialu = 45;
  d.ialu = 17;
  d.store = 3;
  e.fadd = 900; // core 5 opens "phase/2" before core 0 opens "phase/1"
  f.load = 33;
  g.fma = 517;
  g.store = 11;
  h.fcmp = 13;
  h.ialu = 6;
  k.fma = 100'007; // dwarfs its group's other spans
  k.ialu = 1'234;

  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto local = ctx.local().alloc<std::uint8_t>(256);
    co_await ctx.compute(a); // no span open
    ctx.begin_span("phase/10");
    co_await ctx.compute(b);
    ctx.begin_span("inner");
    co_await ctx.compute(c);
    co_await ctx.write_ext(ext.data(), local.data(), 256);
    ctx.end_span();
    co_await ctx.compute(d); // the outer span again
    ctx.end_span();
    ctx.begin_span("phase/10"); // reopened
    co_await ctx.compute(e);
    ctx.end_span();
    ctx.begin_span("phase/1");
    co_await ctx.compute(k);
    ctx.end_span();
    co_await ctx.compute(f); // no span open
  });
  m.launch(5, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto local = ctx.local().alloc<std::uint8_t>(64);
    ctx.begin_span("phase/10"); // open on core 0 at the same time
    co_await ctx.compute(g);
    ctx.end_span();
    ctx.begin_span("phase/2");
    co_await ctx.compute(h);
    co_await ctx.write_remote(m.coord_of(0), mailbox.data(), local.data(),
                              64);
    ctx.end_span();
  });
  m.run();
  const ep::PerfReport rep = m.report();
  const ep::PowerSampler& s = *m.power_sampler();
  ASSERT_GT(s.epoch_cycles(), Cycles{8}) << "the run should have folded";

  // Expected totals, summed in the order the run charged them.
  Activity inner = compute_activity(cost, c);
  inner.byte_hops += static_cast<double>(rep.noc_write_offchip.byte_hops);
  inner.elink_bytes += 256.0;
  Activity phase10 = compute_activity(cost, g); // core 5, at cycle 0
  phase10 += compute_activity(cost, b);
  phase10 += compute_activity(cost, d);
  phase10 += compute_activity(cost, e);
  const Activity phase1 = compute_activity(cost, k);
  Activity phase2 = compute_activity(cost, h);
  phase2.byte_hops += static_cast<double>(rep.noc_write_onchip.byte_hops);
  Activity spanless = compute_activity(cost, a);
  spanless += compute_activity(cost, f);

  ASSERT_EQ(s.span_names().by_name().size(), 4u);
  const auto charged = [&](const char* name) {
    const Activity* act = s.span_activity(s.span_names().by_name().at(name));
    EXPECT_NE(act, nullptr) << name;
    return act != nullptr ? *act : Activity{};
  };
  expect_same_activity(charged("inner"), inner, "inner");
  expect_same_activity(charged("phase/1"), phase1, "phase/1");
  expect_same_activity(charged("phase/10"), phase10, "phase/10");
  expect_same_activity(charged("phase/2"), phase2, "phase/2");
  expect_same_activity(s.spanless(), spanless, "spanless");

  // Groups sum their spans in name order ("phase/1" < "phase/10" <
  // "phase/2"), not in the order the run opened them (10, 2, 1). The op
  // counts make the two orders round differently.
  const ep::EnergyParams p;
  const auto prof = ep::build_span_profile(s, rep, p);
  double phase_j = 0.0;
  phase_j += span_joules(phase1, p);
  phase_j += span_joules(phase10, p);
  phase_j += span_joules(phase2, p);
  double inner_j = 0.0;
  inner_j += span_joules(inner, p);
  ASSERT_EQ(prof.entries.size(), 2u);
  EXPECT_EQ(prof.entries[0].name, "phase");
  EXPECT_EQ(prof.entries[0].spans, 3);
  EXPECT_EQ(prof.entries[0].joules, phase_j);
  EXPECT_EQ(prof.entries[1].name, "inner");
  EXPECT_EQ(prof.entries[1].spans, 1);
  EXPECT_EQ(prof.entries[1].joules, inner_j);
  double attributed = 0.0;
  attributed += inner_j;
  attributed += phase_j;
  EXPECT_EQ(prof.attributed_j, attributed);
}

void expect_same_profile(const ep::SpanEnergyProfile& a,
                         const ep::SpanEnergyProfile& b,
                         const std::string& what) {
  ASSERT_EQ(a.entries.size(), b.entries.size()) << what;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const auto& x = a.entries[i];
    const auto& y = b.entries[i];
    EXPECT_EQ(x.name, y.name) << what;
    EXPECT_EQ(x.joules, y.joules) << what << " " << x.name;
    EXPECT_EQ(x.busy_cycles, y.busy_cycles) << what << " " << x.name;
    EXPECT_EQ(x.active_j, y.active_j) << what << " " << x.name;
    EXPECT_EQ(x.alu_j, y.alu_j) << what << " " << x.name;
    EXPECT_EQ(x.noc_j, y.noc_j) << what << " " << x.name;
    EXPECT_EQ(x.elink_j, y.elink_j) << what << " " << x.name;
    EXPECT_EQ(x.spans, y.spans) << what << " " << x.name;
  }
  EXPECT_EQ(a.attributed_j, b.attributed_j) << what;
}

TEST(SpanAttribution, ProfileIsIndependentOfBinning) {
  // Spans are charged whole, never split by epoch, so no epoch size or cap
  // may move a bit of the profile. Seeded draws of both.
  ep::ChipConfig base;
  base.power.enabled = true;
  const auto ffbp = run_small_ffbp(base).power.profile;
  const auto mpmd = run_small_mpmd(base).power.profile;
  ASSERT_FALSE(ffbp.entries.empty());
  ASSERT_FALSE(mpmd.entries.empty());
  Rng rng(20260);
  for (int draw = 0; draw < 8; ++draw) {
    ep::ChipConfig cfg = base;
    cfg.power.epoch_cycles = 1 + rng.below(Cycles{1} << 20);
    cfg.power.max_epochs = 2 + rng.below(4095);
    const std::string what =
        "epoch_cycles=" + std::to_string(cfg.power.epoch_cycles) +
        " max_epochs=" + std::to_string(cfg.power.max_epochs);
    expect_same_profile(ffbp, run_small_ffbp(cfg).power.profile,
                        "ffbp " + what);
    expect_same_profile(mpmd, run_small_mpmd(cfg).power.profile,
                        "mpmd " + what);
  }
}

// ----------------------------------------------------- binning reference

using Activity = ep::PowerSampler::Activity;

/// The sampler's epoch binning as a plain division loop: fold until the
/// charge's last cycle fits under the cap, then split it over every epoch
/// it overlaps, pro rata. PowerSampler must reproduce these bins bit for
/// bit whichever fast path it takes.
struct ReferenceBins {
  Cycles epoch;
  std::size_t max_epochs;
  std::vector<std::vector<Activity>> bins;

  void charge(std::size_t core, Cycles start, Cycles end, const Activity& a) {
    if (end <= start) end = start + 1;
    while ((end - 1) / epoch >= max_epochs) {
      epoch *= 2;
      for (auto& b : bins) {
        const std::size_t folded = (b.size() + 1) / 2;
        for (std::size_t i = 0; i < folded; ++i) {
          Activity merged = b[2 * i];
          if (2 * i + 1 < b.size()) merged += b[2 * i + 1];
          b[i] = merged;
        }
        b.resize(folded);
      }
    }
    std::vector<Activity>& b = bins[core];
    const std::size_t first = start / epoch;
    const std::size_t last = (end - 1) / epoch;
    if (b.size() <= last) b.resize(last + 1);
    const double duration = static_cast<double>(end - start);
    for (std::size_t e = first; e <= last; ++e) {
      const Cycles lo = std::max<Cycles>(start, e * epoch);
      const Cycles hi = std::min<Cycles>(end, (e + 1) * epoch);
      const double frac = static_cast<double>(hi - lo) / duration;
      b[e].busy += a.busy * frac;
      b[e].fp += a.fp * frac;
      b[e].ialu += a.ialu * frac;
      b[e].ldst += a.ldst * frac;
      b[e].byte_hops += a.byte_hops * frac;
      b[e].elink_bytes += a.elink_bytes * frac;
    }
  }
};

void expect_same_bits(const Activity& a, const Activity& b,
                      const std::string& what) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(a.busy), bits(b.busy)) << what;
  EXPECT_EQ(bits(a.fp), bits(b.fp)) << what;
  EXPECT_EQ(bits(a.ialu), bits(b.ialu)) << what;
  EXPECT_EQ(bits(a.ldst), bits(b.ldst)) << what;
  EXPECT_EQ(bits(a.byte_hops), bits(b.byte_hops)) << what;
  EXPECT_EQ(bits(a.elink_bytes), bits(b.elink_bytes)) << what;
}

/// Feed `n` seeded charges on 4 cores to a sampler and to the reference
/// loop, and compare every bin and span total bit for bit. Each core's
/// clock mostly moves forward, in steps of about `step` cycles; charges
/// last from 0 to about 3 epochs, some end before they start, a quarter
/// start up to 2 steps early, as NoC charges do, and some start or end at
/// an epoch edge. No charge ends past `horizon`.
void expect_binning_matches_reference(Cycles epoch, std::size_t max_epochs,
                                      Cycles step, int n, std::uint64_t seed,
                                      Cycles horizon = Cycles{1} << 40) {
  const std::string what = "epoch=" + std::to_string(epoch) +
                           " max_epochs=" + std::to_string(max_epochs);
  constexpr int kCores = 4;
  ep::ChipConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  ep::PowerOptions opt;
  opt.epoch_cycles = epoch;
  opt.max_epochs = max_epochs;
  ep::SpanNames names;
  ep::PowerSampler sampler(cfg, opt, names);
  const ep::SpanId spans[] = {names.intern("a/0"), names.intern("b/0")};
  std::vector<ep::SpanId> open[kCores];
  for (int c = 0; c < kCores; ++c) sampler.register_core(c, &open[c]);
  for (const ep::SpanId id : spans) sampler.reserve_span(id);

  ReferenceBins ref{epoch, max_epochs, std::vector<std::vector<Activity>>(kCores)};
  std::vector<Activity> ref_span(2);
  Activity ref_spanless;
  Cycles clock[kCores] = {};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const int core = static_cast<int>(rng.below(kCores));
    Cycles& now = clock[core];
    now += rng.below(2 * step + 1);
    const Cycles early = rng.below(4) == 0 ? rng.below(2 * step + 1) : 0;
    Cycles start = now - std::min(now, early);
    // Some charges start or end within a cycle of an epoch edge, where an
    // off-by-one in the fast path's bounds would show.
    const Cycles edge = start / ref.epoch * ref.epoch;
    if (rng.below(8) == 0 && edge > 0) start = edge - 1 + rng.below(3);
    Cycles end = start;
    switch (rng.below(5)) {
      case 0: break; // instantaneous
      case 1: end = start - std::min(start, rng.below(step + 1)); break;
      case 2: end = start + 1 + rng.below(3 * epoch); break; // straddles
      case 3: end = (start / ref.epoch + 1) * ref.epoch - 1 + rng.below(3); break;
      default: end = start + 1 + rng.below(step + 1); break;
    }
    end = std::min(end, horizon);
    if (rng.below(3) == 0) {
      open[core].clear();
    } else if (rng.below(2) == 0) {
      open[core].assign(1, spans[rng.below(2)]);
    }
    Activity a;
    switch (rng.below(3)) {
      case 0: {
        if (end < start) end = start;
        OpCounts ops;
        ops.fma = rng.below(5000);
        ops.ialu = rng.below(700);
        ops.load = rng.below(300);
        sampler.record_compute(core, start, end, ops);
        a.busy = static_cast<double>(end - start);
        a.fp = static_cast<double>(ops.fp_issues());
        a.ialu = static_cast<double>(ops.ialu);
        a.ldst = static_cast<double>(ops.load + ops.store);
        break;
      }
      case 1: {
        const std::uint64_t byte_hops = 1 + rng.below(1 << 16);
        sampler.record_noc(core, byte_hops, start, end);
        a.byte_hops = static_cast<double>(byte_hops);
        break;
      }
      default: {
        const std::uint64_t bytes = 1 + rng.below(1 << 12);
        sampler.record_elink(core, bytes, start, end);
        a.elink_bytes = static_cast<double>(bytes);
        break;
      }
    }
    ref.charge(static_cast<std::size_t>(core), start, end, a);
    if (open[core].empty()) {
      ref_spanless += a;
    } else {
      ref_span[open[core].back() == spans[0] ? 0 : 1] += a;
    }
  }

  ASSERT_EQ(sampler.epoch_cycles(), ref.epoch) << what;
  for (int c = 0; c < kCores; ++c) {
    const auto& bins = sampler.core_bins(c);
    ASSERT_EQ(bins.size(), ref.bins[static_cast<std::size_t>(c)].size())
        << what;
    for (std::size_t e = 0; e < bins.size(); ++e)
      expect_same_bits(bins[e], ref.bins[static_cast<std::size_t>(c)][e],
                       what + " core " + std::to_string(c) + " epoch " +
                           std::to_string(e));
  }
  for (int k = 0; k < 2; ++k) {
    ASSERT_NE(sampler.span_activity(spans[k]), nullptr) << what;
    expect_same_bits(*sampler.span_activity(spans[k]), ref_span[k],
                     what + " span " + std::to_string(k));
  }
  expect_same_bits(sampler.spanless(), ref_spanless, what + " spanless");
}

TEST(PowerBinning, MatchesTheDivisionLoopBitForBit) {
  // Folds every few charges on a 2-epoch cap, at a steady pace on a
  // 16-epoch cap, none under the default cap, and 2^62-cycle epochs
  // (charges end within 3 epochs, short of where `(e + 1) * epoch` wraps).
  expect_binning_matches_reference(64, 2, 40, 3000, 1);
  expect_binning_matches_reference(100, 16, 30, 5000, 2);
  expect_binning_matches_reference(8192, 4096, 500, 20000, 3);
  expect_binning_matches_reference(Cycles{1} << 62, 4096, Cycles{1} << 57,
                                   40, 4, 3 * (Cycles{1} << 62));
}

// ------------------------------------------------------------- artefacts

TEST(PowerArtifacts, CsvAndHeatmapAreWritten) {
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  const auto sim = run_small_ffbp(cfg);
  const auto dir = std::filesystem::temp_directory_path();
  const auto csv = dir / "esarp_test_power.csv";
  const auto pgm = dir / "esarp_test_power.pgm";
  ep::write_power_csv(csv, sim.power.trace);
  ep::write_power_heatmap(pgm, sim.power.trace);
  std::ifstream fc(csv);
  std::string header;
  std::getline(fc, header);
  EXPECT_EQ(header.rfind("epoch,start_cycle,seconds,chip_j,chip_w", 0), 0u);
  std::ifstream fp(pgm);
  std::string magic;
  fp >> magic;
  EXPECT_EQ(magic, "P5");
  std::filesystem::remove(csv);
  std::filesystem::remove(pgm);
}

// ------------------------------------------------------- non-finite guards

TEST(ManifestGuards, WriteRejectsNonFiniteValues) {
  telemetry::RunManifest man("t");
  man.add_result("bad", std::numeric_limits<double>::quiet_NaN());
  std::ostringstream os;
  EXPECT_THROW(man.write(os), ContractViolation);
}

TEST(CompareGuards, NonFiniteValueIsANamedRegression) {
  const char* good =
      R"({"schema":"esarp-run-manifest/1","tool":"t",)"
      R"("results":{"energy_j":1.0}})";
  const char* bad =
      R"({"schema":"esarp-run-manifest/1","tool":"t",)"
      R"("results":{"energy_j":null}})";
  const auto rep =
      telemetry::compare_manifests(parse_json(good), parse_json(bad));
  EXPECT_FALSE(rep.ok());
  bool named = false;
  for (const auto& l : rep.lines)
    if (l.key == "results.energy_j" && l.unusable &&
        l.problem.find("non-finite") != std::string::npos)
      named = true;
  EXPECT_TRUE(named);
}

} // namespace
} // namespace esarp
