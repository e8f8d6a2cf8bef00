#include "core/ffbp_epiphany.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "common/assert.hpp"
#include "common/fastmath.hpp"
#include "core/ffbp_layout.hpp"
#include "core/mapping_profiles.hpp"
#include "epiphany/machine_metrics.hpp"
#include "epiphany/resilient.hpp"
#include "sar/kernels.hpp"
#include "sar/merge_kernel.hpp"

namespace esarp::core {

namespace {

struct SharedState {
  std::span<cf32> buf_a;
  std::span<cf32> buf_b;
  std::vector<LevelPrefetchStats> stats;
  std::unique_ptr<ep::SimBarrier> barrier;
  // Autofocus integration (null when disabled): per-pair shifts of the
  // level being produced, plus the applied-correction log.
  std::vector<float> shifts;
  std::vector<af::MergeCorrection> corrections;
  // Fault-campaign checkpoints in SDRAM (empty outside a campaign), one
  // array per merge level: row_done[level-1][row] flips to 1 once that
  // output row is verified in the destination buffer, af_done[level-1][pair]
  // once that pair's shift is published. Survivors of a fail-stop scan them
  // to repartition the unfinished work (docs/fault-injection.md).
  std::vector<std::span<std::uint32_t>> row_done;
  std::vector<std::span<std::uint32_t>> af_done;
  // Host scratch for the cosine-theorem geometry (eqs. 1-4), which
  // depends on the level and the parent theta row but not on the
  // subaperture pair: row ti of a sharing level (row_geometry), and the
  // level it currently holds in geom_level[ti] (0: none; the table is
  // not zero-filled). Every level but the last shares, so n_pulses / 2
  // rows cover them all.
  std::unique_ptr<sar::MergeGeom[]> geom_table;
  std::vector<std::size_t> geom_level;
};

/// Rebuild a child subaperture (level `lvl`, index `subap`) from its SDRAM
/// level buffer, with the exact phase-centre the host factorisation
/// assigns (uniform track: the mean of its pulse positions).
sar::SubapertureImage load_subaperture(std::span<const cf32> src,
                                       const LevelLayout& lc,
                                       const sar::RadarParams& p,
                                       std::size_t lvl, std::size_t subap) {
  sar::SubapertureImage s;
  s.level = lvl;
  s.n_pulses = std::size_t{1} << lvl;
  s.first_pulse = subap * s.n_pulses;
  s.x_center = 0.5 * (p.pulse_x(s.first_pulse) +
                      p.pulse_x(s.first_pulse + s.n_pulses - 1));
  s.data = Array2D<cf32>(lc.n_theta, lc.n_range);
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(lc.offset(subap, 0)),
            src.begin() +
                static_cast<std::ptrdiff_t>(lc.offset(subap, 0) +
                                            lc.n_theta * lc.n_range),
            s.data.data());
  return s;
}

/// Which child theta rows parent row `ti` needs: those of its mid-swath
/// pixel, clamped to the child grid. The prefetchers stage these rows.
std::pair<int, int> predict_rows(const sar::RadarParams& p,
                                 const sar::MergeLevelGeom& geom,
                                 std::size_t ti) {
  const sar::ChildGrid& grid = geom.child;
  const float cr = 2.0f * geom.d * fastmath::poly_cos(geom.theta_of_row(p, ti));
  const float r_mid = static_cast<float>(p.near_range_m) +
                      static_cast<float>(p.n_range / 2) *
                          static_cast<float>(p.range_bin_m);
  const sar::MergeGeom mid =
      sar::merge_geometry(r_mid, cr, geom.d2, geom.inv_2d);
  const auto clamp_bin = [&](float th) {
    const float f = (th - grid.theta_start) * grid.inv_dtheta;
    int b = static_cast<int>(f);
    if (b < 0) b = 0;
    if (b >= grid.n_theta) b = grid.n_theta - 1;
    return b;
  };
  return {clamp_bin(mid.theta1), clamp_bin(mid.theta2)};
}

/// The cosine-theorem geometry (eqs. 1-4) of parent row `ti` at `level`.
/// Every level but the last has at least two subapertures and keeps it
/// in the shared table, computed the first time any core merges that row
/// and reused by every other core and pair; one machine runs on one host
/// thread, so the fill needs no lock. The last level, one subaperture,
/// computes it into `scratch`.
const sar::MergeGeom* row_geometry(SharedState& st, const sar::RadarParams& p,
                                   std::size_t level,
                                   const sar::MergeLevelGeom& geom,
                                   std::size_t ti,
                                   std::span<sar::MergeGeom> scratch) {
  sar::MergeGeom* out = scratch.data();
  if (level < p.merge_levels()) {
    out = st.geom_table.get() + ti * p.n_range;
    if (st.geom_level[ti] == level) return out;
    st.geom_level[ti] = level;
  }
  const float cr = 2.0f * geom.d * fastmath::poly_cos(geom.theta_of_row(p, ti));
  sar::kernels::merge_geometry_row(static_cast<float>(p.near_range_m),
                                   static_cast<float>(p.range_bin_m), 0,
                                   p.n_range, cr, geom.d2, geom.inv_2d, out);
  return out;
}

/// Live launch-set cores at `now` under the campaign's fail-stop schedule.
/// Pure in (plan, now): at a common post-barrier cycle every survivor
/// computes the identical set, which is what makes the repartition
/// bookkeeping below coordinator-free.
std::vector<int> alive_cores(const fault::FaultInjector& inj, int n_cores,
                             ep::Cycles now) {
  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(n_cores));
  for (int c = 0; c < n_cores; ++c)
    if (!inj.fail_stop_due(c, static_cast<std::uint64_t>(now)))
      alive.push_back(c);
  return alive;
}

[[nodiscard]] std::size_t rank_of(const std::vector<int>& alive, int core) {
  for (std::size_t i = 0; i < alive.size(); ++i)
    if (alive[i] == core) return i;
  // A core only ranks itself after passing its own fail_stop_due() check,
  // so it is always in the set it just computed.
  ESARP_REQUIRE(false, "core not in its own live set");
  return 0;
}

/// The FFBP core program (paper Section V-B). Each merge level's output
/// rows are split into contiguous slices, one per core; a core stages the
/// two predicted child rows of each output row in its data banks by DMA,
/// merges the row, posts it to SDRAM, and a barrier closes the level.
///
/// On a fault campaign (a FaultInjector on the machine, with
/// plan.resilient; docs/fault-injection.md) the same arithmetic runs under
/// hardened control flow:
///
///  - ctx.fail_stop_due() is polled at every work-item boundary (row, af
///    pair, pass); a due core records its failure and stops without
///    arriving at the barrier, so the survivors' failure detection (which
///    uses the same oracle) has no false positives.
///  - All SDRAM payload traffic goes through the reliable_* wrappers:
///    checksum-verified, retried with exponential backoff on injected
///    corruption / drops / bit flips.
///  - Each merge level runs as repartition passes over the SDRAM row_done
///    checkpoint flags: process your slice of the unfinished rows, cross
///    the (failure-detecting) barrier, rescan — surviving cores pick up a
///    fail-stopped core's rows instead of deadlocking. Rows are idempotent,
///    so a row caught mid-flight by a failure is simply recomputed.
///  - Autofocus degrades instead of redistributing: pairs a failed core
///    never finished fall back to a zero shift (uncompensated merge) and
///    are counted as fault.af_pairs_dropped.
///
/// Outside a campaign every fail-stop poll is false and every wrapper is
/// the plain operation. With plan.resilient == false the wrappers and the
/// barrier stay plain while the fail-stop polls stay on: that configuration
/// demonstrates the pre-recovery behaviour, where one fail-stopped core
/// deadlocks the whole chip (SimDeadlock). Only fault-free runs double-buffer
/// the prefetch; a campaign's verification serializes each transfer anyway.
ep::Task ffbp_core_program(ep::CoreCtx& ctx, const sar::RadarParams& p,
                           const FfbpMapOptions& opt, SharedState& st,
                           int core_index) {
  fault::FaultInjector* inj = ctx.fault_injector();
  const bool resilient = inj != nullptr && inj->plan().resilient;
  const bool double_buffer = opt.double_buffer && inj == nullptr;
  const std::size_t n_levels = p.merge_levels();
  const std::size_t n_range = p.n_range;
  const std::size_t row_bytes = n_range * sizeof(cf32);
  const float drf = static_cast<float>(p.range_bin_m);
  const std::size_t n = static_cast<std::size_t>(opt.n_cores);

  // Local-store layout (paper Section V-B): bank 1 stages the output row;
  // banks 2 and 3 — "the two upper data banks" — hold one row of each
  // contributing child subaperture (16,016 bytes at paper size). With
  // double buffering each data bank holds two rows (ping/pong).
  auto out_row = ctx.local().alloc_in_bank<cf32>(n_range, 1);
  auto child_row1 = ctx.local().alloc_in_bank<cf32>(
      double_buffer ? 2 * n_range : n_range, 2);
  auto child_row2 = ctx.local().alloc_in_bank<cf32>(
      double_buffer ? 2 * n_range : n_range, 3);
  std::size_t pong = 0; // active half of the double buffers

  const sar::FfbpOptions algo =
      opt.autofocus != nullptr ? opt.autofocus->ffbp : opt.algo;
  const OpCounts pixel_ops = sar::merge_pixel_ops(algo);
  // Host-side scratch for the geometry of the last level, which does not
  // share it; the simulated local-store budget is unaffected (the
  // geometry never lived in a bank).
  std::vector<sar::MergeGeom> geom_row(n_range);

  std::span<cf32> src = st.buf_a;
  std::span<cf32> dst = st.buf_b;

  for (std::size_t level = 1; level <= n_levels; ++level) {
    ctx.begin_span("merge-iter/" + std::to_string(level));
    const LevelLayout lc = LevelLayout::at(p, level - 1);
    const LevelLayout lp = LevelLayout::at(p, level);
    const sar::MergeLevelGeom geom = sar::merge_level_geom(p, level);
    const std::size_t rows_total = lp.rows_total();

    // --- Autofocus phase (paper Fig. 4): before this level's merges, the
    // cores divide the subaperture pairs among themselves, stream both
    // children from SDRAM, and run the criterion estimator. A barrier
    // publishes the shifts before any merge starts. Level entry is a
    // uniform instant (launch or the aligned barrier release), so every
    // survivor of a campaign strides over the same live set.
    const bool af_level =
        opt.autofocus != nullptr && level >= opt.autofocus->first_level;
    if (opt.autofocus != nullptr) {
      if (ctx.fail_stop_due()) {
        ctx.mark_failed();
        co_return;
      }
      std::size_t stride = n;
      std::size_t first = static_cast<std::size_t>(core_index);
      std::span<std::uint32_t> af_done;
      if (resilient) {
        const std::vector<int> alive =
            alive_cores(*inj, opt.n_cores, ctx.now());
        stride = alive.size();
        first = rank_of(alive, core_index);
        af_done = st.af_done[level - 1];
      }
      ctx.begin_span("af-estimate/" + std::to_string(level));
      for (std::size_t pair = first; pair < lp.n_subaps; pair += stride) {
        if (ctx.fail_stop_due()) {
          ctx.mark_failed();
          co_return;
        }
        if (!af_level) {
          st.shifts[pair] = 0.0f;
          continue;
        }
        ctx.begin_span("criterion-block/" + std::to_string(pair));
        const auto a = load_subaperture(src, lc, p, level - 1, 2 * pair);
        const auto b = load_subaperture(src, lc, p, level - 1, 2 * pair + 1);
        // Streaming both children through the core: two bulk SDRAM reads.
        const std::size_t child_bytes = lc.n_theta * lc.n_range * sizeof(cf32);
        co_await ctx.read_ext_gather(2, child_bytes);
        OpCounts est_ops;
        const af::PairEstimate est =
            af::estimate_pair_shift(a, b, p, *opt.autofocus, &est_ops, nullptr);
        co_await ctx.compute(est_ops);
        st.shifts[pair] = est.applied(opt.autofocus->min_gain);
        st.corrections.push_back({level, pair, st.shifts[pair], est.gain});
        if (resilient) {
          const std::uint32_t done_flag = 1;
          co_await ep::reliable_write_ext(ctx, &af_done[pair], &done_flag,
                                          sizeof(done_flag));
        }
        ctx.end_span();
      }
      ctx.end_span();
      co_await st.barrier->arrive_and_wait(ctx);
      if (resilient && af_level) {
        // Uniform post-barrier instant: every survivor sees the identical
        // flag snapshot, so all agree on which pairs a failed core left
        // unfinished. Those merge uncompensated (shift 0); the
        // lowest-ranked survivor accounts for the drops once.
        const std::vector<int> after =
            alive_cores(*inj, opt.n_cores, ctx.now());
        const bool accountant = after.front() == core_index;
        std::size_t dropped = 0;
        for (std::size_t pair = 0; pair < lp.n_subaps; ++pair) {
          if (af_done[pair] != 0) continue;
          st.shifts[pair] = 0.0f;
          ++dropped;
          if (accountant) inj->count_af_pair_dropped();
        }
        if (dropped > 0 && ctx.checker() != nullptr)
          ctx.checker()->set_fault_degraded();
        co_await ctx.read_ext_gather(lp.n_subaps, sizeof(std::uint32_t));
      }
    }

    // Predict output row `gr`'s two child rows and describe their DMA into
    // half `half` of the data banks; `s1`/`s2` name the rows staged there.
    const auto stage = [&](std::size_t gr, std::size_t half,
                           sar::ChildSource& s1, sar::ChildSource& s2) {
      const std::size_t subap = gr / lp.n_theta;
      const auto [a1, a2] = predict_rows(p, geom, gr % lp.n_theta);
      cf32* const dst1 = child_row1.data() + half * n_range;
      cf32* const dst2 = child_row2.data() + half * n_range;
      s1.staged_row = a1;
      s1.staged = dst1;
      s2.staged_row = a2;
      s2.staged = dst2;
      const auto row1 = static_cast<std::size_t>(a1);
      const auto row2 = static_cast<std::size_t>(a2);
      return std::array<ep::DmaSeg, 2>{
          {{dst1, src.data() + lc.offset(2 * subap, row1), row_bytes},
           {dst2, src.data() + lc.offset(2 * subap + 1, row2), row_bytes}}};
    };

    std::span<std::uint32_t> row_done =
        resilient ? st.row_done[level - 1] : std::span<std::uint32_t>{};
    for (std::size_t pass = 0;; ++pass) {
      // Uniform instant (level entry / aligned post-barrier release): the
      // flag snapshot and the live set below are host-side and identical
      // across survivors, so the break / repartition decisions agree
      // without a coordinator.
      if (ctx.fail_stop_due()) {
        ctx.mark_failed();
        co_return;
      }
      std::vector<std::uint32_t> mine; // global row indices for this pass
      if (resilient) {
        std::vector<std::uint32_t> undone;
        for (std::size_t r = 0; r < rows_total; ++r)
          if (row_done[r] == 0) undone.push_back(static_cast<std::uint32_t>(r));
        if (undone.empty()) break; // level complete on every survivor
        const std::vector<int> alive =
            alive_cores(*inj, opt.n_cores, ctx.now());
        const std::size_t rank = rank_of(alive, core_index);
        if (pass > 0 || alive.size() < n) {
          if (rank == 0) inj->count_repartition(alive.size());
        }
        for (std::size_t k = rank; k < undone.size(); k += alive.size())
          mine.push_back(undone[k]);
        // Rescan cost: pass 0 needs none (flags are known clear at level
        // entry), later passes charge one flag sweep.
        if (pass > 0)
          co_await ctx.read_ext_gather(rows_total, sizeof(std::uint32_t));
      } else {
        const std::size_t begin =
            static_cast<std::size_t>(core_index) * rows_total / n;
        const std::size_t end =
            (static_cast<std::size_t>(core_index) + 1) * rows_total / n;
        for (std::size_t r = begin; r < end; ++r)
          mine.push_back(static_cast<std::uint32_t>(r));
      }

      // Double-buffered pipeline: the DMA for row mine[k] was issued while
      // row mine[k-1] computed.
      ep::DmaJob pending{};
      sar::ChildSource next1;
      sar::ChildSource next2;
      if (double_buffer && !mine.empty()) {
        co_await ctx.compute(kPredictOps);
        pending = ctx.dma_read_ext_burst(stage(mine[0], pong, next1, next2));
      }

      for (std::size_t k = 0; k < mine.size(); ++k) {
        if (ctx.fail_stop_due()) {
          ctx.mark_failed();
          co_return;
        }
        const std::size_t gr = mine[k];
        const std::size_t subap = gr / lp.n_theta;
        const std::size_t ti = gr % lp.n_theta;

        // Obtain the prefetched child rows for this row.
        sar::ChildSource staged1{-1, child_row1.data(), nullptr};
        sar::ChildSource staged2{-1, child_row2.data(), nullptr};
        if (double_buffer) { // implies opt.prefetch
          ctx.begin_span("dma-prefetch");
          co_await ctx.wait(pending);
          ctx.end_span();
          staged1 = next1;
          staged2 = next2;
          // Immediately issue the next row's prefetch into the other half;
          // it streams while this row computes.
          if (k + 1 < mine.size()) {
            co_await ctx.compute(kPredictOps);
            pending = ctx.dma_read_ext_burst(
                stage(mine[k + 1], 1 - pong, next1, next2));
          }
          pong = 1 - pong;
        } else if (opt.prefetch) {
          ctx.begin_span("dma-prefetch");
          co_await ctx.compute(kPredictOps);
          co_await ep::reliable_dma_read_burst(
              ctx, stage(gr, 0, staged1, staged2));
          ctx.end_span();
        }

        // Merge the row (paper eqs. 1-5) on the host; the work is charged
        // below. Misses read the children's SDRAM images. The per-pair
        // autofocus shift is 0 when disabled; adding the resulting -0.0f
        // keeps the image without autofocus bit-identical.
        staged1.image = src.data() + lc.offset(2 * subap, 0);
        staged2.image = src.data() + lc.offset(2 * subap + 1, 0);
        const float af_shift =
            opt.autofocus != nullptr ? st.shifts[subap] : 0.0f;
        const std::uint64_t misses = sar::kernels::merge_sample_row(
            geom.child, algo.interp, algo.phase_compensate,
            row_geometry(st, p, level, geom, ti, geom_row),
            -0.5f * af_shift * drf, 0.5f * af_shift * drf, staged1, staged2,
            out_row.data(), n_range);

        co_await ctx.compute(static_cast<std::uint64_t>(n_range) * pixel_ops +
                             sar::kMergeRowOps);
        if (misses > 0) co_await ctx.read_ext_gather(misses, sizeof(cf32));
        co_await ep::reliable_write_ext(
            ctx, dst.data() + lp.offset(subap, ti), out_row.data(), row_bytes);
        if (resilient) {
          // SDRAM checkpoint: once verified, this row survives any later
          // repartition of the level.
          const std::uint32_t done_flag = 1;
          co_await ep::reliable_write_ext(ctx, &row_done[gr], &done_flag,
                                          sizeof(done_flag));
        }

        // Rows recomputed across passes double-count here; the prefetch
        // stats describe work performed, not distinct rows.
        auto& ls = st.stats[level - 1];
        ls.local_hits += 2 * n_range - misses;
        ls.ext_misses += misses;
      }

      co_await st.barrier->arrive_and_wait(ctx);
      if (!resilient) break; // single pass; checkpoint flags unused
    }
    ctx.end_span(); // merge-iter
    std::swap(src, dst);
  }
}

} // namespace

FfbpSimResult run_ffbp_epiphany(const Array2D<cf32>& data,
                                const sar::RadarParams& p,
                                const FfbpMapOptions& opt,
                                ep::ChipConfig cfg) {
  p.validate();
  ESARP_EXPECTS(data.rows() == p.n_pulses && data.cols() == p.n_range);
  ESARP_EXPECTS(opt.n_cores >= 1 && opt.n_cores <= cfg.core_count());
  ESARP_EXPECTS(!opt.double_buffer || opt.prefetch);
  const sar::FfbpOptions algo_check =
      opt.autofocus != nullptr ? opt.autofocus->ffbp : opt.algo;
  ESARP_EXPECTS(!algo_check.phase_compensate ||
                algo_check.interp == sar::Interp::kNearest);
  if (opt.autofocus != nullptr) opt.autofocus->criterion.validate();

  using ep::ExternalMemory;
  const std::size_t total = p.n_pulses * p.n_range;
  // SDRAM holds exactly what is allocated below: the two level buffers and,
  // in a fault campaign, each level's checkpoint flags.
  std::size_t ext_bytes = 2 * ExternalMemory::footprint<cf32>(total);
  if (cfg.faults.enabled()) {
    for (std::size_t l = 1; l <= p.merge_levels(); ++l) {
      const LevelLayout lp = LevelLayout::at(p, l);
      ext_bytes += ExternalMemory::footprint<std::uint32_t>(lp.rows_total());
      if (opt.autofocus != nullptr)
        ext_bytes += ExternalMemory::footprint<std::uint32_t>(lp.n_subaps);
    }
  }
  ep::Machine m(cfg, ext_bytes, {}, opt.tracer);

  SharedState st;
  st.buf_a = m.ext().alloc<cf32>(total);
  st.buf_b = m.ext().alloc<cf32>(total);
  st.stats.resize(p.merge_levels());
  for (std::size_t l = 0; l < st.stats.size(); ++l)
    st.stats[l].level = l + 1;
  st.barrier = m.make_barrier(opt.n_cores);
  st.shifts.assign(p.n_pulses / 2, 0.0f);
  st.geom_table =
      std::make_unique_for_overwrite<sar::MergeGeom[]>(p.n_pulses / 2 *
                                                       p.n_range);
  st.geom_level.assign(p.n_pulses / 2, 0);
  if (m.fault_injector() != nullptr) {
    st.row_done.resize(p.merge_levels());
    if (opt.autofocus != nullptr) st.af_done.resize(p.merge_levels());
    for (std::size_t l = 1; l <= p.merge_levels(); ++l) {
      const LevelLayout lp = LevelLayout::at(p, l);
      st.row_done[l - 1] = m.ext().alloc<std::uint32_t>(lp.rows_total());
      std::fill(st.row_done[l - 1].begin(), st.row_done[l - 1].end(), 0u);
      if (opt.autofocus != nullptr) {
        st.af_done[l - 1] = m.ext().alloc<std::uint32_t>(lp.n_subaps);
        std::fill(st.af_done[l - 1].begin(), st.af_done[l - 1].end(), 0u);
      }
    }
  }

  // Load level 0 into SDRAM, each pulse range-phase referenced straight
  // into its row, exactly as sar::initial_subapertures references it.
  const std::vector<cf32> phase = sar::range_phase_table(p);
  for (std::size_t pu = 0; pu < p.n_pulses; ++pu)
    sar::reference_pulse(data.row(pu), phase,
                         st.buf_a.subspan(pu * p.n_range, p.n_range));

  for (int c = 0; c < opt.n_cores; ++c) {
    m.launch(c, [&p, &opt, &st, c](ep::CoreCtx& ctx) {
      return ffbp_core_program(ctx, p, opt, st, c);
    });
  }

  FfbpSimResult res;
  res.cycles = m.run(opt.max_cycles);
  // The geometry scratch is dead once the cores finish: free it before the
  // image copy below, so the two never coexist.
  st.geom_table.reset();
  res.seconds = m.seconds(res.cycles);
  res.perf = m.report();
  res.power = ep::collect_power(m, res.perf);
  res.energy = res.power.energy;
  res.prefetch_stats = st.stats;
  res.corrections = std::move(st.corrections);

  // Snapshot telemetry: machine-wide metrics plus the per-level prefetch
  // hit/miss counters only this mapping knows about.
  ep::collect_machine_metrics(m);
  for (const LevelPrefetchStats& ls : st.stats) {
    const std::string lvl = std::to_string(ls.level);
    m.metrics()
        .counter(telemetry::labeled("ffbp.prefetch.local_hits",
                                    {{"level", lvl}}))
        .add(ls.local_hits);
    m.metrics()
        .counter(telemetry::labeled("ffbp.prefetch.ext_misses",
                                    {{"level", lvl}}))
        .add(ls.ext_misses);
  }
  if (const fault::FaultInjector* fi = m.fault_injector()) {
    res.faults = fi->summary();
    res.degraded =
        res.faults.failed_cores > 0 || res.faults.af_pairs_dropped > 0;
  }
  res.metrics = m.metrics();

  const std::span<cf32> final_buf =
      (p.merge_levels() % 2 == 1) ? st.buf_b : st.buf_a;
  res.image = Array2D<cf32>(p.n_pulses, p.n_range);
  std::copy(final_buf.begin(), final_buf.end(), res.image.data());
  return res;
}

} // namespace esarp::core
