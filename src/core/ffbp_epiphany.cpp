#include "core/ffbp_epiphany.hpp"

#include <algorithm>

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

/// A child theta row staged in local store: fetches from theta row `row`
/// read `data`; any other row misses to the child's SDRAM image.
struct StagedRow {
  int row = -1;
  const cf32* data = nullptr;
};

/// Merge parent row `ti` of subaperture `subap` into `out` (paper eqs.
/// 1-5): the cosine-theorem geometry of every range bin, both children
/// sampled through their staged rows, and the sum. Plain host code shared
/// by both core programs, so the fetchers inline into sample_child; the
/// caller charges the simulated work. Returns how many of the 2 * n_range
/// fetches missed the staged rows.
std::uint64_t merge_row(const sar::RadarParams& p,
                        const sar::MergeLevelGeom& geom,
                        const sar::FfbpOptions& algo,
                        std::span<const cf32> src, const LevelLayout& lc,
                        std::size_t subap, std::size_t ti, float af_shift,
                        StagedRow staged1, StagedRow staged2,
                        std::span<sar::MergeGeom> geom_row,
                        std::span<cf32> out) {
  const std::size_t child1 = 2 * subap;
  const std::size_t child2 = 2 * subap + 1;
  std::uint64_t misses = 0;
  const auto fetch1 = [&](int it, int ir) -> cf32 {
    if (it == staged1.row) return staged1.data[static_cast<std::size_t>(ir)];
    ++misses;
    return src[lc.offset(child1, static_cast<std::size_t>(it),
                         static_cast<std::size_t>(ir))];
  };
  const auto fetch2 = [&](int it, int ir) -> cf32 {
    if (it == staged2.row) return staged2.data[static_cast<std::size_t>(ir)];
    ++misses;
    return src[lc.offset(child2, static_cast<std::size_t>(it),
                         static_cast<std::size_t>(ir))];
  };

  const float r0f = static_cast<float>(p.near_range_m);
  const float drf = static_cast<float>(p.range_bin_m);
  const float cr = 2.0f * geom.d * fastmath::poly_cos(geom.theta_of_row(p, ti));
  // Per-pair autofocus compensation (0 when disabled; adding the resulting
  // -0.0f keeps the plain path bit-identical).
  const float shift_a = -0.5f * af_shift * drf;
  const float shift_b = 0.5f * af_shift * drf;
  sar::kernels::merge_geometry_row(r0f, drf, 0, p.n_range, cr, geom.d2,
                                   geom.inv_2d, geom_row.data());
  for (std::size_t j = 0; j < p.n_range; ++j) {
    const sar::MergeGeom& g = geom_row[j];
    const cf32 v1 = sar::sample_child(geom.child, g.r1 + shift_a, g.theta1,
                                      algo.interp, algo.phase_compensate,
                                      fetch1);
    const cf32 v2 = sar::sample_child(geom.child, g.r2 + shift_b, g.theta2,
                                      algo.interp, algo.phase_compensate,
                                      fetch2);
    out[j] = v1 + v2; // paper eq. 5
  }
  return misses;
}

ep::Task ffbp_core_program(ep::CoreCtx& ctx, const sar::RadarParams& p,
                           const FfbpMapOptions& opt, SharedState& st,
                           int core_index) {
  const std::size_t n_levels = p.merge_levels();
  const std::size_t n_range = p.n_range;
  const std::size_t row_bytes = n_range * sizeof(cf32);

  // Local-store layout (paper Section V-B): bank 1 stages the output row;
  // banks 2 and 3 — "the two upper data banks" — hold one row of each
  // contributing child subaperture (16,016 bytes at paper size). With
  // double buffering each data bank holds two rows (ping/pong).
  auto out_row = ctx.local().alloc_in_bank<cf32>(n_range, 1);
  auto child_row1 = ctx.local().alloc_in_bank<cf32>(
      opt.double_buffer ? 2 * n_range : n_range, 2);
  auto child_row2 = ctx.local().alloc_in_bank<cf32>(
      opt.double_buffer ? 2 * n_range : n_range, 3);
  int pong = 0; // active half of the double buffers

  const sar::FfbpOptions algo =
      opt.autofocus != nullptr ? opt.autofocus->ffbp : opt.algo;
  const OpCounts pixel_ops = sar::merge_pixel_ops(algo);
  // Host-side scratch for the row's cosine-theorem geometry; the simulated
  // local-store budget is unaffected (the geometry never lived in a bank).
  std::vector<sar::MergeGeom> geom_row(n_range);

  std::span<cf32> src = st.buf_a;
  std::span<cf32> dst = st.buf_b;

  for (std::size_t level = 1; level <= n_levels; ++level) {
    ctx.begin_span("merge-iter/" + std::to_string(level));
    const LevelLayout lc = LevelLayout::at(p, level - 1);
    const LevelLayout lp = LevelLayout::at(p, level);
    const sar::MergeLevelGeom geom = sar::merge_level_geom(p, level);

    const std::size_t rows_total = lp.rows_total();
    const std::size_t n = static_cast<std::size_t>(opt.n_cores);
    const std::size_t begin =
        static_cast<std::size_t>(core_index) * rows_total / n;
    const std::size_t end =
        (static_cast<std::size_t>(core_index) + 1) * rows_total / n;

    // --- Autofocus phase (paper Fig. 4): before this level's merges, the
    // cores divide the subaperture pairs among themselves, stream both
    // children from SDRAM, and run the criterion estimator. A barrier
    // publishes the shifts before any merge starts.
    const bool af_level =
        opt.autofocus != nullptr && level >= opt.autofocus->first_level;
    if (opt.autofocus != nullptr) {
      ctx.begin_span("af-estimate/" + std::to_string(level));
      for (std::size_t pair = static_cast<std::size_t>(core_index);
           pair < lp.n_subaps; pair += n) {
        if (!af_level) {
          st.shifts[pair] = 0.0f;
          continue;
        }
        ctx.begin_span("criterion-block/" + std::to_string(pair));
        const auto a =
            load_subaperture(src, lc, p, level - 1, 2 * pair);
        const auto b =
            load_subaperture(src, lc, p, level - 1, 2 * pair + 1);
        // Streaming both children through the core: two bulk SDRAM reads.
        const std::size_t child_bytes =
            lc.n_theta * lc.n_range * sizeof(cf32);
        co_await ctx.read_ext_gather(2, child_bytes);
        OpCounts est_ops;
        const af::PairEstimate est = af::estimate_pair_shift(
            a, b, p, *opt.autofocus, &est_ops, nullptr);
        co_await ctx.compute(est_ops);
        st.shifts[pair] = est.applied(opt.autofocus->min_gain);
        st.corrections.push_back(
            {level, pair, st.shifts[pair], est.gain});
        ctx.end_span();
      }
      ctx.end_span();
      co_await st.barrier->arrive_and_wait(ctx);
    }

    // Double-buffered pipeline state: the DMA for row `gr` was issued
    // while row `gr-1` computed.
    ep::DmaJob pending1{};
    ep::DmaJob pending2{};
    int pending_pre1 = -1;
    int pending_pre2 = -1;
    const auto issue_prefetch = [&](std::size_t gr, int half) {
      const std::size_t subap = gr / lp.n_theta;
      const std::size_t ti = gr % lp.n_theta;
      auto [a1, a2] = predict_rows(p, geom, ti);
      pending_pre1 = a1;
      pending_pre2 = a2;
      cf32* dst1 = child_row1.data() + static_cast<std::size_t>(half) *
                                           (opt.double_buffer ? n_range : 0);
      cf32* dst2 = child_row2.data() + static_cast<std::size_t>(half) *
                                           (opt.double_buffer ? n_range : 0);
      const cf32* src1 =
          src.data() + lc.offset(2 * subap, static_cast<std::size_t>(a1));
      const cf32* src2 =
          src.data() + lc.offset(2 * subap + 1, static_cast<std::size_t>(a2));
      if (ctx.config().burst_transfers) {
        // Both child rows as one burst job: one wait event per prefetch
        // instead of two, identical cycle accounting (see DmaSeg docs).
        const ep::DmaSeg segs[2] = {{dst1, src1, row_bytes},
                                    {dst2, src2, row_bytes}};
        pending1 = ctx.dma_read_ext_burst(segs);
        pending2 = ep::DmaJob{}; // completes at 0: wait() is a no-op
      } else {
        pending1 = ctx.dma_read_ext(dst1, src1, row_bytes);
        pending2 = ctx.dma_read_ext(dst2, src2, row_bytes);
      }
    };

    if (opt.prefetch && opt.double_buffer && begin < end) {
      co_await ctx.compute(kPredictOps);
      issue_prefetch(begin, pong);
    }

    for (std::size_t gr = begin; gr < end; ++gr) {
      const std::size_t subap = gr / lp.n_theta;
      const std::size_t ti = gr % lp.n_theta;

      // Obtain the prefetched child rows for this row.
      StagedRow staged1{-1, child_row1.data()};
      StagedRow staged2{-1, child_row2.data()};
      if (opt.prefetch && opt.double_buffer) {
        // The DMA issued one row ago targets `pong`'s half.
        ctx.begin_span("dma-prefetch");
        co_await ctx.wait(pending1);
        co_await ctx.wait(pending2);
        ctx.end_span();
        const std::size_t half = static_cast<std::size_t>(pong) * n_range;
        staged1 = {pending_pre1, child_row1.data() + half};
        staged2 = {pending_pre2, child_row2.data() + half};
        // Immediately issue the next row's prefetch into the other half;
        // it streams while this row computes.
        if (gr + 1 < end) {
          co_await ctx.compute(kPredictOps);
          issue_prefetch(gr + 1, 1 - pong);
        }
        pong = 1 - pong;
      } else if (opt.prefetch) {
        ctx.begin_span("dma-prefetch");
        co_await ctx.compute(kPredictOps);
        issue_prefetch(gr, 0);
        co_await ctx.wait(pending1);
        co_await ctx.wait(pending2);
        ctx.end_span();
        staged1.row = pending_pre1;
        staged2.row = pending_pre2;
      }

      const float af_shift =
          opt.autofocus != nullptr ? st.shifts[subap] : 0.0f;
      const std::uint64_t misses =
          merge_row(p, geom, algo, src, lc, subap, ti, af_shift, staged1,
                    staged2, geom_row, out_row);

      co_await ctx.compute(static_cast<std::uint64_t>(n_range) * pixel_ops +
                           sar::kMergeRowOps);
      if (misses > 0)
        co_await ctx.read_ext_gather(misses, sizeof(cf32));
      co_await ctx.write_ext(dst.data() + lp.offset(subap, ti),
                             out_row.data(), row_bytes);

      auto& ls = st.stats[level - 1];
      ls.local_hits += 2 * n_range - misses;
      ls.ext_misses += misses;
    }

    co_await st.barrier->arrive_and_wait(ctx);
    ctx.end_span(); // merge-iter
    std::swap(src, dst);
  }
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

/// Fault-campaign variant of ffbp_core_program, selected whenever the
/// machine carries a FaultInjector (docs/fault-injection.md). Same inner
/// arithmetic, hardened control flow:
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
/// The prefetch pipeline is single-buffered here — verification serializes
/// each transfer anyway — and with plan.resilient == false the wrappers and
/// the barrier degenerate to the plain protocol while the fail-stop polls
/// stay on: that configuration demonstrates the pre-recovery behaviour,
/// where one fail-stopped core deadlocks the whole chip (SimDeadlock).
ep::Task ffbp_core_program_resilient(ep::CoreCtx& ctx,
                                     const sar::RadarParams& p,
                                     const FfbpMapOptions& opt,
                                     SharedState& st, int core_index) {
  fault::FaultInjector& inj = *ctx.fault_injector();
  const bool resilient = inj.plan().resilient;
  const std::size_t n_levels = p.merge_levels();
  const std::size_t n_range = p.n_range;
  const std::size_t row_bytes = n_range * sizeof(cf32);
  const std::size_t n = static_cast<std::size_t>(opt.n_cores);

  auto out_row = ctx.local().alloc_in_bank<cf32>(n_range, 1);
  auto child_row1 = ctx.local().alloc_in_bank<cf32>(n_range, 2);
  auto child_row2 = ctx.local().alloc_in_bank<cf32>(n_range, 3);

  const sar::FfbpOptions algo =
      opt.autofocus != nullptr ? opt.autofocus->ffbp : opt.algo;
  const OpCounts pixel_ops = sar::merge_pixel_ops(algo);
  // Host-side geometry scratch, as in the plain program.
  std::vector<sar::MergeGeom> geom_row(n_range);

  std::span<cf32> src = st.buf_a;
  std::span<cf32> dst = st.buf_b;

  for (std::size_t level = 1; level <= n_levels; ++level) {
    ctx.begin_span("merge-iter/" + std::to_string(level));
    const LevelLayout lc = LevelLayout::at(p, level - 1);
    const LevelLayout lp = LevelLayout::at(p, level);
    const sar::MergeLevelGeom geom = sar::merge_level_geom(p, level);
    const std::size_t rows_total = lp.rows_total();

    // --- Autofocus phase. Level entry is a uniform instant (launch or the
    // aligned barrier release), so every survivor strides over the same
    // live set.
    const bool af_level =
        opt.autofocus != nullptr && level >= opt.autofocus->first_level;
    if (opt.autofocus != nullptr) {
      if (ctx.fail_stop_due()) {
        ctx.mark_failed();
        co_return;
      }
      const std::vector<int> alive = alive_cores(inj, opt.n_cores, ctx.now());
      const std::size_t stride = resilient ? alive.size() : n;
      const std::size_t first = resilient
                                    ? rank_of(alive, core_index)
                                    : static_cast<std::size_t>(core_index);
      std::span<std::uint32_t> af_done =
          resilient ? st.af_done[level - 1] : std::span<std::uint32_t>{};
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
            alive_cores(inj, opt.n_cores, ctx.now());
        const bool accountant = after.front() == core_index;
        std::size_t dropped = 0;
        for (std::size_t pair = 0; pair < lp.n_subaps; ++pair) {
          if (af_done[pair] != 0) continue;
          st.shifts[pair] = 0.0f;
          ++dropped;
          if (accountant) inj.count_af_pair_dropped();
        }
        if (dropped > 0 && ctx.checker() != nullptr)
          ctx.checker()->set_fault_degraded();
        co_await ctx.read_ext_gather(lp.n_subaps, sizeof(std::uint32_t));
      }
    }

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
            alive_cores(inj, opt.n_cores, ctx.now());
        const std::size_t rank = rank_of(alive, core_index);
        if (pass > 0 || alive.size() < n) {
          if (rank == 0) inj.count_repartition(alive.size());
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

      for (const std::uint32_t gr32 : mine) {
        if (ctx.fail_stop_due()) {
          ctx.mark_failed();
          co_return;
        }
        const std::size_t gr = gr32;
        const std::size_t subap = gr / lp.n_theta;
        const std::size_t ti = gr % lp.n_theta;
        const std::size_t child1 = 2 * subap;
        const std::size_t child2 = 2 * subap + 1;

        StagedRow staged1{-1, child_row1.data()};
        StagedRow staged2{-1, child_row2.data()};
        if (opt.prefetch) {
          ctx.begin_span("dma-prefetch");
          co_await ctx.compute(kPredictOps);
          const auto [a1, a2] = predict_rows(p, geom, ti);
          staged1.row = a1;
          staged2.row = a2;
          const ep::DmaSeg segs[2] = {
              {child_row1.data(),
               src.data() + lc.offset(child1, static_cast<std::size_t>(a1)),
               row_bytes},
              {child_row2.data(),
               src.data() + lc.offset(child2, static_cast<std::size_t>(a2)),
               row_bytes}};
          co_await ep::reliable_dma_read_burst(ctx, segs);
          ctx.end_span();
        }

        const float af_shift =
            opt.autofocus != nullptr ? st.shifts[subap] : 0.0f;
        const std::uint64_t misses =
            merge_row(p, geom, algo, src, lc, subap, ti, af_shift, staged1,
                      staged2, geom_row, out_row);

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
  const bool fault_mode = m.fault_injector() != nullptr;
  if (fault_mode) {
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

  // Load level 0 into SDRAM (range-phase referenced, like the reference).
  const auto level0 = sar::initial_subapertures(data, p);
  for (std::size_t pu = 0; pu < p.n_pulses; ++pu)
    std::copy(level0[pu].data.row(0).begin(), level0[pu].data.row(0).end(),
              st.buf_a.begin() + static_cast<std::ptrdiff_t>(pu * p.n_range));

  for (int c = 0; c < opt.n_cores; ++c) {
    m.launch(c, [&p, &opt, &st, c, fault_mode](ep::CoreCtx& ctx) {
      return fault_mode ? ffbp_core_program_resilient(ctx, p, opt, st, c)
                        : ffbp_core_program(ctx, p, opt, st, c);
    });
  }

  FfbpSimResult res;
  res.cycles = m.run(opt.max_cycles);
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
    // Manifest results carry doubles; split the 64-bit reproducibility
    // witness in two so zero-tolerance diffs catch schedule drift exactly.
    m.metrics()
        .gauge("fault.schedule_hash_hi")
        .set(static_cast<double>(res.faults.schedule_hash >> 32));
    m.metrics()
        .gauge("fault.schedule_hash_lo")
        .set(static_cast<double>(res.faults.schedule_hash & 0xffffffffULL));
  }
  res.metrics = m.metrics();

  const std::span<cf32> final_buf =
      (p.merge_levels() % 2 == 1) ? st.buf_b : st.buf_a;
  res.image = Array2D<cf32>(p.n_pulses, p.n_range);
  std::copy(final_buf.begin(), final_buf.end(), res.image.data());
  return res;
}

} // namespace esarp::core
