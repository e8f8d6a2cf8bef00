#include "core/autofocus_epiphany.hpp"

#include <array>
#include <memory>

#include "common/assert.hpp"
#include "common/fastmath.hpp"
#include "core/mapping_profiles.hpp"
#include "epiphany/machine_metrics.hpp"
#include "epiphany/resilient.hpp"
#include "autofocus/criterion.hpp"
#include "autofocus/criterion_kernel.hpp"

namespace esarp::core {

namespace {

struct AfShared {
  std::span<const cf32> blocks_ext; ///< [pair][block(2)][rows*cols]
  std::span<float> out_ext;         ///< criterion results [pair][shift]
  std::vector<std::vector<double>> criteria;
  std::unique_ptr<ep::Channel<RangePacket>> range_to_beam[2][3];
  std::unique_ptr<ep::Channel<BeamPacket>> beam_to_corr[2][3];
};

// --- The MPMD pipeline programs ------------------------------------------
//
// On a fault campaign (a FaultInjector on the machine, with plan.resilient;
// docs/fault-injection.md) the pipeline cannot repartition like FFBP — it
// has no spare cores — so it degrades: when any core of a window pipeline
// (range -> beam -> corr input) fail-stops, the correlator drops that
// window from the criterion on BOTH contributing blocks and rescores by
// scaling the surviving windows up to the full window count. The channel
// ops (ep::reliable_send / reliable_recv) give up only on the confirmed-
// failure oracle, so a slow chain is never dropped; range and beam cores
// watch their whole chain (themselves included) and quit once any link is
// dead. With plan.resilient == false the fail-stop polls stay on over the
// blocking ops — the configuration that shows the pre-recovery deadlock.

ep::Task range_program(ep::CoreCtx& ctx, const af::AfParams& p,
                       std::span<const cf32> blocks_ext, std::size_t n_pairs,
                       int block, int window, ep::Channel<RangePacket>& chan,
                       const Placement& pl) {
  fault::FaultInjector* inj = ctx.fault_injector();
  const bool resilient = inj != nullptr && inj->plan().resilient;
  const int chain[] = {pl.range[block][window], pl.beam[block][window],
                       pl.corr};
  const std::size_t block_px = p.block_rows * p.block_cols;
  auto local_block = ctx.local().alloc_in_bank<cf32>(block_px, 2);
  const OpCounts sample_ops = range_core_sample_ops(p);

  for (std::size_t pair = 0; pair < n_pairs; ++pair) {
    if (ctx.fail_stop_due()) {
      ctx.mark_failed();
      co_return;
    }
    ctx.begin_span("range-interp/" + std::to_string(pair));
    // Fetch this pair's contributing block (the paper DMAs the area of
    // interest into each interpolator's local memory).
    const cf32* src =
        blocks_ext.data() +
        (2 * pair + static_cast<std::size_t>(block)) * block_px;
    co_await ep::reliable_dma_read(ctx, local_block.data(), src,
                                   block_px * sizeof(cf32));
    const View2D<const cf32> view(local_block.data(), p.block_rows,
                                  p.block_cols);

    for (std::size_t sh = 0; sh < p.shift_candidates.size(); ++sh) {
      const float delta = p.shift_candidates[sh];
      for (std::size_t s = 0; s < p.samples_per_row; ++s) {
        if (ctx.fail_stop_due()) {
          ctx.mark_failed();
          co_return;
        }
        const af::SampleGeom g = af::af_sample_geom(p, s, delta);
        RangePacket pkt;
        pkt.rows = static_cast<std::uint8_t>(p.block_rows);
        pkt.valid = g.valid ? 1 : 0;
        if (g.valid) {
          const float t = block == 0 ? g.t_minus : g.t_plus;
          af::range_interp_column(view, static_cast<std::size_t>(window), t,
                                  pkt.col.data(), p.block_rows);
        }
        co_await ctx.compute(sample_ops);
        if (!resilient) {
          co_await chan.send(ctx, pkt);
          continue;
        }
        const ep::ChanOutcome sent =
            co_await ep::reliable_send(ctx, chan, pkt, chain);
        if (sent != ep::ChanOutcome::kDelivered) co_return;
      }
    }
    ctx.end_span();
  }
}

ep::Task beam_program(ep::CoreCtx& ctx, const af::AfParams& p,
                      std::size_t n_pairs, int block, int window,
                      ep::Channel<RangePacket>& in,
                      ep::Channel<BeamPacket>& out, const Placement& pl) {
  fault::FaultInjector* inj = ctx.fault_injector();
  const bool resilient = inj != nullptr && inj->plan().resilient;
  const int chain[] = {pl.range[block][window], pl.beam[block][window],
                       pl.corr};
  const OpCounts sample_ops = beam_core_sample_ops(p);

  for (std::size_t pair = 0; pair < n_pairs; ++pair) {
    ctx.begin_span("beam-interp/" + std::to_string(pair));
    for (std::size_t sh = 0; sh < p.shift_candidates.size(); ++sh) {
      const float delta = p.shift_candidates[sh];
      for (std::size_t s = 0; s < p.samples_per_row; ++s) {
        if (ctx.fail_stop_due()) {
          ctx.mark_failed();
          co_return;
        }
        RangePacket pkt;
        if (!resilient) {
          pkt = co_await in.recv(ctx);
        } else {
          const ep::ChanOutcome got =
              co_await ep::reliable_recv(ctx, in, pkt, chain);
          if (got != ep::ChanOutcome::kDelivered) co_return;
        }
        const af::SampleGeom g = af::af_sample_geom(p, s, delta);
        BeamPacket bp;
        bp.count = static_cast<std::uint8_t>(p.beams);
        bp.valid = pkt.valid;
        if (pkt.valid) {
          for (std::size_t b = 0; b < p.beams; ++b) {
            const cf32 v = af::beam_interp(pkt.col.data(), b, g.u);
            bp.mags[b] = fastmath::norm2(v.real(), v.imag());
          }
        }
        co_await ctx.compute(sample_ops);
        if (!resilient) {
          co_await out.send(ctx, bp);
          continue;
        }
        const ep::ChanOutcome sent =
            co_await ep::reliable_send(ctx, out, bp, chain);
        if (sent != ep::ChanOutcome::kDelivered) co_return;
      }
    }
    ctx.end_span();
  }
}

ep::Task corr_program(ep::CoreCtx& ctx, const af::AfParams& p,
                      const std::unique_ptr<ep::Channel<BeamPacket>> (
                          &inputs)[2][3],
                      std::span<float> out_ext,
                      std::vector<std::vector<double>>& criteria,
                      std::size_t n_pairs, const Placement& pl) {
  fault::FaultInjector* inj = ctx.fault_injector();
  const bool resilient = inj != nullptr && inj->plan().resilient;
  const OpCounts sample_ops = corr_sample_ops(p);
  const std::size_t n_shifts = p.shift_candidates.size();
  std::vector<float> row(n_shifts);

  // side_alive: whether the (block, window) input chain still delivers
  // (the live side of a dropped window keeps being drained so its
  // producers can run to completion). win_alive: whether the window still
  // contributes to the criterion — it needs BOTH sides.
  bool side_alive[2][3] = {{true, true, true}, {true, true, true}};
  bool win_alive[3] = {true, true, true};
  std::size_t live = p.windows;

  for (std::size_t pair = 0; pair < n_pairs; ++pair) {
    ctx.begin_span("criterion-block/" + std::to_string(pair));
    criteria[pair].assign(n_shifts, 0.0);
    for (std::size_t sh = 0; sh < n_shifts; ++sh) {
      // Accumulate in float, window-major then sample — the exact order of
      // the sequential af::criterion_sweep, so results match bit-for-bit.
      // A campaign also keeps per-window partial sums: a window dropped
      // mid-shift is then excluded whole, not with a half-accumulated
      // contribution.
      float criterion = 0.0f;
      float wsum[3] = {0.0f, 0.0f, 0.0f};
      for (std::size_t w = 0; w < p.windows; ++w) {
        for (std::size_t s = 0; s < p.samples_per_row; ++s) {
          BeamPacket pk[2];
          pk[0].valid = 0;
          pk[1].valid = 0;
          for (int f = 0; f < 2; ++f) {
            if (!side_alive[f][w]) continue;
            if (!resilient) {
              pk[f] = co_await inputs[f][w]->recv(ctx);
              continue;
            }
            const int producers[] = {pl.range[f][w], pl.beam[f][w]};
            const ep::ChanOutcome got =
                co_await ep::reliable_recv(ctx, *inputs[f][w], pk[f],
                                           producers);
            if (got == ep::ChanOutcome::kSelfFailed) co_return;
            if (got == ep::ChanOutcome::kPeerDead) {
              side_alive[f][w] = false;
              if (win_alive[w]) {
                win_alive[w] = false;
                --live;
                inj->count_af_window_dropped();
              }
            }
          }
          if (win_alive[w] && pk[0].valid && pk[1].valid) {
            for (std::size_t b = 0; b < p.beams; ++b)
              criterion += pk[0].mags[b] * pk[1].mags[b];
            if (resilient)
              for (std::size_t b = 0; b < p.beams; ++b)
                wsum[w] += pk[0].mags[b] * pk[1].mags[b];
          }
          co_await ctx.compute(sample_ops);
        }
      }
      if (live < p.windows) {
        // Rescoring: the surviving windows stand in for the dropped ones so
        // the criterion keeps the magnitude the shift search expects.
        criterion = 0.0f;
        for (std::size_t w = 0; w < p.windows; ++w)
          if (win_alive[w]) criterion += wsum[w];
        if (live > 0)
          criterion *= static_cast<float>(p.windows) /
                       static_cast<float>(live);
      }
      criteria[pair][sh] = static_cast<double>(criterion);
      row[sh] = criterion;
    }
    // Post the pair's criterion row to SDRAM (paper: the correlation core
    // "provides the final ... result to be written to the off-chip SDRAM").
    co_await ep::reliable_write_ext(ctx, out_ext.data() + pair * n_shifts,
                                    row.data(), n_shifts * sizeof(float));
    ctx.end_span();
  }
}

ep::Task af_sequential_program(ep::CoreCtx& ctx, const af::AfParams& p,
                               std::span<const af::BlockPair> pairs,
                               std::span<const cf32> blocks,
                               std::span<float> out,
                               std::vector<std::vector<double>>& criteria) {
  const std::size_t block_px = p.block_rows * p.block_cols;
  const std::size_t n_shifts = p.shift_candidates.size();
  auto local = ctx.local().alloc_in_bank<cf32>(2 * block_px, 2);

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (ctx.fail_stop_due()) {
      ctx.mark_failed();
      co_return;
    }
    ctx.begin_span("criterion-block/" + std::to_string(i));
    // The reliable wrapper degenerates to the plain DMA outside a fault
    // campaign, so the no-campaign path stays bit-identical.
    co_await ep::reliable_dma_read(ctx, local.data(),
                                   blocks.data() + 2 * i * block_px,
                                   2 * block_px * sizeof(cf32));

    // The sweep itself: the same reference code path as the host run,
    // charged as one counted compute block per pair.
    Array2D<cf32> bm(p.block_rows, p.block_cols);
    Array2D<cf32> bp(p.block_rows, p.block_cols);
    std::copy(local.begin(), local.begin() + block_px, bm.data());
    std::copy(local.begin() + block_px, local.end(), bp.data());
    const af::CriterionResult cr = af::criterion_sweep(bm, bp, p);
    co_await ctx.compute(cr.ops);

    criteria[i] = cr.criteria;
    std::vector<float> row(cr.criteria.begin(), cr.criteria.end());
    co_await ep::reliable_write_ext(ctx, out.data() + i * n_shifts,
                                    row.data(), n_shifts * sizeof(float));
    ctx.end_span();
  }
}

/// SDRAM every autofocus runner allocates: the packed block pairs
/// (pack_blocks), then one criterion value per pair and candidate shift.
std::size_t af_ext_bytes(std::size_t n_pairs, const af::AfParams& p) {
  using ep::ExternalMemory;
  const std::size_t block_px = p.block_rows * p.block_cols;
  const std::size_t criteria = n_pairs * p.shift_candidates.size();
  return ExternalMemory::footprint<cf32>(2 * n_pairs * block_px) +
         ExternalMemory::footprint<float>(criteria);
}

/// Pack all pairs into SDRAM; returns the span.
std::span<cf32> pack_blocks(ep::Machine& m, std::span<const af::BlockPair> pairs,
                            const af::AfParams& p) {
  const std::size_t block_px = p.block_rows * p.block_cols;
  auto ext = m.ext().alloc<cf32>(2 * pairs.size() * block_px);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::copy(pairs[i].minus.flat().begin(), pairs[i].minus.flat().end(),
              ext.begin() + static_cast<std::ptrdiff_t>(2 * i * block_px));
    std::copy(pairs[i].plus.flat().begin(), pairs[i].plus.flat().end(),
              ext.begin() +
                  static_cast<std::ptrdiff_t>((2 * i + 1) * block_px));
  }
  return ext;
}

} // namespace

AfSimResult run_autofocus_sequential_epiphany(
    std::span<const af::BlockPair> pairs, const af::AfParams& p,
    ep::ChipConfig cfg) {
  p.validate();
  ESARP_EXPECTS(!pairs.empty());
  ep::Machine m(cfg, af_ext_bytes(pairs.size(), p));
  const std::span<cf32> blocks = pack_blocks(m, pairs, p);
  auto out = m.ext().alloc<float>(pairs.size() * p.shift_candidates.size());

  std::vector<std::vector<double>> criteria(pairs.size());
  m.launch(0, [&p, pairs, blocks, out, &criteria](ep::CoreCtx& ctx) {
    return af_sequential_program(ctx, p, pairs, blocks, out, criteria);
  });

  ep::ChipRun run = ep::collect_run(m, m.run());
  const double px_per_s =
      static_cast<double>(pairs.size() * p.pixels()) / run.seconds;
  return {std::move(run), std::move(criteria), px_per_s, 1};
}

AfSimResult run_autofocus_mpmd(std::span<const af::BlockPair> pairs,
                               const af::AfParams& p, const AfMapOptions& opt,
                               ep::ChipConfig cfg) {
  p.validate();
  ESARP_EXPECTS(!pairs.empty());
  ESARP_EXPECTS(p.block_rows <= 8 && p.beams <= 4); // packet capacities
  ESARP_EXPECTS(p.windows == 3);                    // 13-core pipeline shape
  ESARP_EXPECTS(cfg.core_count() >= 14);

  ep::Machine m(cfg, af_ext_bytes(pairs.size(), p));
  AfShared st;
  st.blocks_ext = pack_blocks(m, pairs, p);
  st.out_ext = m.ext().alloc<float>(pairs.size() * p.shift_candidates.size());
  st.criteria.resize(pairs.size());

  const Placement pl = make_placement(opt.placement, cfg);
  for (int f = 0; f < 2; ++f) {
    for (int w = 0; w < 3; ++w) {
      st.range_to_beam[f][w] = m.make_channel<RangePacket>(
          pl.beam[f][w], opt.channel_capacity, "range->beam");
      st.beam_to_corr[f][w] = m.make_channel<BeamPacket>(
          pl.corr, opt.channel_capacity, "beam->corr");
    }
  }

  const std::size_t n_pairs = pairs.size();
  for (int f = 0; f < 2; ++f) {
    for (int w = 0; w < 3; ++w) {
      m.launch(pl.range[f][w], [&p, &st, &pl, n_pairs, f, w](ep::CoreCtx& ctx) {
        return range_program(ctx, p, st.blocks_ext, n_pairs, f, w,
                             *st.range_to_beam[f][w], pl);
      });
      m.launch(pl.beam[f][w], [&p, &st, &pl, n_pairs, f, w](ep::CoreCtx& ctx) {
        return beam_program(ctx, p, n_pairs, f, w, *st.range_to_beam[f][w],
                            *st.beam_to_corr[f][w], pl);
      });
    }
  }
  m.launch(pl.corr, [&p, &st, &pl, n_pairs](ep::CoreCtx& ctx) {
    return corr_program(ctx, p, st.beam_to_corr, st.out_ext, st.criteria,
                        n_pairs, pl);
  });

  const ep::Cycles cycles = m.run(opt.max_cycles);
  // No core can take over the correlator: once it stops, the pairs it had
  // not scored have no criterion.
  if (const auto* fi = m.fault_injector(); fi && fi->marked_failed(pl.corr))
    throw fault::FaultUnrecovered("autofocus correlator (core " +
                                  std::to_string(pl.corr) + ") fail-stopped");
  ep::ChipRun run = ep::collect_run(m, cycles);
  const double px_per_s =
      static_cast<double>(pairs.size() * p.pixels()) / run.seconds;
  return {std::move(run), std::move(st.criteria), px_per_s, 13};
}

} // namespace esarp::core

