#include "core/mapping_desc.hpp"

#include <string>

#include "autofocus/criterion.hpp"
#include "autofocus/integrated.hpp"
#include "core/ffbp_layout.hpp"
#include "core/mapping_profiles.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"
#include "sar/merge_kernel.hpp"

namespace esarp::core {

namespace {

using analysis::BarrierDecl;
using analysis::BlockingRead;
using analysis::ChannelDecl;
using analysis::ChannelTraffic;
using analysis::ComputeBlock;
using analysis::CorePhase;
using analysis::CoreSpec;
using analysis::DmaRead;
using analysis::LocalAlloc;
using analysis::MappingSpec;
using analysis::PostedWrite;
using analysis::SyncOp;

std::size_t interp_taps(sar::Interp interp) {
  switch (interp) {
  case sar::Interp::kNearest: return 1;
  case sar::Interp::kLinear: return 2;
  default: return 4; // cubic (Neville)
  }
}

/// Area-of-interest blocks one estimate_pair_shift call lands at a level
/// whose children have `n_theta` x `n_range` pixels: zero when the
/// children are smaller than the criterion block, else at most
/// blocks_per_merge of the available candidate grid.
std::size_t aoi_blocks(const af::IntegratedOptions& afo, std::size_t n_theta,
                       std::size_t n_range) {
  const af::AfParams& cp = afo.criterion;
  if (n_theta < cp.block_rows || n_range < cp.block_cols) return 0;
  const std::size_t step_t = std::max<std::size_t>(1, cp.block_rows / 2);
  const std::size_t step_c = std::max<std::size_t>(1, cp.block_cols / 2);
  const std::size_t candidates = ((n_theta - cp.block_rows) / step_t + 1) *
                                 ((n_range - cp.block_cols) / step_c + 1);
  return std::min(afo.blocks_per_merge, candidates);
}

} // namespace

analysis::MappingSpec describe_ffbp_mapping(const sar::RadarParams& p,
                                            const FfbpMapOptions& opt,
                                            ep::ChipConfig cfg) {
  const std::size_t n_levels = p.merge_levels();
  const std::size_t n_range = p.n_range;
  const std::size_t row_bytes = n_range * sizeof(cf32);
  const auto n = static_cast<std::size_t>(opt.n_cores);
  const sar::FfbpOptions algo =
      opt.autofocus != nullptr ? opt.autofocus->ffbp : opt.algo;
  const OpCounts pixel_ops = sar::merge_pixel_ops(algo);
  const std::size_t taps = interp_taps(algo.interp);

  MappingSpec spec;
  spec.name = opt.autofocus != nullptr ? "ffbp-autofocus"
              : opt.n_cores == 1       ? "ffbp-sequential"
              : opt.double_buffer      ? "ffbp-double-buffer"
                                       : "ffbp-spmd";
  spec.family = "spmd";
  spec.cfg = cfg;
  spec.barriers.push_back(BarrierDecl{"merge-barrier", opt.n_cores, {}});
  for (int c = 0; c < opt.n_cores; ++c)
    spec.barriers.back().members.push_back(c);

  for (int c = 0; c < opt.n_cores; ++c) {
    CoreSpec core;
    core.id = c;
    core.role = "merge";
    core.allocs = {
        {"out_row", 1, row_bytes, "ffbp-setup"},
        {"child_row1", 2, (opt.double_buffer ? 2 : 1) * row_bytes,
         "ffbp-setup"},
        {"child_row2", 3, (opt.double_buffer ? 2 : 1) * row_bytes,
         "ffbp-setup"},
    };
    for (std::size_t level = 1; level <= n_levels; ++level) {
      const LevelLayout lc = LevelLayout::at(p, level - 1);
      const LevelLayout lp = LevelLayout::at(p, level);
      const std::string iter = std::to_string(level);

      if (opt.autofocus != nullptr) {
        CorePhase af;
        af.name = "af-estimate/" + iter;
        // Pairs strided core, core + n, ... across the level's subapertures.
        const std::size_t pairs_own =
            lp.n_subaps > static_cast<std::size_t>(c)
                ? (lp.n_subaps - static_cast<std::size_t>(c) + n - 1) / n
                : 0;
        if (level >= opt.autofocus->first_level && pairs_own > 0) {
          const std::size_t child_bytes =
              lc.n_theta * lc.n_range * sizeof(cf32);
          af.blocking_reads.push_back(BlockingRead{pairs_own, 2, child_bytes});
          af.compute.push_back(ComputeBlock{
              af::estimate_pair_ops(
                  opt.autofocus->criterion,
                  aoi_blocks(*opt.autofocus, lc.n_theta, lc.n_range)),
              pairs_own});
        }
        af.barrier = 0;
        core.phases.push_back(std::move(af));
        core.sync.push_back(
            SyncOp{SyncOp::Kind::kBarrier, 0, 1, "af-estimate/" + iter});
      }

      CorePhase merge;
      merge.name = "merge-iter/" + iter;
      const std::size_t rows_total = lp.rows_total();
      const std::size_t begin = static_cast<std::size_t>(c) * rows_total / n;
      const std::size_t end =
          (static_cast<std::size_t>(c) + 1) * rows_total / n;
      const std::size_t rows = end - begin;
      if (rows > 0) {
        if (opt.prefetch) {
          merge.compute.push_back(ComputeBlock{kPredictOps, rows});
          merge.dma_reads.push_back(
              DmaRead{rows, 2, row_bytes, opt.double_buffer});
        } else {
          // Every sample_child fetch misses: up to 2 children x taps x
          // n_range word gathers per row (fewer at sector edges).
          merge.blocking_reads.push_back(
              BlockingRead{rows, 2 * taps * n_range, sizeof(cf32)});
        }
        merge.compute.push_back(ComputeBlock{
            static_cast<std::uint64_t>(n_range) * pixel_ops +
                sar::kMergeRowOps,
            rows});
        merge.writes.push_back(PostedWrite{rows, row_bytes});
      }
      merge.barrier = 0;
      core.phases.push_back(std::move(merge));
      core.sync.push_back(
          SyncOp{SyncOp::Kind::kBarrier, 0, 1, "merge-iter/" + iter});
    }
    spec.cores.push_back(std::move(core));
  }
  return spec;
}

analysis::MappingSpec describe_gbp_mapping(const sar::RadarParams& p,
                                           int n_cores, ep::ChipConfig cfg) {
  const std::size_t n_range = p.n_range;
  const std::size_t row_bytes = n_range * sizeof(cf32);
  const std::size_t rows_total = p.n_pulses; // polar grid: one row per pulse
  const std::size_t iters = p.n_pulses / 2;  // two pulses per DMA burst

  MappingSpec spec;
  spec.name = n_cores == 1 ? "gbp-sequential" : "gbp-spmd";
  spec.family = "spmd";
  spec.cfg = cfg;
  for (int c = 0; c < n_cores; ++c) {
    CoreSpec core;
    core.id = c;
    core.role = "backprojection";
    core.allocs = {
        {"acc", 1, row_bytes, "gbp-setup"},
        {"pulse_a", 2, row_bytes, "gbp-setup"},
        {"pulse_b", 3, row_bytes, "gbp-setup"},
    };
    const std::size_t begin =
        static_cast<std::size_t>(c) * rows_total /
        static_cast<std::size_t>(n_cores);
    const std::size_t end = (static_cast<std::size_t>(c) + 1) * rows_total /
                            static_cast<std::size_t>(n_cores);
    const std::size_t rows = end - begin;
    CorePhase ph;
    ph.name = "gbp-rows";
    if (rows > 0) {
      ph.dma_reads.push_back(DmaRead{rows * iters, 2, row_bytes});
      ph.compute.push_back(ComputeBlock{
          2 * static_cast<std::uint64_t>(n_range) * sar::kGbpContribOps,
          rows * iters});
      ph.writes.push_back(PostedWrite{rows, row_bytes});
    }
    core.phases.push_back(std::move(ph));
    spec.cores.push_back(std::move(core));
  }
  return spec;
}

analysis::MappingSpec describe_autofocus_mpmd(std::size_t n_pairs,
                                              const af::AfParams& p,
                                              const AfMapOptions& opt,
                                              ep::ChipConfig cfg) {
  const Placement pl = make_placement(opt.placement, cfg);
  const std::size_t block_px = p.block_rows * p.block_cols;
  const std::size_t n_shifts = p.shift_candidates.size();
  const std::uint64_t msgs = n_pairs * n_shifts * p.samples_per_row;

  MappingSpec spec;
  switch (opt.placement) {
  case AfPlacement::kCompact: spec.name = "af-mpmd-compact"; break;
  case AfPlacement::kScattered: spec.name = "af-mpmd-scattered"; break;
  case AfPlacement::kAuto: spec.name = "af-mpmd-auto"; break;
  }
  spec.family = "mpmd";
  spec.cfg = cfg;

  // Channel indices: r2b(f, w) = 3f + w, b2c(f, w) = 6 + 3f + w.
  const auto r2b = [](int f, int w) {
    return static_cast<std::size_t>(3 * f + w);
  };
  const auto b2c = [](int f, int w) {
    return static_cast<std::size_t>(6 + 3 * f + w);
  };
  spec.channels.resize(12);
  for (int f = 0; f < 2; ++f)
    for (int w = 0; w < 3; ++w) {
      spec.channels[r2b(f, w)] = ChannelDecl{
          "range->beam[" + std::to_string(f) + "][" + std::to_string(w) + "]",
          pl.range[f][w], pl.beam[f][w], opt.channel_capacity,
          sizeof(RangePacket)};
      spec.channels[b2c(f, w)] = ChannelDecl{
          "beam->corr[" + std::to_string(f) + "][" + std::to_string(w) + "]",
          pl.beam[f][w], pl.corr, opt.channel_capacity, sizeof(BeamPacket)};
    }

  for (int f = 0; f < 2; ++f)
    for (int w = 0; w < 3; ++w) {
      CoreSpec range;
      range.id = pl.range[f][w];
      range.role = "range";
      range.allocs = {
          {"aoi_block", 2, block_px * sizeof(cf32), "range-interp"}};
      CorePhase rp;
      rp.name = "range-stream";
      rp.dma_reads.push_back(DmaRead{n_pairs, 1, block_px * sizeof(cf32)});
      rp.compute.push_back(ComputeBlock{range_core_sample_ops(p), msgs});
      rp.sends.push_back(ChannelTraffic{r2b(f, w), msgs});
      range.phases.push_back(std::move(rp));
      range.sync.push_back(
          SyncOp{SyncOp::Kind::kSend, r2b(f, w), msgs, "range-interp"});
      spec.cores.push_back(std::move(range));

      CoreSpec beam;
      beam.id = pl.beam[f][w];
      beam.role = "beam";
      CorePhase bp;
      bp.name = "beam-stream";
      bp.compute.push_back(ComputeBlock{beam_core_sample_ops(p), msgs});
      bp.recvs.push_back(ChannelTraffic{r2b(f, w), msgs});
      bp.sends.push_back(ChannelTraffic{b2c(f, w), msgs});
      beam.phases.push_back(std::move(bp));
      // recv/send strictly alternate, which is what bounds the in-flight
      // packets the deadlock checker reasons about.
      for (std::uint64_t i = 0; i < msgs; ++i) {
        beam.sync.push_back(
            SyncOp{SyncOp::Kind::kRecv, r2b(f, w), 1, "beam-interp"});
        beam.sync.push_back(
            SyncOp{SyncOp::Kind::kSend, b2c(f, w), 1, "beam-interp"});
      }
      spec.cores.push_back(std::move(beam));
    }

  CoreSpec corr;
  corr.id = pl.corr;
  corr.role = "corr";
  CorePhase cp;
  cp.name = "corr-stream";
  cp.compute.push_back(ComputeBlock{
      corr_sample_ops(p),
      n_pairs * n_shifts * p.windows * p.samples_per_row});
  for (int f = 0; f < 2; ++f)
    for (int w = 0; w < 3; ++w)
      cp.recvs.push_back(ChannelTraffic{b2c(f, w), msgs});
  cp.writes.push_back(PostedWrite{n_pairs, n_shifts * sizeof(float)});
  corr.phases.push_back(std::move(cp));
  for (std::uint64_t i = 0; i < n_pairs * n_shifts; ++i)
    for (int w = 0; w < 3; ++w)
      for (std::size_t s = 0; s < p.samples_per_row; ++s) {
        corr.sync.push_back(
            SyncOp{SyncOp::Kind::kRecv, b2c(0, w), 1, "criterion-block"});
        corr.sync.push_back(
            SyncOp{SyncOp::Kind::kRecv, b2c(1, w), 1, "criterion-block"});
      }
  spec.cores.push_back(std::move(corr));
  return spec;
}

analysis::MappingSpec describe_autofocus_sequential(std::size_t n_pairs,
                                                    const af::AfParams& p,
                                                    ep::ChipConfig cfg) {
  const std::size_t block_px = p.block_rows * p.block_cols;
  const std::size_t n_shifts = p.shift_candidates.size();
  const std::uint64_t steps =
      static_cast<std::uint64_t>(n_shifts) * p.windows * p.samples_per_row;

  MappingSpec spec;
  spec.name = "af-sequential";
  spec.family = "spmd";
  spec.cfg = cfg;
  CoreSpec core;
  core.id = 0;
  core.role = "autofocus";
  core.allocs = {
      {"block_pair", 2, 2 * block_px * sizeof(cf32), "criterion-block"}};
  CorePhase ph;
  ph.name = "af-sequential";
  ph.dma_reads.push_back(DmaRead{n_pairs, 1, 2 * block_px * sizeof(cf32)});
  ph.compute.push_back(ComputeBlock{steps * af::per_sample_ops(p), n_pairs});
  ph.writes.push_back(PostedWrite{n_pairs, n_shifts * sizeof(float)});
  core.phases.push_back(std::move(ph));
  spec.cores.push_back(std::move(core));
  return spec;
}

} // namespace esarp::core
