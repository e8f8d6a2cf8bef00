// Shared op-count profiles, message formats and placements of the shipped
// Epiphany mappings.
//
// These constants used to live in anonymous namespaces inside
// ffbp_epiphany.cpp / autofocus_epiphany.cpp; they are the ground truth
// for what each core charges per unit of work and how the MPMD pipeline
// is laid out on the mesh. The static analyzer's mapping descriptors
// (core/mapping_desc.hpp) must agree with the programs byte-for-byte, so
// both sides now read the same definitions.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "autofocus/criterion_kernel.hpp"
#include "common/opcounts.hpp"
#include "epiphany/config.hpp"
#include "epiphany/graph.hpp"
#include "sar/merge_kernel.hpp"

namespace esarp::core {

/// Work of predicting the two contributing child rows for a parent row
/// (one merge_geometry evaluation at the row's mid pixel plus index math).
constexpr OpCounts kPredictOps =
    sar::kMergeGeomOps + OpCounts{.fma = 2, .fcmp = 4, .ialu = 10};

/// Streaming message: one range-interpolated column (all block rows at one
/// sample position). Sized for the paper's 6-row blocks (up to 8 rows).
struct RangePacket {
  std::array<cf32, 8> col;
  std::uint8_t rows = 0;
  std::uint8_t valid = 0;
};

/// Streaming message: squared magnitudes of the beam outputs at one sample
/// position (up to 4 beam windows).
struct BeamPacket {
  std::array<float, 4> mags;
  std::uint8_t count = 0;
  std::uint8_t valid = 0;
};

/// Where the 13-core autofocus pipeline's programs run.
enum class AfPlacement {
  kCompact,   ///< paper Fig. 9: window pipelines on adjacent cores
  kScattered, ///< worst-practice placement across the mesh (ablation)
  kAuto,      ///< ep::place_graph on the pipeline's channel graph
};

/// Core ids of the 13-core pipeline.
struct Placement {
  int range[2][3]; ///< [block][window]
  int beam[2][3];
  int corr;
};

/// The core ids of `placement`. The compact and scattered tables are laid
/// out for the 4x4 mesh; kAuto places the pipeline graph on `cfg`'s mesh.
inline Placement make_placement(AfPlacement placement,
                                const ep::ChipConfig& cfg = {}) {
  switch (placement) {
  case AfPlacement::kCompact:
    // Paper Fig. 9 style: each window pipeline occupies one mesh row;
    // range -> beam are horizontal neighbours, beams flank the columns
    // next to the correlator's column.
    //   block 0: range col 0 -> beam col 1; block 1: range col 3 -> beam
    //   col 2; correlator at (3,1), adjacent to the last beam row.
    return Placement{{{0, 4, 8}, {3, 7, 11}},
                     {{1, 5, 9}, {2, 6, 10}},
                     13};
  case AfPlacement::kScattered:
    // Every producer-consumer pair is several hops apart.
    return Placement{{{0, 1, 2}, {4, 8, 12}},
                     {{15, 14, 13}, {3, 7, 11}},
                     5};
  case AfPlacement::kAuto:
    break;
  }
  // Node 2(3f+w) is range[f][w], node 2(3f+w)+1 is beam[f][w] and node 12
  // the correlator; each channel weighs the bytes of its message.
  constexpr int kCorrNode = 12;
  std::vector<ep::GraphEdge> edges;
  for (int f = 0; f < 2; ++f)
    for (int w = 0; w < 3; ++w) {
      const int range = 2 * (3 * f + w);
      edges.push_back(
          {range, range + 1, static_cast<double>(sizeof(RangePacket))});
      edges.push_back(
          {range + 1, kCorrNode, static_cast<double>(sizeof(BeamPacket))});
    }
  const std::vector<ep::Coord> at =
      ep::place_graph(cfg.rows, cfg.cols, kCorrNode + 1, edges);
  const auto id = [&](int node) {
    const ep::Coord c = at[static_cast<std::size_t>(node)];
    return c.row * cfg.cols + c.col;
  };
  Placement pl{};
  for (int f = 0; f < 2; ++f)
    for (int w = 0; w < 3; ++w) {
      const int range = 2 * (3 * f + w);
      pl.range[f][w] = id(range);
      pl.beam[f][w] = id(range + 1);
    }
  pl.corr = id(kCorrNode);
  return pl;
}

/// Per-sample work charged on a range core: the sample geometry plus one
/// Neville evaluation per block row.
inline OpCounts range_core_sample_ops(const af::AfParams& p) {
  return af::kSampleGeomOps + af::range_stage_ops(p.block_rows);
}
/// Per-sample work charged on a beam core.
inline OpCounts beam_core_sample_ops(const af::AfParams& p) {
  return af::kSampleGeomOps +
         static_cast<std::uint64_t>(p.beams) * af::kBeamOutputOps;
}
/// Per-sample work charged on the correlation core.
inline OpCounts corr_sample_ops(const af::AfParams& p) {
  return static_cast<std::uint64_t>(p.beams) * af::kCorrTermOps +
         OpCounts{.ialu = 4, .branch = 1};
}

} // namespace esarp::core
