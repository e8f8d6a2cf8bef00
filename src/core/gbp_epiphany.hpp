// Global Back-Projection on the simulated Epiphany chip (SPMD baseline).
//
// The paper positions FFBP as the efficient alternative to GBP
// ("[FFBP] reduces the performance requirements significantly relative to
// those for the conventional Global Back-projection technique") and the
// group's earlier work (ICPP'07, ref [4]) analyses exactly why GBP is hard
// on memory-limited hardware: every output pixel needs every pulse. This
// mapping makes that concrete: output rows are partitioned over cores;
// each core accumulates one output row in a local bank while streaming the
// pulse data through the other two banks, two pulses per DMA — so the
// entire raw data set crosses the eLink once per assigned output row.
#pragma once

#include "common/array2d.hpp"
#include "common/types.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/machine_metrics.hpp"
#include "sar/gbp.hpp"
#include "sar/params.hpp"

namespace esarp::core {

/// One GBP chip run: the shared measurements plus the image.
struct GbpSimResult : ep::ChipRun {
  Array2D<cf32> image; ///< [n_pulses x n_range] polar image
};

/// Run GBP on `n_cores` simulated cores. The image matches sar::gbp up to
/// floating-point accumulation order (the SPMD kernel sums pulse pairs).
/// `max_cycles` arms the scheduler watchdog (0 = unbounded), the same
/// per-job timeout knob FfbpMapOptions exposes — the fleet runtime
/// (src/serve) uses it to bound a wedged job instead of hanging the fleet.
[[nodiscard]] GbpSimResult run_gbp_epiphany(const Array2D<cf32>& data,
                                            const sar::RadarParams& p,
                                            int n_cores = 16,
                                            ep::ChipConfig cfg = {},
                                            ep::Cycles max_cycles = 0);

} // namespace esarp::core
