// Unified kernel API: the interpolation / merge / criterion /
// back-projection inner loops behind one runtime-dispatched interface with
// three backends, the scalar reference, AVX2 and AVX-512.
//
// The scalar backend is the reference: it calls the exact inline kernels
// (sar/interp.hpp, sar/merge_kernel.hpp, sar/gbp.hpp) the adoption sites
// used to inline directly. The AVX2 and AVX-512 backends replicate every
// operation lane-by-lane — same operation order and association,
// ternaries as blends, the fastmath bit tricks on integer lanes, `sqrtps`
// for the IEEE-exact std::sqrt, and GBP's double-precision carrier phase
// as sar/carrier.hpp's one lane algorithm in double vectors — and all
// kernel translation units are compiled with -ffp-contract=off, so every
// backend produces bit-identical results (enforced by
// tests/test_kernels.cpp, tests/test_carrier.cpp and the micro_kernels
// bench rows). Both run one kernel body (kernels_simd_body.hpp) at widths
// fixed per kernel by measurement: AVX2 advances 8-lane groups,
// merge_geometry_row four at a time, merge_sample_row two and the other
// kernels one; AVX-512 advances 16-lane groups, merge_geometry_row four,
// merge_sample_row two and gbp_contrib_row one, and takes the AVX2
// entries for the Neville and criterion kernels. A loop's remainder runs
// through the narrower loops, leaving at most 15 samples of a row to
// scalar code. Simulated-cycle costs are analytic (OpCounts), so backend
// choice affects host wall-clock only: images, cycles, energy and
// manifests are unchanged.
//
// Backend selection: the best the build, CPU and OS support — AVX-512,
// else AVX2, else scalar — picked once at first use. ESARP_KERNELS=scalar
// pins the reference, e.g. to rule the vector backends out while
// debugging; any other value (the documented "auto" included) picks the
// best (docs/performance.md).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "sar/gbp.hpp"
#include "sar/merge_kernel.hpp"

namespace esarp::sar::kernels {

/// Values are stable: the kernel.active_backend gauge records them.
enum class Backend { kScalar, kAvx2, kAvx512 };

/// Static name of a backend ("scalar", "avx2", "avx512").
[[nodiscard]] const char* backend_name(Backend b);

/// True when `b` is both compiled in and supported by this CPU.
[[nodiscard]] bool backend_available(Backend b);

/// The backend the dispatch table currently points at (resolved on first
/// use from availability and ESARP_KERNELS).
[[nodiscard]] Backend active();
[[nodiscard]] const char* active_name();

/// Repoint the dispatch table (tests and benches only). Not thread-safe:
/// the sweep runner's workers outlive each run and call the kernels in
/// every clean chip run's host passes, so call it only while no sweep or
/// pass runs. Requires backend_available(b).
void force_backend(Backend b);

/// merge_geometry (paper eqs. 1-4) for a contiguous run of range bins:
/// out[i] = merge_geometry(r0 + float(j0 + i) * dr, cr, d2, inv_2d).
void merge_geometry_row(float r0, float dr, std::size_t j0, std::size_t n,
                        float cr, float d2, float inv_2d, MergeGeom* out);

/// Paper eq. 5 over one parent row from that row's precomputed geometry:
/// out[i] = merge_sample(g, interp, phase_compensate, geom[i], shift1,
/// shift2, c1, c2). Returns how many child fetches missed the staged rows
/// (the blocking SDRAM reads the simulated core is charged for).
/// Nearest neighbour without phase compensation runs in lanes: bin
/// indices and bounds, the staged-row hit test, the gather of both
/// children and the sum. The other modes call sample_child per pixel.
/// A miss outside the child image (a NaN angle) throws ContractViolation.
[[nodiscard]] std::uint64_t
merge_sample_row(const ChildGrid& g, Interp interp, bool phase_compensate,
                 const MergeGeom* geom, float shift1, float shift2,
                 ChildSource c1, ChildSource c2, cf32* out, std::size_t n);

/// Neville cubic at many positions over one fixed 4-node window:
/// out[i] = neville4(y, t[i]).
void neville4_many(const cf32 y[4], const float* t, cf32* out,
                   std::size_t n);

/// Neville cubic with per-position nodes gathered from four parallel
/// arrays: out[i] = neville4({row0[i], row1[i], row2[i], row3[i]}, t[i]).
void neville4_rows(const cf32* row0, const cf32* row1, const cf32* row2,
                   const cf32* row3, const float* t, cf32* out,
                   std::size_t n);

/// Criterion correlation terms (paper eq. 6, before accumulation):
/// out[i] = |minus[i]|^2 * |plus[i]|^2.
void criterion_terms(const cf32* minus, const cf32* plus, float* out,
                     std::size_t n);

/// One pulse's GBP contributions to a row of pixels:
/// acc[i] += gbp_contribution(px[i], py[i], pulse_x, pulse_row, g).
/// The range/bin geometry runs in float lanes, the carrier phase
/// (sar::carrier_rot) in double lanes, and the gather, complex multiply
/// and accumulate in float lanes again; a lane calls libm only when its
/// rotation fails carrier_rot's rounding certificate (rare: see
/// sar/carrier.hpp), and the scalar complex multiply only when both parts
/// of its product are NaN.
/// Lanes whose range is NaN or off the swath, however far, contribute
/// nothing.
void gbp_contrib_row(const float* px, const float* py, float pulse_x,
                     const cf32* pulse_row, const GbpGrid& g, cf32* acc,
                     std::size_t n);

} // namespace esarp::sar::kernels
