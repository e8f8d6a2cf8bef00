// The FFBP element-combining inner kernel — shared verbatim by the
// sequential host reference, the sequential-Epiphany kernel, and the
// 16-core SPMD kernel, so all three produce bit-identical images and are
// charged for exactly the same counted work.
//
// Geometry (paper eqs. 1-4, Fig. 3(b)): a parent subaperture pixel at polar
// position (r, theta) about the parent phase centre receives contributions
// from its two child subapertures whose phase centres sit at -l/2 and +l/2
// along the track (l = child subaperture length). The cosine theorem gives
// the child-relative coordinates:
//   r1 = sqrt(r^2 + d^2 + 2 r d cos(theta)),  d = l/2      (eq. 1)
//   r2 = sqrt(r^2 + d^2 - 2 r d cos(theta))                (eq. 2)
//   theta1 =        acos((r1^2 + d^2 - r^2) / (2 r1 d))    (eq. 3)
//   theta2 = pi -   acos((r2^2 + d^2 - r^2) / (2 r2 d))    (eq. 4)
// and the element combining is a(r,theta) = a1(r1,theta1) + a2(r2,theta2)
// (eq. 5). The square roots, reciprocals and arccosines use the shared
// fastmath implementations (the paper's "less compute-intensive
// implementation of the square root", applied on both architectures).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "common/fastmath.hpp"
#include "common/opcounts.hpp"
#include "common/types.hpp"
#include "sar/interp.hpp"

namespace esarp::sar {

/// Child-relative polar coordinates of one parent pixel.
struct MergeGeom {
  float r1, theta1; ///< in the trailing child (centre at -l/2)
  float r2, theta2; ///< in the leading child (centre at +l/2)
};

/// Compute eqs. 1-4. `r` is the parent pixel range, `cr = 2*d*cos(theta)`
/// is precomputed once per theta row (d = half the child spacing), `d2 =
/// d*d`, `inv_2d = 1/(2*d)`.
inline MergeGeom merge_geometry(float r, float cr, float d2, float inv_2d) {
  namespace fm = esarp::fastmath;
  const float r2v = r * r;
  const float base = r2v + d2;
  const float rcr = r * cr;
  const float r1sq = base + rcr; // eq. 1 squared
  const float r2sq = base - rcr; // eq. 2 squared
  const float r1 = fm::fast_sqrt(r1sq);
  const float r2 = fm::fast_sqrt(r2sq);
  // eq. 3: acos((r1^2 + d^2 - r^2) / (r1 * l)) with l = 2d.
  const float n1 = r1sq + d2 - r2v;
  const float n2 = r2sq + d2 - r2v;
  const float i1 = fm::fast_recip_pos(r1 > 0.0f ? r1 : 1.0f);
  const float i2 = fm::fast_recip_pos(r2 > 0.0f ? r2 : 1.0f);
  const float a1 = n1 * i1 * inv_2d;
  const float a2 = n2 * i2 * inv_2d;
  const float c1 = a1 > 1.0f ? 1.0f : (a1 < -1.0f ? -1.0f : a1);
  const float c2 = a2 > 1.0f ? 1.0f : (a2 < -1.0f ? -1.0f : a2);
  constexpr float pi = 3.14159265358979f;
  return {r1, fm::poly_acos(c1), r2, pi - fm::poly_acos(c2)};
}

/// Work of one merge_geometry call, matching the body above:
///   3 fmul + 3 fadd for the squared-range forms,
///   2 fast_sqrt, 2 fast_recip,
///   per child: 2 fadd (numerator) + 2 fmul (normalise) + clamp (2 fcmp),
///   2 poly_acos + 1 fadd (the pi - ... of eq. 4).
inline constexpr OpCounts kMergeGeomOps =
    OpCounts{.fadd = 3 + 4 + 1, .fmul = 3 + 4, .fcmp = 4 + 2} +
    2 * fastmath::kSqrtOps + 2 * fastmath::kRecipOps + 2 * fastmath::kAcosOps;

/// Work of turning the geometry into nearest-neighbour (range, angle)
/// indices for both children and combining (paper eq. 5):
///   per child: 2 fma (scale to bin coordinates) + 2 float->int + bounds
///   checks, 2 word loads; plus the complex accumulate (2 fadd) and the
///   2-word store of the parent pixel.
inline constexpr OpCounts kMergeIndexCombineOps{
    .fadd = 4, // complex accumulation of both children
    .fma = 4,  // bin-coordinate scaling (r and theta, both children)
    .fcmp = 8, // bounds checks
    .ialu = 12, // float->int conversions, address arithmetic
    .branch = 2,
    .load = 4,  // two complex child pixels
    .store = 2, // one complex parent pixel
};

/// Total per-pixel work of the nearest-neighbour merge inner loop.
inline constexpr OpCounts kMergePixelOps =
    kMergeGeomOps + kMergeIndexCombineOps;

/// Per-theta-row setup work (cos(theta) and derived constants, amortised
/// over n_range pixels).
inline constexpr OpCounts kMergeRowOps =
    fastmath::kCosOps + OpCounts{.fadd = 1, .fmul = 2, .ialu = 6};

/// Interpolation kernel used when sampling child subaperture images.
enum class Interp {
  kNearest, ///< the paper's "simplified (nearest neighbor) interpolation"
  kLinear,  ///< linear in range, nearest in angle
  kCubic,   ///< 4-point Neville in range, nearest in angle
};

/// Child-grid constants in single precision, precomputed once per merge.
struct ChildGrid {
  float theta_start; ///< lower edge of the angular sector
  float inv_dtheta;  ///< 1 / child angular bin width
  int n_theta;
  float r0;      ///< range of bin 0
  float dr;      ///< range-bin spacing
  float inv_dr;  ///< 1 / dr
  int n_range;
  float k_phase; ///< 4*pi/lambda, for the phase-compensated variant
  // Carrier rotation per range bin (k_phase * dr) and its phasor powers,
  // used by the carrier-aware linear/cubic kernels: the stored data's
  // phase is referenced to the bin grid, so neighbouring bins differ by a
  // fixed rotation that must be removed before complex interpolation and
  // restored at the interpolated position.
  float carrier_rad;  ///< k_phase * dr [radians per bin]
  cf32 rot_m1;        ///< e^{-i carrier_rad}
  cf32 rot_p1;        ///< e^{+i carrier_rad}
  cf32 rot_m2;        ///< e^{-2 i carrier_rad}
};

/// Sample one child image at child-relative polar position (rc, thc).
/// `fetch(it, ir)` returns the child pixel at integer indices and is only
/// invoked with it in [0, n_theta) and ir in [0, n_range). Out-of-sector /
/// out-of-swath positions contribute zero (the paper's "skip the additions
/// with zero when the indices are out of range").
///
/// This template is the single definition of the merge arithmetic: the
/// sequential host reference and the simulated Epiphany kernels instantiate
/// it with different fetchers but produce bit-identical pixels.
template <typename Fetch>
inline cf32 sample_child(const ChildGrid& g, float rc, float thc,
                         Interp interp, bool phase_compensate,
                         Fetch&& fetch) {
  namespace fm = esarp::fastmath;
  const float tf = (thc - g.theta_start) * g.inv_dtheta;
  const int it = static_cast<int>(tf); // containing angular bin
  if (tf < 0.0f || it >= g.n_theta) return {};
  const float rf = (rc - g.r0) * g.inv_dr;

  cf32 v{};
  switch (interp) {
    case Interp::kNearest: {
      const int ir = static_cast<int>(rf + 0.5f);
      if (rf < -0.5f || ir < 0 || ir >= g.n_range) return {};
      v = fetch(it, ir);
      if (phase_compensate) {
        // Residual range phase between the exact range and the bin grid.
        const float resid =
            g.k_phase * (rc - (g.r0 + static_cast<float>(ir) * g.dr));
        const cf32 ph{fm::poly_cos(resid), fm::poly_sin(resid)};
        v *= ph;
      }
      break;
    }
    case Interp::kLinear: {
      const int ir = static_cast<int>(rf);
      if (rf < 0.0f || ir + 1 >= g.n_range) return {};
      const float t = rf - static_cast<float>(ir);
      // Carrier-aware: de-reference the second node to bin ir's carrier
      // phase, interpolate the now-smooth signal, then restore the
      // carrier at the fractional position.
      const cf32 y0 = fetch(it, ir);
      const cf32 y1 = fetch(it, ir + 1) * g.rot_m1;
      const cf32 s = y0 + (y1 - y0) * t;
      const float ph = g.carrier_rad * t;
      v = s * cf32{fm::poly_cos(ph), fm::poly_sin(ph)};
      break;
    }
    case Interp::kCubic: {
      const int ir = static_cast<int>(rf);
      if (rf < 1.0f || ir + 2 >= g.n_range || ir < 1) return {};
      const float t = rf - static_cast<float>(ir) + 1.0f; // node offset
      // Carrier-aware Neville: nodes de-referenced to bin ir (node 1).
      const cf32 y[4] = {fetch(it, ir - 1) * g.rot_p1, fetch(it, ir),
                         fetch(it, ir + 1) * g.rot_m1,
                         fetch(it, ir + 2) * g.rot_m2};
      const cf32 s = neville4(y, t);
      const float ph = g.carrier_rad * (t - 1.0f);
      v = s * cf32{fm::poly_cos(ph), fm::poly_sin(ph)};
      break;
    }
  }
  return v;
}

/// Where one child's samples come from during a merge row. A fetch from
/// theta row `staged_row` reads `staged` (n_range pixels); any other row
/// reads the row-major child image `image` (n_theta x n_range) and counts
/// as a miss. On a fault campaign `staged` is the local-store copy the DMA
/// delivered; a clean chip run, whose copy would equal its source, points
/// it at that row of `image` itself (core_ctx.hpp's charge-only ops). The
/// host reference stages nothing (staged_row = -1).
struct ChildSource {
  int staged_row = -1;
  const cf32* staged = nullptr;
  const cf32* image = nullptr;
};

/// sample_child's fetcher for a ChildSource. A miss is bounds-checked
/// before it reads the image: a NaN angle truncates to a bin that passes
/// the sector test, and must raise ContractViolation, not read out of
/// bounds.
inline cf32 fetch_child(const ChildGrid& g, const ChildSource& s, int it,
                        int ir, std::uint64_t& misses) {
  if (it == s.staged_row) return s.staged[static_cast<std::size_t>(ir)];
  ++misses;
  ESARP_EXPECTS(it >= 0 && it < g.n_theta && ir >= 0 && ir < g.n_range);
  return s.image[static_cast<std::size_t>(it) *
                     static_cast<std::size_t>(g.n_range) +
                 static_cast<std::size_t>(ir)];
}

/// One parent pixel from its precomputed geometry (paper eq. 5): child 1
/// sampled at range r1 + shift1, child 2 at r2 + shift2, and the sum.
/// The shifts carry the autofocus compensation (0 without autofocus;
/// adding -0.0f leaves every range bit-identical). `misses` counts the
/// fetches that missed the staged rows.
inline cf32 merge_sample(const ChildGrid& g, Interp interp,
                         bool phase_compensate, const MergeGeom& geom,
                         float shift1, float shift2, const ChildSource& c1,
                         const ChildSource& c2, std::uint64_t& misses) {
  const cf32 v1 = sample_child(
      g, geom.r1 + shift1, geom.theta1, interp, phase_compensate,
      [&](int it, int ir) { return fetch_child(g, c1, it, ir, misses); });
  const cf32 v2 = sample_child(
      g, geom.r2 + shift2, geom.theta2, interp, phase_compensate,
      [&](int it, int ir) { return fetch_child(g, c2, it, ir, misses); });
  return v1 + v2;
}

/// One complex multiply expressed as mul/fma pairs.
inline constexpr OpCounts kComplexMulOps{.fmul = 2, .fma = 2};

/// Extra per-child-sample work of the carrier handling in the linear
/// kernel: one node de-reference, the fractional re-reference phasor
/// (poly cos+sin) and the result rotation.
inline constexpr OpCounts kCarrierLinearOps =
    2 * kComplexMulOps + fastmath::kCosOps + fastmath::kSinOps +
    OpCounts{.fmul = 1};

/// Extra per-child-sample work of the carrier handling in the cubic
/// kernel: three node de-references plus the fractional re-reference.
inline constexpr OpCounts kCarrierCubicOps =
    4 * kComplexMulOps + fastmath::kCosOps + fastmath::kSinOps +
    OpCounts{.fadd = 1, .fmul = 1};

/// Additional per-pixel work when the residual range phase is compensated
/// (the quality-improving merge variant; see FfbpOptions::phase_compensate):
/// one poly_sin + one poly_cos on the residual and a complex multiply.
inline constexpr OpCounts kPhaseCompensateOps =
    fastmath::kSinOps + fastmath::kCosOps +
    OpCounts{.fadd = 4, .fmul = 4, .fma = 2};

} // namespace esarp::sar
