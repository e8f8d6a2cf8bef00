// Scalar reference backend of the unified kernel API: thin loops over the
// exact inline kernels the adoption sites used to call directly, so this
// backend is bit-identical to the pre-kernel-API code by construction.
// Compiled with -ffp-contract=off like every kernel TU (see
// src/sar/CMakeLists.txt) so the reference semantics cannot drift under a
// contraction-happy compiler configuration.
#include "sar/kernels_impl.hpp"

#include "sar/interp.hpp"

namespace esarp::sar::kernels::detail {

namespace {

void merge_geometry_row_scalar(float r0, float dr, std::size_t j0,
                               std::size_t n, float cr, float d2,
                               float inv_2d, MergeGeom* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const float r = r0 + static_cast<float>(j0 + i) * dr;
    out[i] = merge_geometry(r, cr, d2, inv_2d);
  }
}

std::uint64_t merge_sample_row_scalar(const ChildGrid& g, Interp interp,
                                      bool phase_compensate,
                                      const MergeGeom* geom, float shift1,
                                      float shift2, ChildSource c1,
                                      ChildSource c2, cf32* out,
                                      std::size_t n) {
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < n; ++i)
    out[i] = merge_sample(g, interp, phase_compensate, geom[i], shift1,
                          shift2, c1, c2, misses);
  return misses;
}

void neville4_many_scalar(const cf32* y, const float* t, cf32* out,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = neville4(y, t[i]);
}

void neville4_rows_scalar(const cf32* row0, const cf32* row1,
                          const cf32* row2, const cf32* row3, const float* t,
                          cf32* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const cf32 y[4] = {row0[i], row1[i], row2[i], row3[i]};
    out[i] = neville4(y, t[i]);
  }
}

void criterion_terms_scalar(const cf32* minus, const cf32* plus, float* out,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = criterion_term(minus[i], plus[i]);
}

void gbp_contrib_row_scalar(const float* px, const float* py, float pulse_x,
                            const cf32* pulse_row, const GbpGrid& g,
                            cf32* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    acc[i] += gbp_contribution(px[i], py[i], pulse_x, pulse_row, g);
}

} // namespace

const KernelTable* scalar_table() {
  static const KernelTable table{
      merge_geometry_row_scalar, merge_sample_row_scalar, neville4_many_scalar,
      neville4_rows_scalar, criterion_terms_scalar, gbp_contrib_row_scalar};
  return &table;
}

} // namespace esarp::sar::kernels::detail
