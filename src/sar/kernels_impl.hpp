// Private backend interface of the unified kernel API (sar/kernels.hpp):
// each backend translation unit (scalar, AVX2, AVX-512) fills one
// KernelTable; kernels.cpp owns the dispatch. Not for inclusion outside
// the kernels_*.cpp family.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "sar/gbp.hpp"
#include "sar/merge_kernel.hpp"

namespace esarp::sar::kernels::detail {

struct KernelTable {
  void (*merge_geometry_row)(float r0, float dr, std::size_t j0,
                             std::size_t n, float cr, float d2, float inv_2d,
                             MergeGeom* out);
  std::uint64_t (*merge_sample_row)(const ChildGrid& g, Interp interp,
                                    bool phase_compensate,
                                    const MergeGeom* geom, float shift1,
                                    float shift2, ChildSource c1,
                                    ChildSource c2, cf32* out, std::size_t n);
  void (*neville4_many)(const cf32* y, const float* t, cf32* out,
                        std::size_t n);
  void (*neville4_rows)(const cf32* row0, const cf32* row1, const cf32* row2,
                        const cf32* row3, const float* t, cf32* out,
                        std::size_t n);
  void (*criterion_terms)(const cf32* minus, const cf32* plus, float* out,
                          std::size_t n);
  void (*gbp_contrib_row)(const float* px, const float* py, float pulse_x,
                          const cf32* pulse_row, const GbpGrid& g, cf32* acc,
                          std::size_t n);
};

/// The scalar reference table; never null.
const KernelTable* scalar_table();

/// The AVX2 table; null when the translation unit was not compiled with
/// -mavx2 (non-x86-64 targets). Runtime cpu support is checked separately
/// by the dispatcher.
const KernelTable* avx2_table();

/// The AVX-512 table; null when the translation unit was not compiled
/// with -mavx512f, -mavx512dq, -mavx512vl and -mavx512bw (non-x86-64
/// targets). Runtime cpu and OS support is checked by the dispatcher.
const KernelTable* avx512_table();

} // namespace esarp::sar::kernels::detail
