// Runtime dispatch of the unified kernel API (sar/kernels.hpp): the best
// available backend is resolved once on first use from compile-time
// availability, runtime cpu detection and the ESARP_KERNELS environment
// variable, then every kernel call goes through one function-pointer
// table. The per-call indirection is amortised over the lane count each
// entry point processes.
#include "sar/kernels.hpp"

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "sar/kernels_impl.hpp"

namespace esarp::sar::kernels {

namespace {

using detail::KernelTable;

bool cpu_has(Backend b) {
#if defined(__x86_64__) || defined(__i386__)
  switch (b) {
    case Backend::kScalar: return true;
    case Backend::kAvx2: return __builtin_cpu_supports("avx2") != 0;
  }
#endif
  return b == Backend::kScalar;
}

const KernelTable* table_of(Backend b) {
  switch (b) {
    case Backend::kScalar: return detail::scalar_table();
    case Backend::kAvx2: return detail::avx2_table();
  }
  return nullptr;
}

Backend best_available() {
  return backend_available(Backend::kAvx2) ? Backend::kAvx2
                                           : Backend::kScalar;
}

/// ESARP_KERNELS=scalar pins the scalar reference; anything else — "avx2",
/// the documented "auto" or an unknown value — picks the best available
/// backend, which is AVX2 whenever this build and cpu have it.
Backend initial_backend() {
  const char* env = std::getenv("ESARP_KERNELS");
  if (env != nullptr && std::string_view(env) == "scalar")
    return Backend::kScalar;
  return best_available();
}

struct Dispatch {
  Backend backend;
  const KernelTable* table;
};

Dispatch& dispatch() {
  static Dispatch d{initial_backend(), table_of(initial_backend())};
  return d;
}

} // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "?";
}

bool backend_available(Backend b) {
  return table_of(b) != nullptr && cpu_has(b);
}

Backend active() { return dispatch().backend; }

const char* active_name() { return backend_name(active()); }

void force_backend(Backend b) {
  ESARP_REQUIRE(backend_available(b),
                std::string("kernel backend not available: ") +
                    backend_name(b));
  dispatch() = Dispatch{b, table_of(b)};
}

void merge_geometry_row(float r0, float dr, std::size_t j0, std::size_t n,
                        float cr, float d2, float inv_2d, MergeGeom* out) {
  dispatch().table->merge_geometry_row(r0, dr, j0, n, cr, d2, inv_2d, out);
}

std::uint64_t merge_sample_row(const ChildGrid& g, Interp interp,
                               bool phase_compensate, const MergeGeom* geom,
                               float shift1, float shift2, ChildSource c1,
                               ChildSource c2, cf32* out, std::size_t n) {
  return dispatch().table->merge_sample_row(g, interp, phase_compensate, geom,
                                            shift1, shift2, c1, c2, out, n);
}

void neville4_many(const cf32 y[4], const float* t, cf32* out,
                   std::size_t n) {
  dispatch().table->neville4_many(y, t, out, n);
}

void neville4_rows(const cf32* row0, const cf32* row1, const cf32* row2,
                   const cf32* row3, const float* t, cf32* out,
                   std::size_t n) {
  dispatch().table->neville4_rows(row0, row1, row2, row3, t, out, n);
}

void criterion_terms(const cf32* minus, const cf32* plus, float* out,
                     std::size_t n) {
  dispatch().table->criterion_terms(minus, plus, out, n);
}

void gbp_contrib_row(const float* px, const float* py, float pulse_x,
                     const cf32* pulse_row, const GbpGrid& g, cf32* acc,
                     std::size_t n) {
  dispatch().table->gbp_contrib_row(px, py, pulse_x, pulse_row, g, acc, n);
}

} // namespace esarp::sar::kernels
