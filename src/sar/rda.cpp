#include "sar/rda.hpp"

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "fft/fft.hpp"
#include "sar/carrier.hpp"

namespace esarp::sar {

namespace {

/// Per-(sample) op estimates for the host model: one complex multiply and
/// the butterfly share of the FFT passes.
constexpr OpCounts kFftButterflyOps{.fadd = 4, .fmul = 4, .ialu = 4,
                                    .load = 4, .store = 4};
constexpr OpCounts kComplexMacOps{.fadd = 2, .fmul = 4, .load = 4,
                                  .store = 2};

} // namespace

RdaResult range_doppler(const Array2D<cf32>& data, const RadarParams& p,
                        const RdaOptions& opt) {
  p.validate();
  ESARP_EXPECTS(data.rows() == p.n_pulses && data.cols() == p.n_range);
  ESARP_EXPECTS(fft::is_pow2(p.n_pulses));

  const std::size_t n_az = p.n_pulses;
  const std::size_t n_rg = p.n_range;
  const fft::Fft plan(n_az);
  const double lambda = p.wavelength_m();
  const double dx = p.pulse_spacing_m;

  RdaResult res;

  // ---- 1. Azimuth FFT per range bin: into the range-Doppler domain. ----
  Array2D<cf32> rd(n_az, n_rg); // rd(f, j): azimuth frequency x range
  {
    std::vector<cf32> col(n_az);
    for (std::size_t j = 0; j < n_rg; ++j) {
      for (std::size_t pu = 0; pu < n_az; ++pu) col[pu] = data(pu, j);
      plan.forward(col);
      for (std::size_t f = 0; f < n_az; ++f) rd(f, j) = col[f];
    }
  }

  // Signed spatial frequency of FFT bin f [cycles/m].
  const auto freq_of = [&](std::size_t f) {
    const double k = f <= n_az / 2 ? static_cast<double>(f)
                                   : static_cast<double>(f) -
                                         static_cast<double>(n_az);
    return k / (static_cast<double>(n_az) * dx);
  };

  // ---- 2. RCMC: in range-Doppler, a scatterer's energy sits at
  //         R0 + lambda^2 R0 fx^2 / 8 — shift it back to R0 (linear
  //         interpolation along range). ----
  if (opt.rcmc) {
    std::vector<cf32> row(n_rg);
    for (std::size_t f = 0; f < n_az; ++f) {
      const double fx = freq_of(f);
      const double factor = lambda * lambda * fx * fx / 8.0;
      for (std::size_t j = 0; j < n_rg; ++j) row[j] = rd(f, j);
      for (std::size_t j = 0; j < n_rg; ++j) {
        const double r0 = p.near_range_m + static_cast<double>(j) *
                                               p.range_bin_m;
        const double shift_bins = factor * r0 / p.range_bin_m;
        const double src = static_cast<double>(j) + shift_bins;
        const auto lo = static_cast<std::size_t>(src);
        if (src < 0.0 || lo + 1 >= n_rg) {
          rd(f, j) = {};
          continue;
        }
        const float t = static_cast<float>(src - static_cast<double>(lo));
        rd(f, j) = row[lo] + (row[lo + 1] - row[lo]) * t;
      }
    }
  }

  // ---- 3. Azimuth compression: matched filter per range gate (exact
  //         hyperbolic reference, windowed by the processed sector),
  //         then inverse azimuth FFT. ----
  res.image = Array2D<cf32>(n_az, n_rg);
  {
    std::vector<cf32> ref(n_az);
    std::vector<cf32> col(n_az);
    const double half_sector = 0.5 * p.theta_span_rad;
    for (std::size_t j = 0; j < n_rg; ++j) {
      const double r0 =
          p.near_range_m + static_cast<double>(j) * p.range_bin_m;
      // Time-domain azimuth reference: the phase history of a scatterer at
      // broadside range r0, limited to the processed angular sector.
      const double x_max = r0 * std::tan(half_sector);
      for (std::size_t pu = 0; pu < n_az; ++pu) {
        // Centre the reference at x = 0 with wrap-around (matched filter
        // applied circularly; the aperture is the full data extent).
        double x = static_cast<double>(pu) * dx;
        if (x > 0.5 * static_cast<double>(n_az) * dx)
          x -= static_cast<double>(n_az) * dx;
        if (std::abs(x) > x_max) {
          ref[pu] = {};
          continue;
        }
        const double dr = std::sqrt(r0 * r0 + x * x) - r0;
        const double phase = -reduce_2pi(4.0 * kPi / lambda * dr);
        ref[pu] = {static_cast<float>(std::cos(phase)),
                   static_cast<float>(std::sin(phase))};
      }
      plan.forward(ref);

      for (std::size_t f = 0; f < n_az; ++f) col[f] = rd(f, j);
      for (std::size_t f = 0; f < n_az; ++f) col[f] *= std::conj(ref[f]);
      plan.inverse(col);
      for (std::size_t pu = 0; pu < n_az; ++pu) res.image(pu, j) = col[pu];
    }
  }

  // ---- Work accounting (for the host model): 3 length-n_az FFT passes
  //      per range bin (data fwd, reference fwd, inverse) plus the
  //      spectral multiply, plus the RCMC interpolation. ----
  const std::uint64_t fft_butterflies =
      static_cast<std::uint64_t>(n_rg) * 3 *
      static_cast<std::uint64_t>(
          n_az / 2 * static_cast<std::size_t>(std::log2(n_az)));
  res.ops += fft_butterflies * kFftButterflyOps;
  res.ops += static_cast<std::uint64_t>(n_rg) * n_az * kComplexMacOps;
  if (opt.rcmc)
    res.ops += static_cast<std::uint64_t>(n_rg) * n_az *
               OpCounts{.fadd = 4, .fmul = 5, .ialu = 6, .load = 4,
                        .store = 2};
  res.host_work.ops = res.ops;
  // Column-major azimuth FFTs stride through the matrix: stream-like at
  // row granularity.
  res.host_work.stream_read_bytes =
      3 * static_cast<std::uint64_t>(n_rg) * n_az * sizeof(cf32);
  res.host_work.stream_write_bytes =
      static_cast<std::uint64_t>(n_rg) * n_az * sizeof(cf32);
  return res;
}

} // namespace esarp::sar
