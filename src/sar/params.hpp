// Radar system and imaging-geometry parameters.
//
// Defaults model a CARABAS/LORA-class ultra-wideband, low-frequency
// stripmap SAR — the system family behind the paper (refs [2],[5],[6]):
// such systems have range resolution on the order of the wavelength, which
// is what lets FFBP merge subapertures with plain complex addition (paper
// eq. 5) after the range-phase is referenced to the bin grid.
//
// The paper's evaluation size: 1024 pulses x 1001 range bins.
#pragma once

#include <cstddef>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace esarp::sar {

struct RadarParams {
  // Waveform.
  double center_freq_hz = 50.0e6; ///< VHF UWB (wavelength ~6 m)
  double range_bin_m = 1.5;       ///< slant-range bin spacing (c/2B)

  // Collection geometry (linear nominal track along +x at y = 0).
  std::size_t n_pulses = 1024;    ///< azimuth positions (full aperture)
  std::size_t n_range = 1001;     ///< range bins per pulse
  double pulse_spacing_m = 1.0;   ///< along-track distance between pulses
  double near_range_m = 4500.0;   ///< slant range of bin 0

  // Processed angular sector (broadside-centred polar image).
  double theta_center_rad = 1.5707963267948966; ///< pi/2: broadside
  double theta_span_rad = 0.20;   ///< processed beam sector

  [[nodiscard]] double wavelength_m() const {
    return kSpeedOfLight / center_freq_hz;
  }
  [[nodiscard]] double far_range_m() const {
    return near_range_m + range_bin_m * static_cast<double>(n_range - 1);
  }
  /// x-coordinate of pulse p on the nominal track.
  [[nodiscard]] double pulse_x(std::size_t p) const {
    return (static_cast<double>(p) -
            0.5 * static_cast<double>(n_pulses - 1)) *
           pulse_spacing_m;
  }
  /// Centre of the full synthetic aperture (origin by construction).
  [[nodiscard]] double aperture_center_x() const { return 0.0; }

  /// Number of merge iterations for merge base 2 (n_pulses must be 2^k).
  [[nodiscard]] std::size_t merge_levels() const {
    std::size_t levels = 0;
    std::size_t n = n_pulses;
    while (n > 1) {
      ESARP_EXPECTS(n % 2 == 0);
      n /= 2;
      ++levels;
    }
    return levels;
  }

  /// Whether the processed sector lies in (0, 3.1) rad: the bound
  /// validate() enforces, for input checks to test before any run.
  [[nodiscard]] bool sector_fits() const {
    return theta_span_rad > 0 && theta_span_rad < 3.1;
  }

  void validate() const {
    ESARP_EXPECTS(center_freq_hz > 0);
    ESARP_EXPECTS(range_bin_m > 0);
    ESARP_EXPECTS(n_pulses >= 2 && n_range >= 2);
    ESARP_EXPECTS(pulse_spacing_m > 0);
    ESARP_EXPECTS(near_range_m > 0);
    ESARP_EXPECTS(sector_fits());
  }
};

/// The paper's evaluation configuration: 1024 x 1001.
[[nodiscard]] inline RadarParams paper_params() { return RadarParams{}; }

/// A small configuration for unit tests (fast, still >= 3 merge levels).
/// Scaled so the short test aperture still focuses: shorter wavelength and
/// nearer range give several azimuth resolution cells across the image,
/// the range bin stays at lambda/4 (the ratio that makes plain-addition
/// merges coherent, same as the paper-scale defaults), and the processed
/// sector matches the aperture's angular extent.
[[nodiscard]] inline RadarParams test_params(std::size_t pulses = 64,
                                             std::size_t range = 101) {
  RadarParams p;
  p.n_pulses = pulses;
  p.n_range = range;
  p.center_freq_hz = 149.896229e6; // lambda = 2 m
  p.range_bin_m = 0.5;             // lambda / 4
  p.near_range_m = 400.0;
  const double mid_range =
      p.near_range_m + 0.5 * static_cast<double>(range - 1) * p.range_bin_m;
  p.theta_span_rad =
      static_cast<double>(pulses) * p.pulse_spacing_m / mid_range;
  return p;
}

} // namespace esarp::sar
