#include "sar/io.hpp"

#include <array>
#include <cstring>
#include <fstream>

#include "common/assert.hpp"

namespace esarp::sar {

namespace {

constexpr std::uint32_t kMagic = 0x45535250u; // "ESRP"
constexpr std::uint32_t kVersion = 1;

/// Fixed-layout header. All fields little-endian (we read/write natively;
/// the format is for same-machine caching, not interchange).
struct Header {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  double center_freq_hz = 0;
  double range_bin_m = 0;
  std::uint64_t n_pulses = 0;
  std::uint64_t n_range = 0;
  double pulse_spacing_m = 0;
  double near_range_m = 0;
  double theta_center_rad = 0;
  double theta_span_rad = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(Header) == 96, "stable on-disk header layout");

} // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  // Table-less bitwise CRC-32 (IEEE, reflected). Fast enough for the file
  // sizes involved (a few MB).
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b)
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
  }
  return ~crc;
}

void save_dataset(const std::filesystem::path& path, const Dataset& ds) {
  Header h;
  h.rows = ds.data.rows();
  h.cols = ds.data.cols();
  h.center_freq_hz = ds.params.center_freq_hz;
  h.range_bin_m = ds.params.range_bin_m;
  h.n_pulses = ds.params.n_pulses;
  h.n_range = ds.params.n_range;
  h.pulse_spacing_m = ds.params.pulse_spacing_m;
  h.near_range_m = ds.params.near_range_m;
  h.theta_center_rad = ds.params.theta_center_rad;
  h.theta_span_rad = ds.params.theta_span_rad;
  h.payload_crc =
      crc32(ds.data.data(), ds.data.size() * sizeof(cf32));

  std::ofstream f(path, std::ios::binary);
  ESARP_EXPECTS(f.is_open());
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));
  f.write(reinterpret_cast<const char*>(ds.data.data()),
          static_cast<std::streamsize>(ds.data.size() * sizeof(cf32)));
  f.flush();
  ESARP_ENSURES(f.good());
}

Dataset load_dataset(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  ESARP_EXPECTS(f.is_open());
  Header h;
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  ESARP_EXPECTS(f.good());
  ESARP_EXPECTS(h.magic == kMagic);
  ESARP_EXPECTS(h.version == kVersion);
  ESARP_EXPECTS(h.rows > 0 && h.cols > 0);
  // Sanity bound rows * cols < 2^32, by division: the product can wrap.
  ESARP_EXPECTS(h.rows <= ((std::uint64_t{1} << 32) - 1) / h.cols);
  ESARP_EXPECTS(h.rows == h.n_pulses && h.cols == h.n_range);

  Dataset ds;
  ds.params.center_freq_hz = h.center_freq_hz;
  ds.params.range_bin_m = h.range_bin_m;
  ds.params.n_pulses = h.n_pulses;
  ds.params.n_range = h.n_range;
  ds.params.pulse_spacing_m = h.pulse_spacing_m;
  ds.params.near_range_m = h.near_range_m;
  ds.params.theta_center_rad = h.theta_center_rad;
  ds.params.theta_span_rad = h.theta_span_rad;

  ds.data = Array2D<cf32>(h.rows, h.cols);
  f.read(reinterpret_cast<char*>(ds.data.data()),
         static_cast<std::streamsize>(ds.data.size() * sizeof(cf32)));
  ESARP_EXPECTS(f.gcount() ==
                static_cast<std::streamsize>(ds.data.size() * sizeof(cf32)));

  const std::uint32_t crc =
      crc32(ds.data.data(), ds.data.size() * sizeof(cf32));
  ESARP_EXPECTS(crc == h.payload_crc); // corruption check
  return ds;
}

} // namespace esarp::sar
