// Minimal CSV writer: every bench emits machine-readable data next to the
// console table so figures can be re-plotted externally.
#pragma once

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace esarp {

class CsvWriter {
public:
  /// Opens `path` for writing and emits the header row.
  CsvWriter(const std::filesystem::path& path,
            const std::vector<std::string>& columns);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Append a row; size must match the header.
  void row(const std::vector<std::string>& cells);

  /// Convenience for all-numeric rows.
  void row_numeric(const std::vector<double>& values, int precision = 6);

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

private:
  static std::string escape(const std::string& cell);

  std::ofstream out_;
  std::size_t ncols_;
  std::size_t rows_ = 0;
};

/// Write a whole table through CsvWriter: `columns` as the header, then
/// every row.
void write_csv(const std::filesystem::path& path,
               const std::vector<std::string>& columns,
               const std::vector<std::vector<std::string>>& rows);

} // namespace esarp
