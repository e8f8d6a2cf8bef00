#include "common/csv.hpp"

#include <iomanip>
#include <sstream>

#include "common/assert.hpp"

namespace esarp {

CsvWriter::CsvWriter(const std::filesystem::path& path,
                     const std::vector<std::string>& columns)
    : out_(path), ncols_(columns.size()) {
  ESARP_EXPECTS(out_.is_open());
  ESARP_EXPECTS(!columns.empty());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(columns[i]);
  }
  out_ << '\n';
}

CsvWriter::~CsvWriter() { out_.flush(); }

void CsvWriter::row(const std::vector<std::string>& cells) {
  ESARP_EXPECTS(cells.size() == ncols_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::row_numeric(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    cells.push_back(os.str());
  }
  row(cells);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void write_csv(const std::filesystem::path& path,
               const std::vector<std::string>& columns,
               const std::vector<std::vector<std::string>>& rows) {
  CsvWriter csv(path, columns);
  for (const std::vector<std::string>& r : rows) csv.row(r);
}

} // namespace esarp
