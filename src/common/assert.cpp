#include "common/assert.hpp"

#include <sstream>

namespace esarp {

ContractViolation::ContractViolation(const std::string& what)
    : std::logic_error(what) {}

ContractViolation::~ContractViolation() = default;

namespace detail {

void contract_fail(const char* kind, const char* expr, const char* file,
                   int line) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  throw ContractViolation(os.str());
}

void require_fail(const char* expr, const std::string& msg, const char* file,
                  int line) {
  std::ostringstream os;
  os << "Requirement failed: " << msg << " [(" << expr << ") at " << file
     << ':' << line << ']';
  throw ContractViolation(os.str());
}

} // namespace detail
} // namespace esarp
