// Lightweight contract checking in the spirit of the C++ Core Guidelines'
// Expects/Ensures. Violations throw (they are programmer errors surfaced to
// tests) rather than abort, so property tests can assert on them.
//
// Audit note (tests/test_contracts.cpp compiles with NDEBUG forced): unlike
// <cassert>, NONE of these macros are compiled out in Release builds. The
// simulator's allocator budgets, scheduler invariants and kernel
// preconditions are load-bearing model checks — an E16G3 mapping that
// overflows a bank is wrong no matter the build type — so they must fire in
// every configuration. Keep it that way: do not wrap these in
// `#ifndef NDEBUG`, and use ESARP_REQUIRE for checks that deserve a
// human-written message.
#pragma once

#include <stdexcept>
#include <string>

namespace esarp {

/// Thrown when a precondition/postcondition/invariant check fails. The
/// constructor and destructor are defined in assert.cpp: the destructor is
/// the key function, so the vtable and typeinfo are emitted once, there,
/// never as weak copies in a translation unit built for a wider ISA.
class ContractViolation : public std::logic_error {
public:
  explicit ContractViolation(const std::string& what);
  ~ContractViolation() override;
};

namespace detail {
[[noreturn]] void contract_fail(const char* kind, const char* expr,
                                const char* file, int line);

[[noreturn]] void require_fail(const char* expr, const std::string& msg,
                               const char* file, int line);
} // namespace detail

} // namespace esarp

/// Precondition check: argument/state requirements at function entry.
#define ESARP_EXPECTS(cond)                                                    \
  ((cond) ? void(0)                                                            \
          : ::esarp::detail::contract_fail("Precondition", #cond, __FILE__,    \
                                           __LINE__))

/// Postcondition / internal invariant check.
#define ESARP_ENSURES(cond)                                                    \
  ((cond) ? void(0)                                                            \
          : ::esarp::detail::contract_fail("Postcondition", #cond, __FILE__,   \
                                           __LINE__))

/// Always-on requirement with a human-written message (`msg` may be any
/// expression convertible to std::string; it is only evaluated on failure).
/// Like ESARP_EXPECTS/ENSURES this is active in every build type, NDEBUG
/// included.
#define ESARP_REQUIRE(cond, msg)                                               \
  ((cond) ? void(0)                                                            \
          : ::esarp::detail::require_fail(#cond, (msg), __FILE__, __LINE__))
