// String helpers shared by the test suites.
#pragma once

#include <string>
#include <string_view>

namespace elsm::test_util {

// prefix + std::to_string(n), built by appending. Spelled as
// `"lit" + std::to_string(n)`, GCC 12 at -O3 inlines the insert-at-front
// path of operator+(const char*, std::string&&) and reports a false
// -Wrestrict, which breaks the -Werror Release build.
template <typename Int>
std::string Numbered(std::string_view prefix, Int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace elsm::test_util
