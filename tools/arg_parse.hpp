// Strict whole-argument number parsing shared by the command-line tools:
// an argument with trailing garbage, or an empty one, is rejected rather
// than read as its numeric prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace icecube::tools {

inline bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0' && end != s;
}

inline bool parse_size(const char* s, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

inline bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != nullptr && *end == '\0' && end != s;
}

}  // namespace icecube::tools
