// Text renderings shared by the reports and the wire codecs: JSON string
// escaping and fixed-width lowercase hex.
#pragma once

#include <cstdint>
#include <string>

namespace icecube {

/// Escapes `raw` for the inside of a JSON string: quote, backslash, `\n`
/// and `\t` get their short escapes, every other control byte `\u00XX`.
[[nodiscard]] inline std::string json_escape(const std::string& raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `v` as exactly 8 lowercase hex digits.
[[nodiscard]] inline std::string hex32(std::uint32_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xFu];
    v >>= 4;
  }
  return out;
}

/// `v` as exactly 16 lowercase hex digits.
[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xFu];
    v >>= 4;
  }
  return out;
}

}  // namespace icecube
