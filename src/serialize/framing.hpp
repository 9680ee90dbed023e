// Shared wire-framing for the shipping codecs (internal).
//
// Both payload kinds (logs, universes) use the same frame:
//
//   <magic> <version> [header fields...]
//   <content lines...>
//   #crc32 <8-hex digest of every byte above>     (version >= 2)
//
// `parse_frame` validates the frame before any content is parsed, so
// transport faults (truncation, corruption) are classified first and never
// misreported as syntax errors. Strict number parsing lives here too: the
// std::sto* family silently accepts trailing garbage and negative values
// where unsigned is expected, which under corruption turns damaged tokens
// into plausible-looking values.
//
// The self-describing run specs (chaos, stream, model-checker captures)
// share a simpler key/value text, also encoded and decoded here:
//
//   <magic> <version>
//   <key> <args...>          (one per line, space-separated)
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serialize/decode_error.hpp"
#include "util/crc32.hpp"

namespace icecube::serialize_detail {

inline constexpr std::string_view kCrcPrefix = "#crc32 ";
inline constexpr int kWireVersion = 2;

/// Whole-token integer parse; nullopt on partial consumption, sign errors,
/// or overflow (unlike std::stoull / std::stoll).
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view token) {
  if (token.empty()) return std::nullopt;
  T value{};
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

/// Whole-token double parse (std::from_chars: locale-free, no trailing
/// garbage).
[[nodiscard]] inline bool parse_double(std::string_view token, double& out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

/// 17 significant digits round-trip any double exactly, and re-printing
/// the parsed value reproduces the same string.
[[nodiscard]] inline std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Appends the spec header line "<magic> <version>".
inline void put_spec_header(std::string& out, std::string_view magic,
                            int version) {
  out += magic;
  out += ' ';
  out += std::to_string(version);
  out += '\n';
}

/// Appends one spec line "<key> <value>".
inline void put(std::string& out, std::string_view key,
                const std::string& value) {
  out += key;
  out += ' ';
  out += value;
  out += '\n';
}

/// Space-separated tokens of `line`; runs of spaces separate like one.
[[nodiscard]] inline std::vector<std::string_view> split(
    std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  while (start < line.size()) {
    const std::size_t end = line.find(' ', start);
    if (end == std::string_view::npos) {
      tokens.push_back(line.substr(start));
      break;
    }
    if (end > start) tokens.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  return tokens;
}

/// A spec text split into lines (trailing empty lines dropped) whose header
/// passed the magic and version check; `lines[0]` is the header, content
/// line i is file line i + 1.
struct SpecLines {
  std::vector<std::string_view> lines;
  DecodeError error;

  [[nodiscard]] bool ok() const { return error.ok(); }
};

/// Splits `text` and checks its header is exactly "<magic> <version>" with
/// a version in [1, max_version].
[[nodiscard]] inline SpecLines split_spec(std::string_view text,
                                          std::string_view magic,
                                          int max_version) {
  SpecLines out;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    out.lines.push_back(text.substr(0, nl));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  while (!out.lines.empty() && out.lines.back().empty()) out.lines.pop_back();
  if (out.lines.empty()) {
    out.error = {DecodeErrorKind::kEmptyInput, 0, {}};
    return out;
  }
  const std::vector<std::string_view> head = split(out.lines.front());
  if (head.size() != 2 || head[0] != magic) {
    out.error = {DecodeErrorKind::kBadHeader, 1,
                 std::string(out.lines.front())};
    return out;
  }
  const auto version = parse_number<int>(head[1]);
  if (!version) {
    out.error = {DecodeErrorKind::kBadHeader, 1, std::string(head[1])};
    return out;
  }
  if (*version < 1 || *version > max_version) {
    out.error = {DecodeErrorKind::kUnsupportedVersion, 1,
                 "spec version " + std::to_string(*version)};
  }
  return out;
}

/// One content line "<key> <args...>" of a spec, with the argument
/// decoders every spec codec uses. Each decoder records its failure into
/// the caller's `error` and returns false.
class SpecLine {
 public:
  SpecLine(std::string_view line, std::size_t line_no, DecodeError& error)
      : tokens(split(line)), line_(line), line_no_(line_no), error_(&error) {}

  /// Exactly `n` arguments after the key.
  [[nodiscard]] bool want(std::size_t n) {
    if (tokens.size() == n + 1) return true;
    return fail(DecodeErrorKind::kBadSyntax, std::string(line_));
  }
  /// Argument `i` (the key is token 0) as an integer.
  template <typename T>
  [[nodiscard]] bool num(std::size_t i, T& field) {
    const auto v = parse_number<T>(tokens[i]);
    if (!v) return fail(DecodeErrorKind::kBadNumber, std::string(tokens[i]));
    field = *v;
    return true;
  }
  [[nodiscard]] bool dbl(std::size_t i, double& field) {
    if (parse_double(tokens[i], field)) return true;
    return fail(DecodeErrorKind::kBadNumber, std::string(tokens[i]));
  }
  /// "1" or "0".
  [[nodiscard]] bool flag(std::size_t i, bool& field) {
    if (tokens[i] != "1" && tokens[i] != "0") {
      return fail(DecodeErrorKind::kBadNumber, std::string(tokens[i]));
    }
    field = tokens[i] == "1";
    return true;
  }
  /// Records a failure of this line; returns false.
  bool fail(DecodeErrorKind kind, std::string detail) {
    *error_ = {kind, line_no_, std::move(detail)};
    return false;
  }
  [[nodiscard]] std::string_view line() const { return line_; }

  std::vector<std::string_view> tokens;

 private:
  std::string_view line_;
  std::size_t line_no_;
  DecodeError* error_;
};

/// Renders the trailer line (with terminating newline) for `body`, which
/// must be every byte of the frame above the trailer.
[[nodiscard]] inline std::string crc_trailer(std::string_view body) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint32_t digest = Crc32::of(body);
  std::string line{kCrcPrefix};
  for (int shift = 28; shift >= 0; shift -= 4) {
    line.push_back(kHex[(digest >> shift) & 0xFu]);
  }
  line.push_back('\n');
  return line;
}

/// A validated frame: header line, content lines, negotiated version.
struct Frame {
  int version = 0;
  std::string header;              ///< first line, verbatim
  std::vector<std::string> lines;  ///< content lines (header and trailer
                                   ///< excluded); line i is file line i + 2
  DecodeError error;

  [[nodiscard]] bool ok() const { return error.ok(); }
};

/// Splits `text` into lines, checks the magic + version, and for v2 frames
/// locates and verifies the CRC trailer. Content is not parsed.
[[nodiscard]] inline Frame parse_frame(const std::string& text,
                                       std::string_view magic) {
  Frame frame;
  if (text.empty()) {
    frame.error = {DecodeErrorKind::kEmptyInput, 0, {}};
    return frame;
  }

  // Split keeping byte offsets, so the CRC can cover the exact trailer-free
  // prefix.
  std::vector<std::string> lines;
  std::vector<std::size_t> offsets;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    if (end == text.size() && end == start) break;  // no trailing empty line
    offsets.push_back(start);
    lines.push_back(text.substr(start, end - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  if (lines.empty()) {
    frame.error = {DecodeErrorKind::kEmptyInput, 0, {}};
    return frame;
  }

  frame.header = lines.front();
  // "<magic> <version>[ ...]" — tolerate anything after the version token.
  if (frame.header.substr(0, magic.size()) != magic ||
      (frame.header.size() > magic.size() &&
       frame.header[magic.size()] != ' ')) {
    frame.error = {DecodeErrorKind::kBadHeader, 1, frame.header};
    return frame;
  }
  std::string_view rest = std::string_view(frame.header).substr(magic.size());
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t ver_end = rest.find(' ');
  const auto version = parse_number<int>(
      rest.substr(0, ver_end == std::string_view::npos ? rest.size()
                                                       : ver_end));
  if (!version) {
    frame.error = {DecodeErrorKind::kBadHeader, 1, frame.header};
    return frame;
  }
  if (*version < 1 || *version > kWireVersion) {
    frame.error = {DecodeErrorKind::kUnsupportedVersion, 1,
                   "version " + std::to_string(*version)};
    return frame;
  }
  frame.version = *version;

  std::size_t content_end = lines.size();
  if (frame.version >= 2) {
    // v2 frames end with a newline-terminated trailer line; a payload cut
    // anywhere — including one byte short — is truncation, not a frame.
    if (text.back() != '\n') {
      frame.error = {DecodeErrorKind::kTruncated, lines.size(),
                     "unterminated trailer"};
      return frame;
    }
    // The trailer must be the last non-empty line.
    std::size_t last = lines.size();
    while (last > 1 && lines[last - 1].empty()) --last;
    if (last <= 1 || lines[last - 1].substr(0, kCrcPrefix.size()) !=
                         kCrcPrefix) {
      frame.error = {DecodeErrorKind::kTruncated, last,
                     "missing crc trailer"};
      return frame;
    }
    const std::string digest_hex = lines[last - 1].substr(kCrcPrefix.size());
    std::uint32_t expected = 0;
    bool hex_ok = digest_hex.size() == 8;
    for (char c : digest_hex) {
      const int v = c >= '0' && c <= '9'   ? c - '0'
                    : c >= 'a' && c <= 'f' ? c - 'a' + 10
                    : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                           : -1;
      if (v < 0) {
        hex_ok = false;
        break;
      }
      expected = (expected << 4) | static_cast<std::uint32_t>(v);
    }
    if (!hex_ok) {
      frame.error = {DecodeErrorKind::kCorrupted, last, "bad crc trailer"};
      return frame;
    }
    const std::string_view body =
        std::string_view(text).substr(0, offsets[last - 1]);
    if (Crc32::of(body) != expected) {
      frame.error = {DecodeErrorKind::kCorrupted, last, "crc mismatch"};
      return frame;
    }
    content_end = last - 1;
  }

  frame.lines.assign(lines.begin() + 1,
                     lines.begin() + static_cast<std::ptrdiff_t>(content_end));
  return frame;
}

}  // namespace icecube::serialize_detail
