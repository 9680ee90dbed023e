#include "capture/audit_diff.hpp"

#include <algorithm>

#include "capture/wire_log_reader.hpp"
#include "util/format.hpp"

namespace icecube {

namespace {

AuditSide side_of(const CaptureFile& file) {
  AuditSide side;
  side.error = file.error;
  side.frames = file.records.size();
  side.quarantined_bytes = file.quarantined_bytes;
  side.usable = file.ok() || file.recovered();
  return side;
}

std::string side_json(const AuditSide& side) {
  return "{\"error\":\"" +
         json_escape(side.error.ok() ? "" : side.error.message()) +
         "\",\"frames\":" + std::to_string(side.frames) +
         ",\"quarantined_bytes\":" + std::to_string(side.quarantined_bytes) +
         "}";
}

std::string frame_json(const CaptureRecord& record) {
  return std::string("{\"kind\":\"") + std::string(to_string(record.kind)) +
         "\",\"time\":" + std::to_string(record.time) + ",\"payload\":\"" +
         json_escape(record.payload) + "\"}";
}

}  // namespace

std::string AuditDiff::to_json() const {
  std::string out = "{";
  out += "\"a\":" + side_json(a);
  out += ",\"b\":" + side_json(b);
  out += ",\"readable\":" + std::string(readable() ? "true" : "false");
  out += ",\"identical\":" + std::string(identical ? "true" : "false");
  if (!identical && readable()) {
    out += ",\"first_divergent\":" + std::to_string(first_divergent);
    out += ",\"a_frame\":" + frame_json(a_frame);
    out += ",\"b_frame\":" + frame_json(b_frame);
  }
  out += "}";
  return out;
}

AuditDiff audit_diff(const std::string& a_bytes, const std::string& b_bytes) {
  AuditDiff diff;
  const CaptureFile a = read_capture(a_bytes);
  const CaptureFile b = read_capture(b_bytes);
  diff.a = side_of(a);
  diff.b = side_of(b);
  if (!diff.readable()) return diff;

  const std::size_t common = std::min(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a.records[i] != b.records[i]) {
      diff.first_divergent = i;
      diff.a_frame = a.records[i];
      diff.b_frame = b.records[i];
      return diff;
    }
  }
  if (a.records.size() != b.records.size()) {
    // One stream is a strict prefix of the other: the first extra frame is
    // the divergence, the missing side reports an empty sentinel.
    diff.first_divergent = common;
    const bool a_longer = a.records.size() > b.records.size();
    diff.a_frame = a_longer ? a.records[common] : CaptureRecord{};
    diff.b_frame = a_longer ? CaptureRecord{} : b.records[common];
    if (a_longer) {
      diff.b_frame.payload = "<no frame: stream ended>";
    } else {
      diff.a_frame.payload = "<no frame: stream ended>";
    }
    return diff;
  }
  diff.identical = true;
  return diff;
}

AuditDiff audit_diff_files(const std::string& a_path,
                           const std::string& b_path) {
  AuditDiff diff;
  std::string a_bytes;
  std::string b_bytes;
  const bool a_ok = read_file_bytes(a_path, a_bytes);
  const bool b_ok = read_file_bytes(b_path, b_bytes);
  if (!a_ok || !b_ok) {
    if (!a_ok) {
      diff.a.error = {DecodeErrorKind::kEmptyInput, 0,
                      "cannot read capture '" + a_path + "'"};
    }
    if (!b_ok) {
      diff.b.error = {DecodeErrorKind::kEmptyInput, 0,
                      "cannot read capture '" + b_path + "'"};
    }
    // Classify whichever side *was* readable, so the report is maximal.
    if (a_ok) diff.a = side_of(read_capture(a_bytes));
    if (b_ok) diff.b = side_of(read_capture(b_bytes));
    return diff;
  }
  return audit_diff(a_bytes, b_bytes);
}

}  // namespace icecube
