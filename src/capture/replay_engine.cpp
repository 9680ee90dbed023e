#include "capture/replay_engine.hpp"

#include <algorithm>
#include <utility>

#include "capture/chaos_spec_codec.hpp"
#include "capture/wire_log_reader.hpp"
#include "capture/wire_log_writer.hpp"
#include "mc/mc_spec_codec.hpp"
#include "stream/stream_spec_codec.hpp"
#include "util/format.hpp"

namespace icecube {

namespace {

/// Extracts "crc xxxxxxxx" from a kSummary payload's first line.
std::optional<std::uint32_t> parse_summary_crc(const std::string& payload) {
  constexpr std::string_view kPrefix = "crc ";
  if (payload.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  std::uint32_t crc = 0;
  std::size_t digits = 0;
  for (std::size_t i = kPrefix.size(); i < payload.size(); ++i) {
    const char c = payload[i];
    if (c == '\n') break;
    const int v = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                         : -1;
    if (v < 0 || ++digits > 8) return std::nullopt;
    crc = (crc << 4) | static_cast<std::uint32_t>(v);
  }
  if (digits != 8) return std::nullopt;
  return crc;
}

std::string record_json(const CaptureRecord& record) {
  return std::string("{\"kind\":\"") +
         std::string(to_string(record.kind)) +
         "\",\"time\":" + std::to_string(record.time) + ",\"payload\":\"" +
         json_escape(record.payload) + "\"}";
}

}  // namespace

std::string ReplayDivergence::to_json() const {
  return "{\"frame\":" + std::to_string(frame) +
         ",\"recorded\":" + record_json(recorded) +
         ",\"live\":" + record_json(live) + "}";
}

std::string ReplayResult::to_json() const {
  std::string out = "{";
  out += "\"error\":\"" + json_escape(error.ok() ? "" : error.message()) +
         "\"";
  out += ",\"recovered\":" + std::string(capture_recovered ? "true" : "false");
  out += ",\"quarantined_bytes\":" + std::to_string(quarantined_bytes);
  out += ",\"recorded_frames\":" + std::to_string(recorded_frames);
  out += ",\"frames_compared\":" + std::to_string(frames_compared);
  out += ",\"crc_checked\":" + std::string(crc_checked ? "true" : "false");
  out += ",\"crc_match\":" + std::string(crc_match ? "true" : "false");
  out += ",\"faithful\":" + std::string(faithful() ? "true" : "false");
  out += ",\"divergence\":" +
         (divergence ? divergence->to_json() : std::string("null"));
  out += "}";
  return out;
}

ChaosReport run_chaos_captured(ChaosSpec spec, CaptureSink& sink) {
  sink.record({CaptureRecordKind::kSpec, 0, encode_chaos_spec(spec)});
  spec.capture = &sink;
  return run_chaos(spec);
}

bool write_mc_capture_file(const std::string& path,
                           const mc::McConfig& config,
                           const std::vector<mc::Choice>& schedule,
                           std::string* error) {
  MemoryCaptureSink sink;
  (void)mc::run_mc_schedule_captured(config, schedule, sink);
  WireLogWriter writer(path);
  for (const CaptureRecord& record : sink.records()) writer.record(record);
  writer.close();
  if (!writer.error().ok()) {
    if (error != nullptr) *error = writer.error().message();
    return false;
  }
  return true;
}

ReplayResult replay_capture(const std::string& bytes,
                            const ReplayOptions& options) {
  ReplayResult result;
  const CaptureFile capture = read_capture(bytes);
  if (!capture.ok() && !capture.recovered()) {
    result.error = capture.error;
    return result;
  }
  result.capture_recovered = capture.recovered();
  result.quarantined_bytes = capture.quarantined_bytes;

  if (capture.records.empty() ||
      capture.records.front().kind != CaptureRecordKind::kSpec) {
    result.error = {DecodeErrorKind::kBadHeader, 1,
                    "capture does not start with a spec frame"};
    return result;
  }
  result.recorded_frames = capture.records.size() - 1;

  // Re-drive the identical scenario, collecting the regenerated stream.
  // The spec header keyword says which engine recorded the capture: a
  // "stream-spec" frame replays through the streaming daemon, an
  // "mc-spec" frame through the model checker's schedule runner, anything
  // else through the chaos harness.
  MemoryCaptureSink live;
  const std::string& spec_payload = capture.records.front().payload;
  if (spec_payload.rfind("stream-spec", 0) == 0) {
    StreamSpecDecode spec = decode_stream_spec(spec_payload);
    if (!spec.ok()) {
      result.error = spec.error;
      result.error.context = "spec frame: " + result.error.context;
      return result;
    }
    const StreamRunReport stream_report = run_stream(spec.spec, &live);
    // The summary-CRC check below reads report.trace_crc regardless of the
    // engine; the stream run's CRC drops into the same slot.
    result.report.trace_crc = stream_report.trace_crc;
  } else if (spec_payload.rfind("mc-spec", 0) == 0) {
    mc::McSpecDecode spec = mc::decode_mc_spec(spec_payload);
    if (!spec.ok()) {
      result.error = spec.error;
      result.error.context = "spec frame: " + result.error.context;
      return result;
    }
    const mc::McRunResult mc_result =
        mc::run_mc_schedule(spec.config, spec.schedule, &live);
    result.report.trace_crc = mc_result.trace_crc;
  } else {
    ChaosSpecDecode spec = decode_chaos_spec(spec_payload);
    if (!spec.ok()) {
      result.error = spec.error;
      result.error.context = "spec frame: " + result.error.context;
      return result;
    }
    spec.spec.keep_trace = options.keep_trace;
    spec.spec.capture = &live;
    result.report = run_chaos(spec.spec);
  }

  const std::vector<CaptureRecord>& got = live.records();
  const std::size_t limit =
      std::min(result.recorded_frames, options.stop_after);
  for (std::size_t i = 0; i < limit; ++i) {
    const CaptureRecord& recorded = capture.records[i + 1];
    if (i >= got.size()) {
      result.divergence = {i, recorded,
                           {CaptureRecordKind::kSummary, 0,
                            "<replay emitted no frame here>"}};
      break;
    }
    if (got[i] != recorded) {
      result.divergence = {i, recorded, got[i]};
      break;
    }
    ++result.frames_compared;
  }

  // The recorded summary (when the capture kept one) carries the original
  // trace CRC — the bit-exactness witness independent of frame contents.
  for (std::size_t i = capture.records.size(); i-- > 1;) {
    if (capture.records[i].kind != CaptureRecordKind::kSummary) continue;
    if (const auto crc = parse_summary_crc(capture.records[i].payload)) {
      result.crc_checked = true;
      result.recorded_crc = *crc;
      result.crc_match = *crc == result.report.trace_crc;
    }
    break;
  }
  return result;
}

ReplayResult replay_capture_file(const std::string& path,
                                 const ReplayOptions& options) {
  std::string bytes;
  if (!read_file_bytes(path, bytes)) {
    ReplayResult result;
    result.error = {DecodeErrorKind::kEmptyInput, 0,
                    "cannot read capture '" + path + "'"};
    return result;
  }
  return replay_capture(bytes, options);
}

}  // namespace icecube
