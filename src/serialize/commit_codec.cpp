#include "serialize/commit_codec.hpp"

#include <utility>

#include "serialize/framing.hpp"
#include "serialize/log_codec.hpp"
#include "util/crc32.hpp"
#include "util/format.hpp"

namespace icecube {

namespace {

using serialize_detail::parse_number;

constexpr std::string_view kMagic = "icecube-commit";
constexpr int kVersion = 2;
/// Caps against absurd allocations from hostile or mangled headers.
constexpr std::size_t kMaxRecords = 1u << 20;
constexpr std::size_t kMaxUids = 1u << 20;
constexpr std::size_t kMaxBlobBytes = 1u << 28;

std::optional<std::uint32_t> parse_hex32(std::string_view token) {
  if (token.size() != 8) return std::nullopt;
  std::uint32_t out = 0;
  for (char c : token) {
    const int v = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                         : -1;
    if (v < 0) return std::nullopt;
    out = (out << 4) | static_cast<std::uint32_t>(v);
  }
  return out;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      if (i > start) out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// Renders one proposal as its canonical content line (without the hash
/// field); the content hash and the frame auth both digest this form.
std::string proposal_content(const CommitProposal& p) {
  std::string uids_blob;
  for (const std::string& uid : p.uids) {
    uids_blob += uid;
    uids_blob += '\n';
  }
  std::string out = "P " + std::to_string(p.election) + " " +
                    escape_field(p.proposer) + " " +
                    escape_field(p.fingerprint) + " " +
                    std::to_string(p.uids.size()) + " " +
                    escape_field(uids_blob) + " " + escape_field(p.log_bytes);
  return out;
}

std::string vote_line(const CommitVote& v) {
  return "V " + std::to_string(v.election) + " " +
         std::to_string(v.runoff) + " " + escape_field(v.voter) + " " +
         escape_field(v.proposal_id);
}

/// The seed-keyed content digest ("signature"). Covers the sender identity
/// and every record line, so records cannot be re-attributed or re-packed
/// without the seed.
std::uint32_t auth_digest(std::uint64_t seed, const CommitFrame& frame,
                          const std::vector<std::string>& content_lines) {
  Crc32 crc;
  crc.update("commit-auth:" + std::to_string(seed) + ":" +
             escape_field(frame.site) + ":" +
             std::to_string(frame.members) + ":" +
             std::to_string(frame.stable_height));
  for (const std::string& line : content_lines) {
    crc.update("\n");
    crc.update(line);
  }
  return crc.value();
}

}  // namespace

std::uint32_t commit_proposal_hash(const CommitProposal& p) {
  Crc32 crc;
  crc.update("commit-proposal:");
  crc.update(proposal_content(p));
  return crc.value();
}

std::string CommitProposal::id() const {
  return proposer + "@" + std::to_string(election) + "#" + hex32(hash);
}

bool is_commit_frame(std::string_view payload) {
  if (payload.size() <= kMagic.size()) return false;
  return payload.substr(0, kMagic.size()) == kMagic &&
         payload[kMagic.size()] == ' ';
}

std::string encode_commit_frame(const CommitFrame& frame,
                                std::uint64_t auth_seed) {
  std::vector<std::string> content;
  content.reserve(frame.proposals.size() + frame.votes.size());
  // The struct's hash ships as-is (records carry the hash they were
  // created with); decode recomputes and rejects any mismatch, so a
  // tampered record cannot survive even a correctly-CRC'd re-encoding.
  for (const CommitProposal& p : frame.proposals) {
    content.push_back(proposal_content(p) + " " + hex32(p.hash));
  }
  for (const CommitVote& v : frame.votes) content.push_back(vote_line(v));

  std::string out{kMagic};
  out += " " + std::to_string(kVersion);
  out += " " + escape_field(frame.site);
  out += " " + std::to_string(frame.members);
  out += " " + std::to_string(frame.stable_height);
  out += " " + std::to_string(frame.proposals.size());
  out += " " + std::to_string(frame.votes.size());
  out += " " + hex32(auth_digest(auth_seed, frame, content));
  out += "\n";
  for (const std::string& line : content) {
    out += line;
    out += "\n";
  }
  out += serialize_detail::crc_trailer(out);
  return out;
}

DecodedCommitFrame decode_commit_frame(const std::string& text,
                                       std::uint64_t auth_seed) {
  DecodedCommitFrame out;
  const auto fail = [&out](DecodeErrorKind kind, std::size_t line,
                           std::string context) {
    out.error = {kind, line, std::move(context)};
    return out;
  };

  // The CRC trailer is verified before any content is parsed, so transport
  // damage is classified first (kTruncated / kCorrupted).
  serialize_detail::Frame frame = serialize_detail::parse_frame(text, kMagic);
  if (!frame.ok()) {
    out.error = frame.error;
    return out;
  }
  if (frame.version != kVersion) {
    return fail(DecodeErrorKind::kUnsupportedVersion, 1,
                "version " + std::to_string(frame.version));
  }

  const std::vector<std::string> header = split_tokens(frame.header);
  if (header.size() != 8) {
    return fail(DecodeErrorKind::kBadHeader, 1, frame.header);
  }
  CommitFrame decoded;
  auto site = unescape_field(header[2]);
  const auto members = parse_number<std::uint64_t>(header[3]);
  const auto stable = parse_number<std::uint64_t>(header[4]);
  const auto n_props = parse_number<std::size_t>(header[5]);
  const auto n_votes = parse_number<std::size_t>(header[6]);
  const auto auth = parse_hex32(header[7]);
  if (!site || site->empty()) {
    return fail(DecodeErrorKind::kBadEscape, 1, header[2]);
  }
  if (!members || !stable || !n_props || !n_votes || *n_props > kMaxRecords ||
      *n_votes > kMaxRecords) {
    return fail(DecodeErrorKind::kBadNumber, 1, frame.header);
  }
  if (!auth) return fail(DecodeErrorKind::kBadNumber, 1, header[7]);
  decoded.site = std::move(*site);
  decoded.members = *members;
  decoded.stable_height = *stable;

  if (frame.lines.size() != *n_props + *n_votes) {
    return fail(DecodeErrorKind::kBadSyntax, 1,
                "record count mismatch: header says " +
                    std::to_string(*n_props + *n_votes) + ", frame has " +
                    std::to_string(frame.lines.size()));
  }

  decoded.proposals.reserve(*n_props);
  decoded.votes.reserve(*n_votes);
  for (std::size_t i = 0; i < frame.lines.size(); ++i) {
    const std::size_t line_no = i + 2;  // header is line 1
    const std::string& line = frame.lines[i];
    const std::vector<std::string> tokens = split_tokens(line);
    if (i < *n_props) {
      if (tokens.size() != 8 || tokens[0] != "P") {
        return fail(DecodeErrorKind::kBadSyntax, line_no, line);
      }
      CommitProposal p;
      const auto election = parse_number<std::uint64_t>(tokens[1]);
      auto proposer = unescape_field(tokens[2]);
      auto fingerprint = unescape_field(tokens[3]);
      const auto n_uids = parse_number<std::size_t>(tokens[4]);
      auto uids_blob = unescape_field(tokens[5]);
      auto log_blob = unescape_field(tokens[6]);
      const auto hash = parse_hex32(tokens[7]);
      if (!election) {
        return fail(DecodeErrorKind::kBadNumber, line_no, tokens[1]);
      }
      if (!proposer || proposer->empty() || !fingerprint) {
        return fail(DecodeErrorKind::kBadEscape, line_no, line);
      }
      if (!n_uids || *n_uids > kMaxUids) {
        return fail(DecodeErrorKind::kBadNumber, line_no, tokens[4]);
      }
      if (!uids_blob || !log_blob) {
        return fail(DecodeErrorKind::kBadEscape, line_no, line);
      }
      if (uids_blob->size() > kMaxBlobBytes ||
          log_blob->size() > kMaxBlobBytes) {
        return fail(DecodeErrorKind::kBadOperands, line_no,
                    "blob exceeds size cap");
      }
      if (!hash) return fail(DecodeErrorKind::kBadNumber, line_no, tokens[7]);
      p.election = *election;
      p.proposer = std::move(*proposer);
      p.fingerprint = std::move(*fingerprint);
      p.log_bytes = std::move(*log_blob);
      // The uid blob is '\n'-terminated per uid; empty uids are invalid.
      std::size_t start = 0;
      while (start < uids_blob->size()) {
        const std::size_t nl = uids_blob->find('\n', start);
        if (nl == std::string::npos) {
          return fail(DecodeErrorKind::kBadOperands, line_no,
                      "unterminated uid blob");
        }
        if (nl == start) {
          return fail(DecodeErrorKind::kBadOperands, line_no, "empty uid");
        }
        p.uids.push_back(uids_blob->substr(start, nl - start));
        start = nl + 1;
      }
      if (p.uids.size() != *n_uids) {
        return fail(DecodeErrorKind::kBadOperands, line_no,
                    "uid count mismatch");
      }
      // Content-addressing: the carried hash must match the content, so a
      // vote's proposal id cannot be re-pointed at altered content.
      p.hash = *hash;
      if (commit_proposal_hash(p) != p.hash) {
        return fail(DecodeErrorKind::kBadOperands, line_no,
                    "proposal hash mismatch");
      }
      decoded.proposals.push_back(std::move(p));
    } else {
      if (tokens.size() != 5 || tokens[0] != "V") {
        return fail(DecodeErrorKind::kBadSyntax, line_no, line);
      }
      CommitVote v;
      const auto election = parse_number<std::uint64_t>(tokens[1]);
      const auto runoff = parse_number<std::uint32_t>(tokens[2]);
      auto voter = unescape_field(tokens[3]);
      auto proposal_id = unescape_field(tokens[4]);
      if (!election || !runoff) {
        return fail(DecodeErrorKind::kBadNumber, line_no, line);
      }
      if (!voter || voter->empty() || !proposal_id || proposal_id->empty()) {
        return fail(DecodeErrorKind::kBadEscape, line_no, line);
      }
      v.election = *election;
      v.runoff = *runoff;
      v.voter = std::move(*voter);
      v.proposal_id = std::move(*proposal_id);
      decoded.votes.push_back(std::move(v));
    }
  }

  // Authentication last: structure is sound, now prove the records were
  // packed by a holder of the cluster seed.
  std::vector<std::string> content;
  content.reserve(frame.lines.size());
  for (const CommitProposal& p : decoded.proposals) {
    content.push_back(proposal_content(p) + " " + hex32(p.hash));
  }
  for (const CommitVote& v : decoded.votes) content.push_back(vote_line(v));
  if (auth_digest(auth_seed, decoded, content) != *auth) {
    return fail(DecodeErrorKind::kCorrupted, 1, "auth digest mismatch");
  }

  out.frame = std::move(decoded);
  return out;
}

}  // namespace icecube
