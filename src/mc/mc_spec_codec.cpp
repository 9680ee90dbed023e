#include "mc/mc_spec_codec.hpp"

#include <string_view>

#include "serialize/framing.hpp"

namespace icecube::mc {

namespace {

constexpr std::string_view kSpecMagic = "mc-spec";
constexpr int kSpecVersion = 1;

bool kind_from_string(std::string_view name, ChoiceKind& out) {
  for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(ChoiceKind::kHeal);
       ++k) {
    const auto kind = static_cast<ChoiceKind>(k);
    if (name == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string encode_mc_spec(const McConfig& config,
                           const std::vector<Choice>& schedule) {
  using serialize_detail::put;
  std::string out;
  serialize_detail::put_spec_header(out, kSpecMagic, kSpecVersion);
  put(out, "sites", std::to_string(config.sites));
  put(out, "actions", std::to_string(config.actions));
  put(out, "seed", std::to_string(config.seed));
  put(out, "commitment", config.commitment ? "1" : "0");
  put(out, "algebra", config.algebra ? "1" : "0");
  put(out, "withhold", config.withhold ? "1" : "0");
  put(out, "drops", std::to_string(config.max_drops));
  put(out, "dups", std::to_string(config.max_dups));
  put(out, "crashes", std::to_string(config.max_crashes));
  put(out, "cuts", std::to_string(config.max_cuts));
  put(out, "mutant",
      std::to_string(static_cast<unsigned>(config.mutant)));
  for (const Choice& c : schedule) put(out, "choice", c.describe());
  return out;
}

McSpecDecode decode_mc_spec(const std::string& text) {
  McSpecDecode out;
  const serialize_detail::SpecLines spec_lines =
      serialize_detail::split_spec(text, kSpecMagic, kSpecVersion);
  if (!spec_lines.ok()) {
    out.error = spec_lines.error;
    return out;
  }
  const std::vector<std::string_view>& lines = spec_lines.lines;

  McConfig& config = out.config;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    serialize_detail::SpecLine in(lines[i], i + 1, out.error);
    if (in.tokens.empty()) continue;
    const std::string_view key = in.tokens.front();

    bool handled = true;
    if (key == "sites") {
      handled = in.want(1) && in.num(1, config.sites);
    } else if (key == "actions") {
      handled = in.want(1) && in.num(1, config.actions);
    } else if (key == "seed") {
      handled = in.want(1) && in.num(1, config.seed);
    } else if (key == "commitment") {
      handled = in.want(1) && in.flag(1, config.commitment);
    } else if (key == "algebra") {
      handled = in.want(1) && in.flag(1, config.algebra);
    } else if (key == "withhold") {
      handled = in.want(1) && in.flag(1, config.withhold);
    } else if (key == "drops") {
      handled = in.want(1) && in.num(1, config.max_drops);
    } else if (key == "dups") {
      handled = in.want(1) && in.num(1, config.max_dups);
    } else if (key == "crashes") {
      handled = in.want(1) && in.num(1, config.max_crashes);
    } else if (key == "cuts") {
      handled = in.want(1) && in.num(1, config.max_cuts);
    } else if (key == "mutant") {
      unsigned value = 0;
      handled = in.want(1) && in.num(1, value);
      if (handled && value > kProtocolMutantMax) {
        in.fail(DecodeErrorKind::kBadNumber,
                "mutant " + std::to_string(value));
        return out;
      }
      if (handled) {
        config.mutant = static_cast<ProtocolMutant>(value);
      }
    } else if (key == "choice") {
      Choice c;
      unsigned site = 0;
      unsigned peer = 0;
      unsigned index = 0;
      handled = in.want(4) && in.num(2, site) && in.num(3, peer) &&
                in.num(4, index);
      if (handled && (!kind_from_string(in.tokens[1], c.kind) || site > 255 ||
                      peer > 255 || index > 255)) {
        in.fail(DecodeErrorKind::kBadSyntax, std::string(in.line()));
        return out;
      }
      if (handled) {
        c.site = static_cast<std::uint8_t>(site);
        c.peer = static_cast<std::uint8_t>(peer);
        c.index = static_cast<std::uint8_t>(index);
        out.schedule.push_back(c);
      }
    } else {
      in.fail(DecodeErrorKind::kUnknownOp, std::string(key));
      return out;
    }
    if (!handled) return out;
  }
  return out;
}

}  // namespace icecube::mc
