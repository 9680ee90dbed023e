#include "mc/world.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace icecube::mc {

namespace {

/// Incremental FNV-1a over the canonical state rendering.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
};

McConfig clamped(McConfig config) {
  config.sites =
      std::min<std::size_t>(std::max<std::size_t>(config.sites, 2), 8);
  return config;
}

/// The workload, dealt round-robin: site i gets actions i, i+n, ...
std::vector<std::size_t> round_robin_quotas(const McConfig& config) {
  std::vector<std::size_t> quotas(config.sites, 0);
  for (std::size_t k = 0; k < config.actions; ++k) {
    ++quotas[k % config.sites];
  }
  return quotas;
}

}  // namespace

McWorld::McWorld(const McConfig& config, CaptureSink* capture)
    : config_(clamped(config)),
      group_(config_.seed, FaultSpec{}, round_robin_quotas(config_),
             GossipOptions{}, config_.commitment, /*deep_replay=*/true,
             capture) {
  // All event ordering, loss and duplication is chosen by the explorer,
  // never by the seeded fault processes.
  group_.net().set_fault_horizon(0);
}

std::vector<Choice> McWorld::enabled() {
  std::vector<Choice> out;
  const std::size_t n = group_.size();
  SimNet& net = group_.net();

  for (std::size_t s = 0; s < n; ++s) {
    if (!net.is_up(group_.name(s))) {
      out.push_back({ChoiceKind::kRestart, static_cast<std::uint8_t>(s)});
      continue;
    }
    for (std::size_t p = 0; p < n; ++p) {
      if (p == s || !net.link_open(group_.name(s), group_.name(p))) continue;
      out.push_back({ChoiceKind::kStep, static_cast<std::uint8_t>(s),
                     static_cast<std::uint8_t>(p)});
      if (config_.commitment && config_.withhold) {
        out.push_back({ChoiceKind::kStepWithhold,
                       static_cast<std::uint8_t>(s),
                       static_cast<std::uint8_t>(p)});
      }
    }
  }

  // Structural message addressing: index k names the k-th in-flight
  // message on its directed link, in send (seq) order.
  std::map<std::pair<std::uint8_t, std::uint8_t>, std::uint8_t> link_count;
  const auto site_index = [&](const std::string& name) {
    return static_cast<std::uint8_t>(group_.index(name));
  };
  for (const PendingDelivery& d : net.pending_deliveries()) {
    const std::uint8_t from = site_index(d.from);
    const std::uint8_t to = site_index(d.to);
    const std::uint8_t k = link_count[{from, to}]++;
    if (net.is_up(d.to) && net.link_open(d.from, d.to)) {
      out.push_back({ChoiceKind::kDeliver, from, to, k});
    }
    if (drops_used_ < config_.max_drops) {
      out.push_back({ChoiceKind::kDrop, from, to, k});
    }
    if (dups_used_ < config_.max_dups) {
      out.push_back({ChoiceKind::kDuplicate, from, to, k});
    }
  }

  if (crashes_used_ < config_.max_crashes) {
    for (std::size_t s = 0; s < n; ++s) {
      if (net.is_up(group_.name(s))) {
        out.push_back({ChoiceKind::kCrash, static_cast<std::uint8_t>(s)});
      }
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (net.link_open(group_.name(a), group_.name(b))) {
        if (cuts_used_ < config_.max_cuts) {
          out.push_back({ChoiceKind::kCut, static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)});
        }
      } else {
        out.push_back({ChoiceKind::kHeal, static_cast<std::uint8_t>(a),
                       static_cast<std::uint8_t>(b)});
      }
    }
  }
  return out;
}

std::optional<std::uint64_t> McWorld::find_message(
    const Choice& choice) const {
  if (choice.site >= group_.size() || choice.peer >= group_.size()) {
    return std::nullopt;
  }
  std::uint8_t count = 0;
  for (const PendingDelivery& d : group_.net().pending_deliveries()) {
    if (d.from != group_.name(choice.site) ||
        d.to != group_.name(choice.peer)) {
      continue;
    }
    if (count == choice.index) return d.seq;
    ++count;
  }
  return std::nullopt;
}

bool McWorld::apply_step(const Choice& choice) {
  SimNet& net = group_.net();
  const std::size_t s = choice.site;
  const std::size_t p = choice.peer;
  if (s >= group_.size() || p >= group_.size() || s == p) return false;
  if (!net.is_up(group_.name(s)) ||
      !net.link_open(group_.name(s), group_.name(p))) {
    return false;
  }
  if (choice.kind == ChoiceKind::kStepWithhold &&
      !(config_.commitment && config_.withhold)) {
    return false;
  }

  group_.tick(s, p, choice.kind != ChoiceKind::kStepWithhold, nullptr);
  group_.observe(s);
  return true;
}

bool McWorld::apply_message_choice(const Choice& choice) {
  SimNet& net = group_.net();
  const auto seq = find_message(choice);
  if (!seq) return false;

  if (choice.kind == ChoiceKind::kDrop) {
    if (drops_used_ >= config_.max_drops) return false;
    ++drops_used_;
    return net.drop_delivery(*seq);
  }
  if (choice.kind == ChoiceKind::kDuplicate) {
    if (dups_used_ >= config_.max_dups) return false;
    ++dups_used_;
    return net.duplicate_delivery(*seq).has_value();
  }

  // kDeliver. Enabledness mirrors enumeration: the destination must be up
  // and the link open, so take_delivery below cannot drop.
  const std::size_t t = choice.peer;
  if (!net.is_up(group_.name(t)) ||
      !net.link_open(group_.name(choice.site), group_.name(t))) {
    return false;
  }
  auto event = net.take_delivery(*seq);
  if (!event) return false;

  group_.deliver(*event, nullptr);
  group_.observe(t);
  return true;
}

bool McWorld::apply_control(const Choice& choice) {
  SimNet& net = group_.net();
  const std::size_t n = group_.size();
  switch (choice.kind) {
    case ChoiceKind::kCrash:
      if (choice.site >= n || crashes_used_ >= config_.max_crashes ||
          !net.is_up(group_.name(choice.site))) {
        return false;
      }
      ++crashes_used_;
      net.force_crash(group_.name(choice.site));
      return true;
    case ChoiceKind::kRestart:
      if (choice.site >= n || net.is_up(group_.name(choice.site))) return false;
      net.force_restart(group_.name(choice.site));
      return true;
    case ChoiceKind::kCut:
      if (choice.site >= n || choice.peer >= n ||
          choice.site == choice.peer || cuts_used_ >= config_.max_cuts ||
          !net.link_open(group_.name(choice.site), group_.name(choice.peer))) {
        return false;
      }
      ++cuts_used_;
      net.force_cut(group_.name(choice.site), group_.name(choice.peer));
      return true;
    case ChoiceKind::kHeal:
      if (choice.site >= n || choice.peer >= n ||
          choice.site == choice.peer ||
          net.link_open(group_.name(choice.site), group_.name(choice.peer))) {
        return false;
      }
      net.force_heal(group_.name(choice.site), group_.name(choice.peer));
      return true;
    default:
      return false;
  }
}

bool McWorld::apply(const Choice& choice) {
  switch (choice.kind) {
    case ChoiceKind::kStep:
    case ChoiceKind::kStepWithhold:
      return apply_step(choice);
    case ChoiceKind::kDeliver:
    case ChoiceKind::kDrop:
    case ChoiceKind::kDuplicate:
      return apply_message_choice(choice);
    default:
      return apply_control(choice);
  }
}

std::uint64_t McWorld::digest() const {
  Fnv64 fnv;
  const std::size_t n = group_.size();
  // link_open is non-const (window memo), but with the fault horizon at 0
  // a link is closed iff explicitly force-cut, so querying it is pure.
  SimNet& net = const_cast<SimNet&>(group_.net());
  fnv.u64(static_cast<std::uint64_t>(config_.mutant));

  for (std::size_t i = 0; i < n; ++i) {
    const GossipNode& node = group_.nodes()[i];
    fnv.u64(net.is_up(group_.name(i)) ? 1 : 0);
    fnv.u64(group_.remaining(i));
    fnv.u64(node.epoch());
    fnv.u64(node.committed_fingerprint_hash());
    fnv.u64(node.stable_length());
    fnv.u64(node.history_uids().size());
    for (const std::string& uid : node.history_uids()) fnv.str(uid);
    fnv.u64(node.pending_uids().size());
    for (const std::string& uid : node.pending_uids()) fnv.str(uid);
  }

  for (const CommitEngine& engine : group_.engines()) {
    fnv.u64(engine.decided().size());
    for (const std::string& id : engine.decided()) fnv.str(id);
    fnv.u64(engine.stable_uids().size());
    fnv.u64(engine.proposals().size());
    for (const auto& [id, entry] : engine.proposals()) fnv.str(id);
    fnv.u64(engine.votes().size());
    for (const auto& [key, ids] : engine.votes()) {
      fnv.u64(key.election);
      fnv.u64(key.runoff);
      fnv.str(key.voter);
      for (const std::string& id : ids) fnv.str(id);
    }
  }

  // In-flight messages, grouped per directed link and ordered by send
  // sequence within a link: the order two interleavings of *independent*
  // choices can never disagree on. (A global-seq ordering would split
  // states the reduction proves equivalent.)
  std::vector<PendingDelivery> pending = net.pending_deliveries();
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingDelivery& a, const PendingDelivery& b) {
                     if (a.from != b.from) return a.from < b.from;
                     return a.to < b.to;
                   });
  fnv.u64(pending.size());
  for (const PendingDelivery& d : pending) {
    fnv.str(d.from);
    fnv.str(d.to);
    fnv.str(d.payload);
  }

  fnv.u64(drops_used_);
  fnv.u64(dups_used_);
  fnv.u64(crashes_used_);
  fnv.u64(cuts_used_);
  // Cut links.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      fnv.u64(net.link_open(group_.name(a), group_.name(b)) ? 1 : 0);
    }
  }
  return fnv.h;
}

bool McWorld::quiescent() const {
  const SimNet& net = group_.net();
  if (net.pending_events() != 0) return false;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (!net.is_up(group_.name(i))) return false;
  }
  return true;
}

std::optional<Violation> McWorld::check_algebra() {
  const std::vector<GossipNode>& nodes = group_.nodes();
  // Idempotence: a node whose pending log is drained must be a fixpoint
  // of its own frame — merging a state with itself changes nothing.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].pending().empty()) continue;
    const std::string frame = nodes[i].make_message();
    GossipNode copy = nodes[i];
    const GossipReceipt receipt = copy.receive(frame);
    if (receipt.adopted() || copy.committed_fingerprint_hash() !=
                                 nodes[i].committed_fingerprint_hash()) {
      Violation v{"merge-idempotent", group_.name(i),
                  "node changed state merging its own frame",
                  group_.net().now()};
      algebra_violations_.push_back(v);
      return v;
    }
  }
  // Commutativity: two nodes on the same committed state, merging each
  // other's frames, must adopt bit-identical committed results (this is
  // the determinism the gossip layer promises; see replica/gossip.hpp).
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i].committed_fingerprint_hash() !=
          nodes[j].committed_fingerprint_hash()) {
        continue;
      }
      const std::string frame_i = nodes[i].make_message();
      const std::string frame_j = nodes[j].make_message();
      GossipNode a = nodes[i];
      GossipNode b = nodes[j];
      (void)a.receive(frame_j);
      (void)b.receive(frame_i);
      if (a.committed_fingerprint_hash() != b.committed_fingerprint_hash()) {
        Violation v{"merge-commute", group_.name(i) + "/" + group_.name(j),
                    "pairwise merge order changed the committed state",
                    group_.net().now()};
        algebra_violations_.push_back(v);
        return v;
      }
    }
  }
  return std::nullopt;
}

std::vector<Violation> McWorld::violations() const {
  std::vector<Violation> out = group_.violations();
  out.insert(out.end(), algebra_violations_.begin(),
             algebra_violations_.end());
  return out;
}

bool McWorld::violated() const {
  return !group_.ok() || !algebra_violations_.empty();
}

bool McWorld::settled() const {
  return group_.net().pending_events() == 0 && group_.converged();
}

}  // namespace icecube::mc
