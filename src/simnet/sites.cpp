#include "simnet/sites.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "objects/counter.hpp"
#include "serialize/commit_codec.hpp"
#include "util/rng.hpp"

namespace icecube {

std::string chaos_site_name(std::size_t index) {
  return "s" + std::to_string(index);
}

std::uint64_t decision_seed(std::uint64_t seed, std::uint64_t salt,
                            std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  s ^= (a + 1) * 0xBF58476D1CE4E5B9ULL;
  s ^= (b + 1) * 0x94D049BB133111EBULL;
  return s;
}

namespace {

/// The workload: site `site`'s `seq`-th counter update under `seed`.
ActionPtr workload_action(std::uint64_t seed, std::size_t site,
                          std::uint64_t seq) {
  Rng rng(decision_seed(seed, 0xA5, site, seq));
  if (rng.below(4) == 0) {
    return std::make_shared<DecrementAction>(
        ObjectId(0), static_cast<std::int64_t>(1 + rng.below(3)));
  }
  return std::make_shared<IncrementAction>(
      ObjectId(0), static_cast<std::int64_t>(1 + rng.below(5)));
}

}  // namespace

SiteGroup::SiteGroup(std::uint64_t seed, const FaultSpec& faults,
                     std::vector<std::size_t> quotas,
                     const GossipOptions& gossip, bool commitment,
                     bool deep_replay, CaptureSink* capture)
    : seed_(seed),
      net_(seed, faults),
      checker_(deep_replay),
      remaining_(std::move(quotas)),
      workload_seq_(remaining_.size(), 0),
      capture_(capture) {
  const std::size_t n = remaining_.size();
  // A floor high enough that decrements never fail their dynamic
  // constraint at this scale: every performed action stays committable,
  // so full convergence drains every pending log.
  Universe genesis;
  genesis.add(std::make_unique<Counter>(10000));

  names_.reserve(n);
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names_.push_back(chaos_site_name(i));
    nodes_.emplace_back(names_[i], genesis, gossip);
  }
  // Each engine holds a reference to its node: `nodes_` must not
  // reallocate from here on.
  if (commitment) {
    CommitOptions commit_options;
    commit_options.auth_seed = seed;
    engines_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      engines_.emplace_back(nodes_[i], n, commit_options);
    }
  }

  net_.set_capture(capture_);
  for (const std::string& name : names_) net_.add_site(name);
  for (std::size_t i = 0; i < n; ++i) observe(i);
}

SiteGroup::SiteGroup(const SiteGroup& other)
    : seed_(other.seed_),
      net_(other.net_),
      names_(other.names_),
      nodes_(other.nodes_),
      checker_(other.checker_),
      commit_checker_(other.commit_checker_),
      remaining_(other.remaining_),
      workload_seq_(other.workload_seq_),
      capture_(nullptr) {
  net_.set_capture(nullptr);
  engines_.reserve(other.engines_.size());
  for (std::size_t i = 0; i < other.engines_.size(); ++i) {
    engines_.emplace_back(other.engines_[i], nodes_[i]);
  }
}

std::size_t SiteGroup::index(const std::string& name) const {
  return static_cast<std::size_t>(
      std::find(names_.begin(), names_.end(), name) - names_.begin());
}

void SiteGroup::send(CaptureRecordKind kind, std::size_t from,
                     const std::string& to, std::string payload) {
  // Frames are recorded with the exact bytes handed to the network (after
  // ship faults), so a replay comparison is byte-for-byte.
  if (capture_ != nullptr) {
    capture_->record(
        {kind, net_.now(), names_[from] + ">" + to + "\n" + payload});
  }
  net_.send(names_[from], to, std::move(payload));
}

bool SiteGroup::tick(std::size_t site, std::size_t partner,
                     bool send_commit_frame, FaultPlan* faults) {
  GossipNode& node = nodes_[site];
  bool performed = false;
  if (remaining_[site] > 0) {
    const std::uint64_t seq = workload_seq_[site]++;
    ActionPtr action = workload_action(seed_, site, seq);
    --remaining_[site];
    if (capture_ != nullptr) {
      capture_->record({CaptureRecordKind::kAction, net_.now(),
                        names_[site] + " " + std::to_string(seq) + " " +
                            action->describe()});
    }
    performed = node.perform(std::move(action));
  }
  send(CaptureRecordKind::kGossipFrame, site, names_[partner],
       node.make_message(faults, net_.now()));
  if (commitment()) {
    engines_[site].tick();
    // A withheld frame loses nothing: the knowledge is durable and is
    // re-announced on the next tick.
    if (send_commit_frame) {
      send(CaptureRecordKind::kCommitFrame, site, names_[partner],
           engines_[site].make_message(faults, net_.now()));
    }
  }
  return performed;
}

void SiteGroup::deliver(const SimEvent& event, FaultPlan* faults) {
  const std::size_t t = index(event.site);
  if (commitment() && is_commit_frame(event.payload)) {
    const CommitReceipt receipt = engines_[t].receive(event.payload);
    if (receipt.reply_advised && net_.is_up(event.from)) {
      send(CaptureRecordKind::kCommitFrame, t, event.from,
           engines_[t].make_message(faults, net_.now()));
    }
  } else {
    const GossipReceipt receipt = nodes_[t].receive(event.payload);
    if (receipt.reply_advised() && net_.is_up(event.from)) {
      send(CaptureRecordKind::kGossipFrame, t, event.from,
           nodes_[t].make_message(faults, net_.now()));
    }
  }
}

void SiteGroup::observe(std::size_t site) {
  checker_.observe(nodes_[site], net_.now());
  if (commitment()) commit_checker_.observe(engines_[site], net_.now());
}

bool SiteGroup::converged() const {
  for (std::size_t r : remaining_) {
    if (r != 0) return false;
  }
  for (const std::string& name : names_) {
    if (!net_.is_up(name)) return false;
  }
  for (const GossipNode& node : nodes_) {
    if (!node.pending().empty()) return false;
  }
  if (!gossip_converged(nodes_)) return false;
  if (!commitment()) return true;
  // Sharing state is not enough: every committed action must also have
  // become irrevocable at every site.
  if (!commit_converged(engines_)) return false;
  return std::all_of(engines_.begin(), engines_.end(),
                     [](const CommitEngine& e) {
                       return e.stable_uids().size() ==
                              e.node().history().size();
                     });
}

void SiteGroup::check_converged() {
  checker_.check_converged(nodes_, net_.now());
  if (commitment()) {
    commit_checker_.check_commit_converged(engines_, net_.now());
  }
}

std::vector<Violation> SiteGroup::violations() const {
  std::vector<Violation> out = checker_.violations();
  out.insert(out.end(), commit_checker_.violations().begin(),
             commit_checker_.violations().end());
  return out;
}

bool SiteGroup::ok() const { return checker_.ok() && commit_checker_.ok(); }

std::size_t SiteGroup::observations() const {
  return checker_.observations() + commit_checker_.observations();
}

}  // namespace icecube
