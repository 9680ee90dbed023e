#include "stream/daemon.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "core/policy.hpp"
#include "solver/local_search.hpp"
#include "util/timer.hpp"

namespace icecube {

std::uint64_t stream_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double LatencyHistogram::quantile_ms(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto want = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (seen + buckets_[b] >= want && buckets_[b] > 0) {
      // The wanted sample's rank within bucket [2^b, 2^(b+1)), centred
      // (the k-th of m sits at (k - 1/2) / m), placed geometrically.
      const double rank = static_cast<double>(std::max(want, seen + 1) - seen);
      const double frac = (rank - 0.5) / static_cast<double>(buckets_[b]);
      return std::exp2(static_cast<double>(b) + frac) / 1e6;
    }
    seen += buckets_[b];
  }
  return 0.0;
}

namespace {

/// FNV-1a over the final (log, position, status) sequence — the
/// order-sensitive witness a capture summary pins the merged schedule with.
std::uint64_t schedule_digest(const std::vector<ActionRecord>& records,
                              const std::vector<ActionId>& sequence,
                              const std::vector<RunStatus>& status) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    const ActionRecord& rec = records[sequence[k].index()];
    mix(stream_priority(rec));
    mix(static_cast<std::uint64_t>(status[k]));
  }
  return h;
}

}  // namespace

StreamReconciler::StreamReconciler(Universe initial, StreamOptions options,
                                   CaptureSink* capture)
    : initial_(std::move(initial)),
      options_(options),
      capture_(capture),
      graph_(initial_) {
  initial_.set_copy_mode(Universe::CopyMode::kCopyOnWrite);
  working_ = initial_.snapshot();
  digest0_ = universe_state_digest(initial_);
  solve_options_.backend = options_.backend;
  solve_options_.local_search = options_.local_search;
  solve_options_.limits = options_.limits;
  stats_.backend = options_.backend == SolverKind::kLocalSearch ? "ls"
                                                                : "greedy";
}

void StreamReconciler::emit(CaptureRecordKind kind, std::uint64_t time,
                            std::string payload) {
  if (kind != CaptureRecordKind::kSummary) {
    crc_.update(payload);
    crc_.update("\n");
  }
  capture_->record({kind, time, std::move(payload)});
}

void StreamReconciler::absorb(Agg& into, Agg& from) {
  // Small-into-large: append the lighter aggregate's vectors onto the
  // heavier one's (swapping the two first when `into` is the lighter).
  const auto weight = [](const Agg& agg) {
    return agg.strands.size() + agg.pending.size();
  };
  if (weight(into) < weight(from)) std::swap(into, from);
  into.strands.insert(into.strands.end(), from.strands.begin(),
                      from.strands.end());
  into.pending.insert(into.pending.end(), from.pending.begin(),
                      from.pending.end());
  into.max_solved_priority =
      std::max(into.max_solved_priority, from.max_solved_priority);
  into.any_solved |= from.any_solved;
  // Keep whichever tail strand is still alive; the loser stays a normal
  // strand (appends require outranking the merged max_solved_priority, so
  // the surviving tail remains internally ascending).
  if (into.tail_strand == kNoStrand || !strands_[into.tail_strand].alive) {
    into.tail_strand = from.tail_strand;
  }
  from = Agg{};
}

ActionId StreamReconciler::ingest(LogId log, ActionPtr action,
                                  std::uint64_t submit_ns) {
  assert(!finished_);
  const std::size_t li = log.index();
  if (next_position_.size() <= li) next_position_.resize(li + 1, 0);
  const std::uint32_t pos = next_position_[li]++;
  const ActionId id =
      graph_.add_action(std::move(action), log, pos, &merged_roots_);

  ingest_ns_.push_back(submit_ns != 0 ? submit_ns : stream_now_ns());
  committed_status_.push_back(0);
  strand_of_.push_back(kNoStrand);
  frozen_.push_back(0);
  placed_epoch_.push_back(0);
  // Fold the aggregates of the components the arrival joined, in the order
  // it met them, file the result under the graph's new root and queue the
  // arrival there.
  aggs_.emplace_back();
  Agg joined;
  for (ActionId root : merged_roots_) absorb(joined, aggs_[root.index()]);
  Agg& agg = aggs_[graph_.component_root(id).index()];
  agg = std::move(joined);
  agg.pending.push_back(id.value());
  ++counters_.ingested;

  if (capture_ != nullptr) {
    const ActionRecord& rec = graph_.records()[id.index()];
    emit(CaptureRecordKind::kAction, counters_.ingested - 1,
         std::to_string(log.value()) + " " + std::to_string(pos) + " " +
             rec.action->describe());
  }
  return id;
}

bool StreamReconciler::try_fast_appends(Agg& agg) {
  const std::vector<ActionRecord>& records = graph_.records();
  const SolverGraph& g = graph_.graph();
  std::vector<std::uint32_t>& pending = agg.pending;
  std::sort(pending.begin(), pending.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return stream_priority(records[a]) < stream_priority(records[b]);
            });

  // Appendability, checked per arrival in ascending priority: x must
  // outrank everything already placed in its component (so the batch Kahn
  // order ends with it), every predecessor must already be placed (earlier
  // pendings of this very batch count) and every successor must still be
  // unplaced (a successor ordered before x would move). Any failure falls
  // back to a full re-solve, which also absorbs the entries this loop
  // already placed.
  std::uint64_t max_prio = agg.max_solved_priority;
  bool any = agg.any_solved;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const std::uint32_t x = pending[i];
    const std::uint64_t p = stream_priority(records[x]);
    bool appendable = !any || p > max_prio;
    bool frozen_pred = false;
    if (appendable) {
      for (ActionId pr : g.preds[x]) {
        if (strand_of_[pr.index()] == kNoStrand) {
          appendable = false;
          break;
        }
        frozen_pred |= frozen_[pr.index()] != 0;
      }
    }
    if (appendable) {
      for (ActionId sc : g.succs[x]) {
        if (strand_of_[sc.index()] != kNoStrand) {
          appendable = false;
          break;
        }
      }
    }
    if (!appendable) {
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(i));
      return false;
    }

    RunStatus st = RunStatus::kDropped;
    if (!frozen_pred) {
      // The component's live members are all executed into `working_`, so
      // simulating against it is exactly the batch replay's tail step.
      const ActionRecord& rec = records[x];
      ++stats_.sim_steps;
      if (!rec.action->precondition(working_)) {
        st = RunStatus::kFailed;
        ++stats_.precondition_failures;
      } else if (rec.action->execute(working_)) {
        st = RunStatus::kExecuted;
      } else {
        // A failing execute may have partially mutated; the full re-solve
        // rewinds the component's footprint and repairs it.
        ++stats_.execution_failures;
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(i));
        return false;
      }
    }

    if (frozen_pred) {
      // A frozen arrival stays a singleton strand: it only ever commits in
      // the finish-time tail merge, never through the heads heap.
      const auto sid = static_cast<std::uint32_t>(strands_.size());
      Strand s;
      s.solution.sequence = {ActionId(x)};
      s.solution.status = {st};
      s.solution.live_end = 0;
      s.solution.min_priority = p;
      s.last_disrupt_epoch = epoch_;
      strands_.push_back(std::move(s));
      strand_of_[x] = sid;
      frozen_[x] = 1;
      agg.strands.push_back(sid);
    } else {
      // Live arrivals grow the component's tail strand in place — one
      // strand and one heads-heap entry per run of appends, not per
      // action. Appends outrank max_solved_priority, so the tail stays
      // internally ascending, which is all the canonical merge needs.
      std::uint32_t sid = agg.tail_strand;
      if (sid == kNoStrand || !strands_[sid].alive) {
        sid = static_cast<std::uint32_t>(strands_.size());
        Strand fresh;
        fresh.solution.min_priority = p;
        strands_.push_back(std::move(fresh));
        agg.strands.push_back(sid);
        agg.tail_strand = sid;
      }
      Strand& s = strands_[sid];
      s.solution.sequence.push_back(ActionId(x));
      s.solution.status.push_back(st);
      ++s.solution.live_end;
      strand_of_[x] = sid;
      frozen_[x] = 0;
      placed_epoch_[x] = epoch_;
      push_head(sid);
    }
    agg.max_solved_priority = p;
    agg.any_solved = true;
    max_prio = p;
    any = true;
    ++counters_.fast_appends;
  }
  pending.clear();
  return true;
}

void StreamReconciler::full_resolve(Agg& agg, ActionId root,
                                    bool allow_moves) {
  const std::vector<ActionId>& members = graph_.component_members(root);
  const SubProblem sub =
      extract_subproblem(graph_.records(), graph_.graph(), members);
  const std::uint64_t max_prio = stream_priority(sub.records.back());
  const Deadline no_deadline;
  ComponentSolution sol =
      solve_component(sub, initial_, working_, solve_options_, allow_moves,
                      digest0_, no_deadline, stats_);

  // A commit promised each entry's status; a re-solve that flips one is a
  // violation (counted once — the committed record is updated to the new
  // truth, which the final merge will also report).
  for (std::size_t k = 0; k < sol.sequence.size(); ++k) {
    const std::size_t id = sol.sequence[k].index();
    const auto now_status = static_cast<std::uint8_t>(sol.status[k]) + 1;
    if (committed_status_[id] != 0 && committed_status_[id] != now_status) {
      ++counters_.commit_violations;
      committed_status_[id] = now_status;
    }
  }

  for (std::uint32_t sid : agg.strands) strands_[sid].alive = false;
  agg.strands.clear();
  agg.tail_strand = kNoStrand;

  const auto sid = static_cast<std::uint32_t>(strands_.size());
  Strand s;
  s.solution = std::move(sol);
  s.last_disrupt_epoch = epoch_;
  s.needs_polish =
      options_.backend == SolverKind::kLocalSearch && !allow_moves;
  for (std::size_t k = 0; k < s.solution.sequence.size(); ++k) {
    const std::size_t id = s.solution.sequence[k].index();
    strand_of_[id] = sid;
    frozen_[id] = k >= s.solution.live_end ? 1 : 0;
  }
  strands_.push_back(std::move(s));
  agg.strands.push_back(sid);
  agg.max_solved_priority = max_prio;
  agg.any_solved = true;
  agg.pending.clear();
  ++counters_.full_resolves;
  push_head(sid);
}

void StreamReconciler::process_root(ActionId root, bool allow_moves) {
  Agg& agg = aggs_[root.index()];
  if (agg.pending.empty()) return;
  if (options_.backend != SolverKind::kLocalSearch && try_fast_appends(agg)) {
    return;
  }
  full_resolve(agg, root, allow_moves);
}

void StreamReconciler::push_head(std::uint32_t sid) {
  Strand& s = strands_[sid];
  // At most one heads entry per strand: if the current head is already
  // filed, appended entries behind it ride along for free (the head is the
  // strand's minimum, so the heap's global order is unaffected).
  if (s.filed) return;
  const std::vector<ActionId>& seq = s.solution.sequence;
  while (s.next < s.solution.live_end &&
         committed_status_[seq[s.next].index()] != 0) {
    ++s.next;
  }
  if (s.next < s.solution.live_end) {
    s.filed = true;
    heads_.emplace_back(
        stream_priority(graph_.records()[seq[s.next].index()]), sid);
    std::push_heap(heads_.begin(), heads_.end(), std::greater<>{});
  }
}

void StreamReconciler::commit_at(std::uint32_t sid, std::size_t pos,
                                 std::uint64_t now) {
  Strand& s = strands_[sid];
  const ActionId id = s.solution.sequence[pos];
  const RunStatus st = s.solution.status[pos];
  committed_status_[id.index()] = static_cast<std::uint8_t>(st) + 1;
  committed_.push_back(CommitEntry{id, st, epoch_});
  const std::uint64_t born = ingest_ns_[id.index()];
  latency_.record(now > born ? now - born : 0);
  ++counters_.committed;
}

void StreamReconciler::commit_walk(bool finishing) {
  const std::vector<ActionRecord>& records = graph_.records();
  // One clock sample stamps the whole walk: latency buckets are log2-wide,
  // far coarser than a walk's duration, and the per-commit clock_gettime
  // was measurable at streaming rates.
  const std::uint64_t now = stream_now_ns();
  while (!heads_.empty()) {
    const auto [prio, sid] = heads_.front();
    Strand& s = strands_[sid];
    bool stale = !s.alive;
    if (!stale) {
      const std::vector<ActionId>& seq = s.solution.sequence;
      while (s.next < s.solution.live_end &&
             committed_status_[seq[s.next].index()] != 0) {
        ++s.next;
      }
      stale = s.next >= s.solution.live_end ||
              stream_priority(records[seq[s.next].index()]) != prio;
    }
    if (stale) {
      std::pop_heap(heads_.begin(), heads_.end(), std::greater<>{});
      heads_.pop_back();
      s.filed = false;
      if (s.alive) push_head(sid);
      continue;
    }
    // The walk is strict: entries commit in global priority order, so a
    // not-yet-quiescent minimum head stalls the whole prefix (that is what
    // makes the committed log a canonical-merge prefix when arrivals are
    // monotone). The gate is per entry — a tail strand disrupted only by
    // appends still commits its settled head.
    const std::uint64_t disrupt =
        std::max(s.last_disrupt_epoch,
                 placed_epoch_[s.solution.sequence[s.next].index()]);
    if (!finishing && epoch_ - disrupt < options_.commit_quiescence) break;
    std::pop_heap(heads_.begin(), heads_.end(), std::greater<>{});
    heads_.pop_back();
    s.filed = false;
    commit_at(sid, s.next, now);
    ++s.next;
    push_head(sid);
  }
}

void StreamReconciler::run_epoch() {
  assert(!finished_);
  ++epoch_;
  ++counters_.epochs;
  const std::vector<ActionId> dirty = graph_.take_dirty_roots();

  // Once the epoch's budget runs out, its remaining components degrade to
  // their greedy construction. 0 = no budget (Deadline never expires).
  const Deadline budget = Deadline::after_seconds(
      static_cast<double>(options_.epoch_budget_us) / 1e6);
  bool degraded = false;
  const std::uint64_t fast_before = counters_.fast_appends;
  const std::uint64_t full_before = counters_.full_resolves;
  for (ActionId root : dirty) {
    degraded = degraded || budget.expired();
    process_root(root,
                 options_.backend == SolverKind::kLocalSearch && !degraded);
  }
  if (degraded) ++counters_.degraded_epochs;

  commit_walk(false);
  const std::uint64_t lag = counters_.ingested - counters_.committed;
  if (lag > counters_.max_commit_lag) counters_.max_commit_lag = lag;

  if (capture_ != nullptr) {
    emit(CaptureRecordKind::kTrace, epoch_,
         "epoch " + std::to_string(epoch_) + " dirty " +
             std::to_string(dirty.size()) + " fast " +
             std::to_string(counters_.fast_appends - fast_before) + " full " +
             std::to_string(counters_.full_resolves - full_before) +
             " committed " + std::to_string(counters_.committed) +
             " violations " + std::to_string(counters_.commit_violations));
  }
}

StreamResult StreamReconciler::finish() {
  assert(!finished_);
  // A final epoch places whatever the last run_epoch has not seen, then
  // local search re-polishes anything a budget degraded — so every
  // component's last solve is a full-quality solve of its final
  // membership, which is what batch equality needs.
  ++epoch_;
  ++counters_.epochs;
  for (ActionId root : graph_.take_dirty_roots()) {
    process_root(root, options_.backend == SolverKind::kLocalSearch);
  }
  if (options_.backend == SolverKind::kLocalSearch) {
    std::vector<ActionId> roots;
    for (const Strand& s : strands_) {
      if (s.alive && s.needs_polish) {
        roots.push_back(graph_.component_root(s.solution.sequence.front()));
      }
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    for (ActionId root : roots) full_resolve(aggs_[root.index()], root, true);
  }
  finished_ = true;

  commit_walk(true);
  // Frozen tails commit last, merged by priority (mirroring the canonical
  // merge's second pass).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> tails;
  std::vector<std::size_t> cursor(strands_.size(), 0);
  const std::vector<ActionRecord>& records = graph_.records();
  for (std::uint32_t sid = 0; sid < strands_.size(); ++sid) {
    const Strand& s = strands_[sid];
    if (!s.alive || s.solution.live_end >= s.solution.sequence.size()) {
      continue;
    }
    cursor[sid] = s.solution.live_end;
    tails.emplace_back(
        stream_priority(records[s.solution.sequence[cursor[sid]].index()]),
        sid);
  }
  std::make_heap(tails.begin(), tails.end(), std::greater<>{});
  const std::uint64_t tail_now = stream_now_ns();
  while (!tails.empty()) {
    std::pop_heap(tails.begin(), tails.end(), std::greater<>{});
    const std::uint32_t sid = tails.back().second;
    tails.pop_back();
    commit_at(sid, cursor[sid], tail_now);
    if (++cursor[sid] < strands_[sid].solution.sequence.size()) {
      tails.emplace_back(
          stream_priority(
              records[strands_[sid].solution.sequence[cursor[sid]].index()]),
          sid);
      std::push_heap(tails.begin(), tails.end(), std::greater<>{});
    }
  }
  const std::uint64_t lag = counters_.ingested - counters_.committed;
  if (lag > counters_.max_commit_lag) counters_.max_commit_lag = lag;

  // The canonical merge: every alive strand is one part; the k-way
  // priority merge over strands equals the batch per-component merge
  // (strands partition each component into [full solve][appended suffix]
  // runs whose heads interleave exactly as the component's Kahn order).
  std::vector<const ComponentSolution*> parts;
  parts.reserve(strands_.size());
  for (const Strand& s : strands_) {
    if (s.alive) parts.push_back(&s.solution);
  }
  StreamResult result;
  merge_solutions(parts, records, result.sequence, result.status);

  Outcome out;
  for (std::size_t k = 0; k < result.sequence.size(); ++k) {
    if (result.status[k] == RunStatus::kExecuted) {
      out.schedule.push_back(result.sequence[k]);
    } else {
      out.skipped.push_back(result.sequence[k]);
    }
  }
  out.final_state = working_.snapshot();
  out.complete = true;
  Policy neutral;
  out.cost = neutral.cost(out);

  stats_.constraint_pairs_evaluated = graph_.build_stats().pairs_evaluated;
  stats_.stream_epochs = counters_.epochs;
  stats_.commit_violations = counters_.commit_violations;
  stats_.max_commit_lag = counters_.max_commit_lag;

  if (capture_ != nullptr) {
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof crc_hex, "%08x", crc_.value());
    std::string payload = std::string("crc ") + crc_hex + "\n";
    payload += "ingested " + std::to_string(counters_.ingested);
    payload += " epochs " + std::to_string(counters_.epochs);
    payload += " fast " + std::to_string(counters_.fast_appends);
    payload += " full " + std::to_string(counters_.full_resolves);
    payload += " committed " + std::to_string(counters_.committed);
    payload += " violations " + std::to_string(counters_.commit_violations);
    payload += " executed " + std::to_string(out.schedule.size());
    payload += " skipped " + std::to_string(out.skipped.size());
    payload += " digest " +
               std::to_string(
                   schedule_digest(records, result.sequence, result.status));
    emit(CaptureRecordKind::kSummary, epoch_, std::move(payload));
  }

  result.outcome = std::move(out);
  return result;
}

StreamDaemon::StreamDaemon(Universe initial, StreamOptions options,
                           std::size_t max_batch)
    : core_(std::move(initial), options),
      max_batch_(std::max<std::size_t>(1, max_batch)),
      consumer_([this] { consume(); }) {}

StreamDaemon::~StreamDaemon() {
  closed_.store(true, std::memory_order_release);
  if (consumer_.joinable()) consumer_.join();
}

bool StreamDaemon::try_submit(LogId log, ActionPtr action) {
  return ring_.try_push(Item{std::move(action), log.value(),
                             stream_now_ns()});
}

void StreamDaemon::submit(LogId log, ActionPtr action) {
  Item item{std::move(action), log.value(), stream_now_ns()};
  while (!ring_.try_push(item)) {
    std::this_thread::yield();
  }
}

void StreamDaemon::consume() {
  std::vector<Item> buffer(max_batch_);
  for (;;) {
    const std::size_t got = ring_.pop_batch(buffer.begin(), max_batch_);
    if (got == 0) {
      if (closed_.load(std::memory_order_acquire) && ring_.empty()) break;
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < got; ++i) {
      core_.ingest(LogId(buffer[i].log), std::move(buffer[i].action),
                   buffer[i].submit_ns);
    }
    core_.run_epoch();
  }
}

StreamResult StreamDaemon::finish() {
  closed_.store(true, std::memory_order_release);
  if (consumer_.joinable()) consumer_.join();
  return core_.finish();
}

}  // namespace icecube
