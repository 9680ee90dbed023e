// Umbrella header: the whole IceCube public API in one include.
//
//   #include "icecube.hpp"
//
// For finer-grained builds include the individual headers; this header is
// for applications and quick experiments.
#pragma once

// Engine.
#include "core/action.hpp"          // Action, SimpleAction, ActionPtr
#include "core/constraint.hpp"      // Constraint {safe, maybe, unsafe}
#include "core/constraint_builder.hpp"
#include "core/cutset.hpp"          // proper cutsets
#include "core/cycles.hpp"          // dependence-cycle analysis
#include "core/conflict_report.hpp" // conflict explanation
#include "core/graphviz.hpp"        // DOT export
#include "core/log.hpp"             // Log, ActionRecord
#include "core/options.hpp"         // Heuristic, FailureMode, options
#include "core/outcome.hpp"         // Outcome, SearchStats
#include "core/policies.hpp"        // MaxActions/Protect/Parcel/Trace
#include "core/policy.hpp"          // the §3.5 hook interface
#include "core/reconciler.hpp"      // Reconciler — the main entry point
#include "core/relations.hpp"       // D and I
#include "core/universe.hpp"        // SharedObject, Universe

// Substrates.
#include "objects/calendar.hpp"
#include "objects/counter.hpp"
#include "objects/file_system.hpp"
#include "objects/line_file.hpp"
#include "objects/rw_register.hpp"
#include "objects/sysadmin.hpp"
#include "objects/text.hpp"

// Applications and tooling.
#include "baseline/algebraic_sync.hpp"
#include "baseline/cvs_merge.hpp"
#include "baseline/greedy_insertion.hpp"
#include "baseline/temporal_merge.hpp"
#include "jigsaw/experiment.hpp"
#include "logclean/cleaner.hpp"
#include "replica/gossip.hpp"
#include "replica/site.hpp"
#include "replica/sync.hpp"
#include "serialize/gossip_codec.hpp"
#include "serialize/log_codec.hpp"
#include "serialize/universe_codec.hpp"
#include "simnet/chaos.hpp"
#include "simnet/invariants.hpp"
#include "simnet/simnet.hpp"
#include "workload/generators.hpp"
