// The three attack-finding algorithms of §III-B.
//
//  * brute_force_search — Fig. 2(a): one full execution per (message type,
//    action) scenario, no branching. Simple, and pays for it in time. It
//    runs on the same BranchExecutor as the others, from injection points
//    without a snapshot: each branch is a full run from t = 0.
//  * greedy_search — Fig. 2(b), the Gatling algorithm: branch at an injection
//    point, evaluate a baseline plus *every* action for the message type,
//    select the strongest, and require the same action to win at several
//    consecutive injection points before declaring an attack. Finds the
//    strongest attack per type per repetition; repetitions exclude attacks
//    already reported until no new attack is found.
//  * weighted_greedy_search — Fig. 2(c), the paper's contribution: actions
//    are clustered; clusters carry weights (optionally preloaded); actions
//    are tried in descending cluster-weight order and the search reports an
//    attack the moment one action's damage exceeds Δ, bumping its cluster's
//    weight so later message types (and systems) try likely-effective
//    categories first.
//
// All three charge their execution and snapshot costs to SearchCost in
// emulated seconds; AttackReport::found_after is the running total when the
// attack was reported — the quantity Table III compares.
#pragma once

#include <array>

#include "search/executor.h"
#include "search/report.h"
#include "search/scenario.h"

namespace turret::search {

struct GreedyOptions {
  /// Injection points the same action must win consecutively (the paper's
  /// "selected more than a certain number of times").
  int confirmations = 3;
  /// Cap on find-strongest/exclude/repeat passes (0 = until no new attack).
  /// Greedy's cost grows quadratically with the attacks per message type;
  /// benches bound it the way the paper's users bounded their patience.
  int max_repetitions = 0;
};

/// Cluster weights for weighted greedy; learned weights can be carried from
/// one system's search into the next (preloading).
struct ClusterWeights {
  std::array<double, proxy::kNumClusters> w;

  ClusterWeights() { w.fill(1.0); }
  double& operator[](proxy::ActionCluster c) {
    return w[static_cast<std::size_t>(c)];
  }
  double operator[](proxy::ActionCluster c) const {
    return w[static_cast<std::size_t>(c)];
  }
};

struct WeightedOptions {
  ClusterWeights initial;
  /// Added to the winning cluster's weight for each attack found.
  double bump = 1.0;
};

class Journal;

/// All three searches accept an optional write-ahead journal: completed
/// branch outcomes are appended as they merge, and a journal opened with
/// resume=true replays them instead of re-executing, reproducing the
/// uninterrupted SearchResult exactly (costs included).
///
/// They also accept an optional ProvenanceStore: when non-null (and the
/// scenario enables netem capture), every live execution harvests its audit
/// log, packet capture, and metric series into the store, and each
/// AttackReport carries the store keys of its classification and baseline
/// branches (journal-replayed branches execute nothing and contribute no
/// provenance).
///
/// Finally, an optional RemoteBackend (dist::Coordinator): batches of
/// branches are shipped to workers and merged in input order, so the
/// SearchResult is byte-identical to an in-process run at any worker count.
SearchResult brute_force_search(const Scenario& sc, Journal* journal = nullptr,
                                ProvenanceStore* provenance = nullptr,
                                RemoteBackend* remote = nullptr);
SearchResult greedy_search(const Scenario& sc, const GreedyOptions& opt = {},
                           Journal* journal = nullptr,
                           ProvenanceStore* provenance = nullptr,
                           RemoteBackend* remote = nullptr);

/// `learned`, when non-null, receives the final weights (for preloading the
/// next search).
SearchResult weighted_greedy_search(const Scenario& sc,
                                    const WeightedOptions& opt = {},
                                    ClusterWeights* learned = nullptr,
                                    Journal* journal = nullptr,
                                    ProvenanceStore* provenance = nullptr,
                                    RemoteBackend* remote = nullptr);

}  // namespace turret::search
