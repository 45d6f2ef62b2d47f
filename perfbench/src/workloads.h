// The benchmark's four attack-search workloads. Each is a closed batch job:
// one full search, run through the library's public search API on a fixed
// worker count.
//
//   pbft-weighted   registry pbft, weighted greedy, default Scenario: the
//                   paper's headline search. Emulator dispatch and guest
//                   handlers dominate; snapshots are KB-sized.
//   pbft-brute      the same scenario through brute force: full executions
//                   from t = 0, no snapshot save or restore.
//   fleet10-images  PBFT n = 10, f = 3 with modelled OS/app/unique memory
//                   images (the Table-II-scaled profile), weighted greedy:
//                   snapshot save/decode/restore of the fleet's images and
//                   10-node dispatch.
//   minbft-signed   registry minbft with signing on, weighted greedy: every
//                   message sealed and verified, the proxy re-seals lies, and
//                   some branches fail and are retried and quarantined.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "search/report.h"
#include "search/scenario.h"

namespace perfbench {

/// Worker threads every search runs with (capped at the host's threads).
inline constexpr unsigned kSearchJobs = 4;

enum class Algorithm { kWeighted, kBrute };

struct Workload {
  std::string name;
  Algorithm algorithm = Algorithm::kWeighted;
  turret::search::Scenario scenario;
};

/// Builds workload `name` with scenario seed `seed` (0 = the system's
/// default seed). Throws std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// Runs the workload's search algorithm on `sc` (the workload's own scenario
/// or a decorated copy of it).
turret::search::SearchResult run_search(const Workload& w,
                                        const turret::search::Scenario& sc);

/// Applies kSearchJobs, capped at the host's hardware threads.
unsigned configure_jobs();

}  // namespace perfbench
