#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.h"
#include "host.h"
#include "search/algorithms.h"
#include "systems/pbft/pbft_scenario.h"
#include "systems/registry.h"

namespace perfbench {

using namespace turret;

namespace {

search::Scenario from_registry(std::string_view system, std::uint64_t seed) {
  const systems::SystemEntry* entry = systems::find_system(system);
  if (entry == nullptr)
    throw std::invalid_argument("system not registered: " + std::string(system));
  systems::SystemBuildOptions opt;
  opt.seed = seed;
  return entry->make(opt);
}

search::Scenario fleet10(std::uint64_t seed) {
  systems::pbft::PbftScenarioOptions opt;
  opt.n = 10;
  opt.f = 3;
  if (seed != 0) opt.seed = seed;
  search::Scenario sc = systems::pbft::make_pbft_scenario(opt);
  // The profile bench_branch_snapshot uses: 8 MiB images scaled from the
  // paper's 128 MiB guests, 1280 of 2048 pages sharable across replicas.
  sc.testbed.snapshot.model_memory = true;
  sc.testbed.snapshot.profile.os_pages = 1024;
  sc.testbed.snapshot.profile.app_pages = 256;
  sc.testbed.snapshot.profile.unique_pages = 768;
  return sc;
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  if (name == "pbft-weighted") {
    w.scenario = from_registry("pbft", seed);
  } else if (name == "pbft-brute") {
    w.algorithm = Algorithm::kBrute;
    w.scenario = from_registry("pbft", seed);
  } else if (name == "fleet10-images") {
    w.scenario = fleet10(seed);
  } else if (name == "minbft-signed") {
    w.scenario = from_registry("minbft", seed);
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return w;
}

search::SearchResult run_search(const Workload& w, const search::Scenario& sc) {
  return w.algorithm == Algorithm::kBrute ? search::brute_force_search(sc)
                                          : search::weighted_greedy_search(sc);
}

unsigned configure_jobs() {
  const unsigned jobs = std::min(kSearchJobs, host_info().nproc);
  set_default_jobs(jobs);
  return jobs;
}

}  // namespace perfbench
