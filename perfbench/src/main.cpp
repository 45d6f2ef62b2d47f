// perfbench_search: one repetition of a benchmark workload, in its own
// process. perfbench/run.py starts one per repetition and aggregates them.
//
//   perfbench_search --mode search --workload <name> --seed <n>
//       Untraced. Times set-up (scenario build + BranchExecutor::discover()
//       on a fresh executor) kSetupSamples times, the first one cold, then
//       one full search; prints one JSON line with the end-to-end figures
//       and the result digest.
//   perfbench_search --mode traced --workload <name> --seed <n>
//       Traced. Runs the search with the GuestNode decorator installed, then
//       the branch replay (replay.h); prints one JSON line with the per-layer
//       figures, the traced result digest and the failed checks.
//
// Exit status: 0 on success, 1 on a failed run, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/log.h"
#include "common/trace.h"
#include "host.h"
#include "replay.h"
#include "spans.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace turret;
using namespace perfbench;

/// Set-up samples per repetition; every workload takes the same number.
constexpr int kSetupSamples = 3;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::string digest_hex(const std::string& s) {
  Hasher128 h;
  h.update(std::string_view{s});
  const Digest128 d = h.digest();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, d.hi, d.lo);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile of `v` (0 < q <= 1).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return raw(key, q + "\"");
  }
  JsonObject& raw(const char* key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + std::string("\"") + key + "\":" + v;
    return *this;
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct ResultFacts {
  std::string digest;
  std::uint64_t branches = 0;
  std::uint64_t attacks = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  double virtual_s = 0;
  double first_attack_virtual_s = 0;
};

ResultFacts facts(const search::SearchResult& r) {
  ResultFacts f;
  f.digest = digest_hex(r.to_json());
  f.branches = r.cost.branches;
  f.attacks = r.attacks.size();
  f.failed = r.failed.size();
  f.retries = r.cost.retries;
  f.virtual_s = static_cast<double>(r.cost.total()) * 1e-9;
  if (!r.attacks.empty()) {
    Duration first = r.attacks.front().found_after;
    for (const auto& a : r.attacks) first = std::min(first, a.found_after);
    f.first_attack_virtual_s = static_cast<double>(first) * 1e-9;
  }
  return f;
}

std::string host_json() {
  const HostInfo h = host_info();
  JsonObject o;
  o.count("nproc", h.nproc)
      .str("cpu_model", h.cpu_model)
      .str("compiler", h.compiler)
      .str("build_type", h.build_type)
      .str("cxx_flags", h.cxx_flags)
      .raw("optimized", h.optimized ? "true" : "false")
      .raw("sanitized", h.sanitized ? "true" : "false")
      .raw("coverage", h.coverage ? "true" : "false")
      .raw("build_valid", h.build_valid ? "true" : "false");
  return o.json();
}

void put_facts(JsonObject& o, const ResultFacts& f) {
  o.str("result_digest", f.digest)
      .count("branches", f.branches)
      .count("attacks_found", f.attacks)
      .count("failed_branches", f.failed)
      .count("retries", f.retries)
      .num("search_virtual_s", f.virtual_s)
      .num("first_attack_virtual_s", f.first_attack_virtual_s);
}

int mode_search(const std::string& name, std::uint64_t seed) {
  const unsigned jobs = configure_jobs();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::int64_t t0 = now_ns();
    const Workload w = make_workload(name, seed);
    search::BranchExecutor ex(w.scenario);
    ex.discover();
    setup_s.push_back(seconds_since(t0));
  }
  const Workload w = make_workload(name, seed);
  const std::int64_t t0 = now_ns();
  const search::SearchResult r = run_search(w, w.scenario);
  const double wall = seconds_since(t0);

  JsonObject o;
  o.str("workload", name).count("seed", seed).count("jobs", jobs);
  std::string samples = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", setup_s[i]);
    samples += buf;
  }
  o.num("search_wall_s", wall).raw("setup_s", samples + "]");
  o.num("peak_rss_mb", peak_rss_mb());
  put_facts(o, facts(r));
  o.raw("host", host_json());
  std::printf("%s\n", o.json().c_str());
  return 0;
}

int mode_traced(const std::string& name, std::uint64_t seed) {
  const unsigned jobs = configure_jobs();
  const Workload w = make_workload(name, seed);

  const TracedSearch ts = run_traced_search(w);
  const trace::CounterSnapshot& counters = ts.counters;
  const ResultFacts f = facts(ts.result);

  // The search's own snapshot work, seen from the library's counters and
  // from the guest decorator: none for brute force, some for branching.
  std::vector<std::string> problems;
  const std::uint64_t lib_calls = ts.library_snapshot_calls();
  const std::uint64_t guest_calls = ts.guest_save_load_calls();
  if (w.algorithm == Algorithm::kBrute && (lib_calls || guest_calls))
    problems.push_back("brute-force search made snapshot calls");
  if (w.algorithm != Algorithm::kBrute && (!lib_calls || !guest_calls))
    problems.push_back("branching search made no snapshot calls");

  search::BranchExecutor ex(w.scenario);
  const ReplayResult rp = replay(w, ex, jobs);
  const SpanReport& s = rp.spans;
  const double wall = s.root_s();
  const auto share = [wall](double x) { return wall > 0 ? x / wall : 0.0; };
  const auto sec = [&s](Site site) {
    return static_cast<double>(s.at(site).self_ns) * 1e-9;
  };
  std::vector<double> branch_ms;
  for (const std::int64_t ns : s.branch_ns)
    branch_ms.push_back(static_cast<double>(ns) * 1e-6);
  const std::uint64_t decodes = counters.decode_hits + counters.decode_misses;
  const double netem_self = s.layer_self_s(Layer::kNetem);
  const double run_total = static_cast<double>(s.at(Site::kRun).total_ns) * 1e-9;

  JsonObject m;
  m.num("netem.dispatch_self_s", netem_self)
      .count("netem.events", rp.events)
      .num("netem.events_per_s", run_total > 0 ? rp.events / run_total : 0)
      .num("netem.self_share", share(netem_self))
      .num("systems.handler_self_s", s.layer_self_s(Layer::kSystems))
      .count("systems.handler_calls", s.at(Site::kHandler).calls)
      .num("systems.self_share", share(s.layer_self_s(Layer::kSystems)))
      .num("runtime.world_build_s", sec(Site::kWorldBuild))
      .num("runtime.deliver_self_s", sec(Site::kDeliver))
      .num("runtime.snapshot_save_s", sec(Site::kSave))
      .num("runtime.snapshot_decode_s", sec(Site::kDecode))
      .num("runtime.snapshot_restore_s", sec(Site::kRestore))
      .count("runtime.snapshot_calls", s.at(Site::kSave).calls +
                                           s.at(Site::kDecode).calls +
                                           s.at(Site::kRestore).calls)
      .num("runtime.snapshot_share",
           share(sec(Site::kSave) + sec(Site::kDecode) + sec(Site::kRestore)))
      .num("runtime.self_share", share(s.layer_self_s(Layer::kRuntime)))
      .num("vm.guest_state_save_s", sec(Site::kGuestSave))
      .num("vm.guest_state_load_s", sec(Site::kGuestLoad))
      .count("vm.cow_faults", rp.cow_faults)
      .count("vm.pagestore_pages", rp.pagestore_pages)
      .count("vm.snapshot_bytes_written", rp.snapshot_bytes_written)
      .count("vm.snapshot_bytes_deduped", rp.snapshot_bytes_deduped)
      .num("vm.self_share", share(s.layer_self_s(Layer::kVm)))
      .num("proxy.on_send_s", sec(Site::kProxySend))
      .count("proxy.observed", rp.proxy_observed)
      .count("proxy.injected", rp.proxy_injected)
      .num("proxy.self_share", share(s.layer_self_s(Layer::kProxy)))
      .count("wire.sealed_msgs", rp.sealed_msgs)
      .num("wire.open_ns_per_msg", rp.open_ns_per_msg)
      .count("wire.tamper_detected", rp.tampers)
      .num("search.branch_wall_ms.p50", percentile(branch_ms, 0.50))
      .num("search.branch_wall_ms.p95", percentile(branch_ms, 0.95))
      .num("search.measure_s", sec(Site::kMeasure))
      .num("search.self_share", share(s.layer_self_s(Layer::kSearch)))
      .num("search.decode_hit_rate",
           decodes ? static_cast<double>(counters.decode_hits) /
                         static_cast<double>(decodes)
                   : 0.0)
      .count("search.retries", f.retries)
      .count("search.quarantines", f.failed)
      .count("search.replay_branches", rp.branches)
      .count("search.replay_failed", rp.failed)
      .num("search.replay_wall_s", rp.elapsed_s)
      .count("search.snapshot_calls", lib_calls)
      .count("search.guest_save_load_calls", guest_calls)
      .num("search.traced_handler_self_s",
           ts.spans.layer_self_s(Layer::kSystems));

  for (const std::string& m : rp.mismatches)
    problems.push_back("replayed baseline differs from "
                       "BranchExecutor::baseline: " + m);
  std::string problem_list = "[";
  for (std::size_t i = 0; i < problems.size(); ++i)
    problem_list += (i ? ",\"" : "\"") + problems[i] + "\"";
  problem_list += "]";

  JsonObject o;
  o.str("workload", name).count("seed", seed).count("jobs", jobs);
  o.num("traced_search_wall_s", ts.wall_s);
  put_facts(o, f);
  o.raw("problems", problem_list);
  o.raw("per_layer", m.json());
  o.raw("host", host_json());
  std::printf("%s\n", o.json().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_search --mode search|traced "
               "--workload <name> --seed <n>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, workload;
  std::uint64_t seed = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--mode") mode = value;
    else if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  set_log_level(LogLevel::kError);
  try {
    if (workload.empty()) return usage();
    if (mode == "search") return mode_search(workload, seed);
    if (mode == "traced") return mode_traced(workload, seed);
    return usage();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench_search: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_search: run failed: %s\n", e.what());
    return 1;
  }
}
