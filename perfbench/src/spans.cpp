#include "spans.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct Frame {
  Site site;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

struct ThreadLog {
  std::vector<Frame> stack;
  std::array<SiteTotals, kSiteCount> sites{};
  std::array<std::int64_t, kSiteCount> root_ns{};
  std::vector<std::int64_t> branch_ns;
};

std::atomic<bool> g_recording{false};

// Thread logs live until process exit: pool threads may end before take().
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog& thread_log() {
  thread_local ThreadLog* log = [] {
    auto owned = std::make_unique<ThreadLog>();
    ThreadLog* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::move(owned));
    return raw;
  }();
  return *log;
}

constexpr Layer kSiteLayers[kSiteCount] = {
    Layer::kSearch,   // kBranch
    Layer::kSearch,   // kSaveProbe
    Layer::kSearch,   // kMeasure
    Layer::kRuntime,  // kDecode
    Layer::kRuntime,  // kWorldBuild
    Layer::kRuntime,  // kRestore
    Layer::kRuntime,  // kSave
    Layer::kRuntime,  // kStart
    Layer::kRuntime,  // kDeliver
    Layer::kNetem,    // kRun
    Layer::kNetem,    // kGuestCall: emulator send/schedule behind the context
    Layer::kSystems,  // kHandler
    Layer::kVm,       // kGuestSave
    Layer::kVm,       // kGuestLoad
    Layer::kProxy,    // kProxySend
    Layer::kProxy,    // kProxyArm
};

}  // namespace

double SpanReport::layer_self_s(Layer l) const {
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < kSiteCount; ++i)
    if (kSiteLayers[i] == l) ns += sites[i].self_ns;
  return static_cast<double>(ns) * 1e-9;
}

double SpanReport::root_s() const {
  std::int64_t ns = 0;
  for (const std::int64_t r : root_ns) ns += r;
  return static_cast<double>(ns) * 1e-9;
}

void set_recording(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}

SpanReport take() {
  SpanReport out;
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < kSiteCount; ++i) {
      out.sites[i].self_ns += log->sites[i].self_ns;
      out.sites[i].total_ns += log->sites[i].total_ns;
      out.sites[i].calls += log->sites[i].calls;
      out.root_ns[i] += log->root_ns[i];
    }
    out.branch_ns.insert(out.branch_ns.end(), log->branch_ns.begin(),
                         log->branch_ns.end());
    log->sites = {};
    log->root_ns = {};
    log->branch_ns.clear();
  }
  return out;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(Site site) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  armed_ = true;
  thread_log().stack.push_back({site, now_ns(), 0});
}

Span::~Span() {
  if (!armed_) return;
  const std::int64_t end = now_ns();
  ThreadLog& log = thread_log();
  const Frame f = log.stack.back();
  log.stack.pop_back();
  const std::int64_t dur = end - f.start_ns;
  SiteTotals& t = log.sites[static_cast<std::size_t>(f.site)];
  t.self_ns += dur - f.child_ns;
  t.total_ns += dur;
  ++t.calls;
  if (log.stack.empty()) {
    log.root_ns[static_cast<std::size_t>(f.site)] += dur;
    if (f.site == Site::kBranch) log.branch_ns.push_back(dur);
  } else {
    log.stack.back().child_ns += dur;
  }
}

}  // namespace perfbench
