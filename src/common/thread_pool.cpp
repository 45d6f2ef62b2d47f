#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>

#include "common/check.h"

namespace turret {
namespace {

std::atomic<unsigned> g_jobs_override{0};

thread_local unsigned t_worker_id = 0;

unsigned jobs_from_env() {
  // Parsed once: the environment is read at first use and never re-read, so
  // concurrent default_jobs() calls never race against getenv.
  static const unsigned parsed = [] {
    const char* env = std::getenv("TURRET_JOBS");
    if (env == nullptr) return 0u;
    const long v = std::strtol(env, nullptr, 10);
    return v > 0 ? static_cast<unsigned>(v) : 0u;
  }();
  return parsed;
}

}  // namespace

unsigned default_jobs() {
  if (const unsigned n = g_jobs_override.load(std::memory_order_relaxed))
    return n;
  if (const unsigned n = jobs_from_env()) return n;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

void set_default_jobs(unsigned jobs) {
  g_jobs_override.store(jobs, std::memory_order_relaxed);
}

unsigned current_worker_id() { return t_worker_id; }

ThreadPool::ThreadPool(unsigned workers) {
  const unsigned n = workers > 0 ? workers : default_jobs();
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TURRET_CHECK_MSG(!shutdown_, "submit() on a shutting-down ThreadPool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(unsigned worker_id) {
  t_worker_id = worker_id;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A packaged_task traps its exception in the future; a raw std::function
    // that throws would std::terminate, which is the correct response to a
    // task that bypassed submit()'s future plumbing.
    task();
  }
}

}  // namespace turret
