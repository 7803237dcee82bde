#include "exec/parallel.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "egi/telemetry.h"
#include "util/check.h"
#include "util/env.h"

namespace egi::exec {

namespace {

/// Pool-queue depth gauge, shared by Enqueue and the worker loop. Updated
/// inside the queue lock, so the stored value is exact at store time.
telemetry::Gauge* QueueDepthGauge() {
  static auto* gauge =
      telemetry::Registry::Global().GetGauge("exec.queue_depth");
  return gauge;
}

/// State shared between the caller and the helper tasks of one region.
/// Held by shared_ptr so a helper dequeued after the caller returned still
/// has valid state to touch: it finds `next` exhausted and leaves without
/// dereferencing `chunk_fn`, which is only ever called for a claimed chunk
/// — and the caller does not return before every claimed chunk finished.
struct RegionState {
  const std::function<void(size_t)>* chunk_fn = nullptr;
  size_t num_chunks = 0;
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  std::atomic<size_t> done{0};  // claimed chunks that finished or were skipped

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr first_exception;
};

// Claims chunks until the counter is exhausted. A claimed chunk runs unless
// an earlier one threw, in which case it is skipped: every chunk is claimed
// exactly once either way, so `done` always reaches num_chunks. Returns how
// many chunks this thread claimed.
size_t DrainChunks(RegionState& state) {
  size_t claimed = 0;
  for (;;) {
    const size_t c = state.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= state.num_chunks) break;
    ++claimed;
    if (state.abort.load(std::memory_order_relaxed)) continue;
    try {
      (*state.chunk_fn)(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.first_exception == nullptr) {
        state.first_exception = std::current_exception();
      }
      state.abort.store(true, std::memory_order_relaxed);
    }
  }
  if (claimed > 0 && state.done.fetch_add(claimed, std::memory_order_acq_rel) +
                             claimed ==
                         state.num_chunks) {
    std::lock_guard<std::mutex> lock(state.mu);
    state.done_cv.notify_all();
  }
  return claimed;
}

ThreadPool* g_shared_pool = nullptr;

}  // namespace

Parallelism Parallelism::FromEnv() { return Parallelism(GetEnvNumThreads()); }

ThreadPool::ThreadPool(int num_workers) {
  const int n = std::max(0, num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] {
      for (;;) {
        std::function<void()> task;
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
          if (stop_ && queue_.empty()) return;
          task = std::move(queue_.front());
          queue_.pop_front();
          QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
        }
        task();
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::Shared() {
  // One worker per core: EGI_NUM_THREADS, else hardware_concurrency, hard-
  // capped so an absurd request can't exhaust thread-creation resources.
  // Leaked deliberately: joining workers during static destruction can
  // deadlock, and the OS reclaims everything at exit anyway.
  static ThreadPool* pool = [] {
    constexpr int kMaxSharedPoolThreads = 64;
    g_shared_pool = new ThreadPool(
        std::min(kMaxSharedPoolThreads, Parallelism::FromEnv().threads));
    pthread_atfork(nullptr, nullptr, &ThreadPool::MarkSharedForked);
    telemetry::Registry::Global()
        .GetGauge("exec.pool_workers")
        ->Set(g_shared_pool->num_workers());
    return g_shared_pool;
  }();
  return *pool;
}

void ThreadPool::MarkSharedForked() {
  // Runs in the child right after fork(): one atomic store, nothing else.
  g_shared_pool->forked_.store(true, std::memory_order_relaxed);
}

void ThreadPool::Enqueue(std::function<void()> task) {
  EGI_CHECK(!forked_.load(std::memory_order_relaxed))
      << "exec::ThreadPool used in a forked child, whose pool has no "
         "threads. Rule: exec, don't fork, after the first parallel region.";
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::RunChunks(size_t num_chunks, int max_concurrency,
                           const std::function<void(size_t)>& chunk_fn) {
  if (num_chunks == 0) return;
  if (num_chunks == 1 || max_concurrency <= 1) {
    for (size_t c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }

  // Parallel regions only (the serial inline path above is too hot for a
  // clock read): region wall time plus how much work fanned out.
  // A late helper claimed no chunk: by the time a worker dequeued it, the
  // caller (and any earlier helpers) had claimed them all — fan-out that
  // was declined because no worker was idle.
  static auto* regions =
      telemetry::Registry::Global().GetCounter("exec.regions");
  static auto* chunks = telemetry::Registry::Global().GetCounter("exec.chunks");
  static auto* helpers_enqueued =
      telemetry::Registry::Global().GetCounter("exec.helpers");
  static auto* helpers_late =
      telemetry::Registry::Global().GetCounter("exec.helpers_late");
  static auto* region_hist =
      telemetry::Registry::Global().GetHistogram("exec.region_seconds");
  regions->Add(1);
  chunks->Add(num_chunks);
  telemetry::ScopedTimer region_timer(region_hist);

  auto state = std::make_shared<RegionState>();
  state->chunk_fn = &chunk_fn;
  state->num_chunks = num_chunks;

  const int helpers = static_cast<int>(
      std::min<size_t>({static_cast<size_t>(max_concurrency - 1),
                        static_cast<size_t>(num_workers()), num_chunks - 1}));
  helpers_enqueued->Add(static_cast<uint64_t>(helpers));
  for (int h = 0; h < helpers; ++h) {
    Enqueue([state] {
      if (DrainChunks(*state) == 0) helpers_late->Add(1);
    });
  }

  DrainChunks(*state);

  // Every chunk is claimed by now; wait only for the ones still running on
  // helpers, never for helpers that have not been dequeued yet.
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == num_chunks;
    });
  }
  if (state->first_exception != nullptr) {
    std::rethrow_exception(state->first_exception);
  }
}

size_t NumChunks(size_t range, size_t grain) {
  grain = std::max<size_t>(1, grain);
  return (range + grain - 1) / grain;
}

void ParallelForRanges(const Parallelism& par, size_t begin, size_t end,
                       size_t grain,
                       const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<size_t>(1, grain);
  const size_t chunks = NumChunks(end - begin, grain);
  const auto chunk_fn = [&](size_t c) {
    const size_t b = begin + c * grain;
    fn(b, std::min(end, b + grain));
  };
  if (par.serial() || chunks == 1) {
    for (size_t c = 0; c < chunks; ++c) chunk_fn(c);
    return;
  }
  ThreadPool::Shared().RunChunks(chunks, par.threads, chunk_fn);
}

void ParallelFor(const Parallelism& par, size_t begin, size_t end,
                 size_t grain, const std::function<void(size_t)>& fn) {
  ParallelForRanges(par, begin, end, grain, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) fn(i);
  });
}

}  // namespace egi::exec
