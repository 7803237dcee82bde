#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace egi::exec {

/// Degree-of-parallelism configuration plumbed through the library's hot
/// paths (ensemble members, matrix profile rows, HOTSAX candidates,
/// experiment cells). A value of 1 selects the serial path; chunk boundaries
/// are always derived from the range and grain alone — never from the thread
/// count — so results are bitwise-identical for every `threads` value (see
/// DESIGN.md, "Concurrency model").
struct Parallelism {
  int threads = 1;

  Parallelism() = default;
  // Implicit so legacy `num_threads` integer call sites keep working.
  Parallelism(int t) : threads(t) {}  // NOLINT(runtime/explicit)

  static Parallelism Serial() { return Parallelism(1); }
  static Parallelism Fixed(int threads) { return Parallelism(threads); }

  /// EGI_NUM_THREADS from the environment, defaulting to
  /// hardware_concurrency and clamped to >= 1 (util/env).
  static Parallelism FromEnv();

  bool serial() const { return threads <= 1; }
};

/// Cache-friendly fixed-worker thread pool (no work stealing): parallel
/// regions hand out contiguous chunk indices from a shared atomic counter,
/// the calling thread participates, and the call returns as soon as every
/// chunk has completed — helpers still queued at that point find the counter
/// exhausted and never touch the region's chunk function. The first
/// exception thrown by any chunk skips the remaining chunks and is rethrown
/// on the calling thread. Regions opened inside a task or inside another
/// region's chunk work the same way, so nesting can neither deadlock nor
/// oversubscribe (DESIGN.md, "Concurrency model").
///
/// Most code should use ParallelFor/ParallelForRanges below, which route
/// through the lazily-created process-wide Shared() pool. Dedicated pools
/// are for tests and embedders that need isolated worker sets.
///
/// Fork rule: exec, don't fork, after the first parallel region. A forked
/// child inherits the pool object but none of its threads; the shared pool
/// marks itself unusable in the child (pthread_atfork), and its next
/// Enqueue aborts instead of queueing work nothing will ever run.
class ThreadPool {
 public:
  /// Spawns `num_workers` background workers (0 is allowed: every region
  /// then runs entirely on the calling thread).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Process-wide pool, created on first use and intentionally leaked so
  /// exit never blocks on worker teardown. One worker per core
  /// (Parallelism::FromEnv()): it runs both the service's per-stream drain
  /// tasks and the helpers of every parallel region, so the process never
  /// has more pool threads than cores. The per-call concurrency cap is
  /// `max_concurrency` / Parallelism::threads.
  static ThreadPool& Shared();

  /// Queues `task` to run once on a worker, FIFO behind everything already
  /// queued. Tasks may open parallel regions of their own; those regions'
  /// helpers queue behind the tasks already waiting, so a region fans out
  /// only onto workers that are idle.
  void Enqueue(std::function<void()> task);

  /// Invokes `chunk_fn(c)` for every c in [0, num_chunks), using at most
  /// `max_concurrency` threads (the caller plus up to max_concurrency - 1
  /// pool workers). Returns once every chunk has completed; rethrows the
  /// first exception.
  void RunChunks(size_t num_chunks, int max_concurrency,
                 const std::function<void(size_t)>& chunk_fn);

 private:
  static void MarkSharedForked();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::atomic<bool> forked_{false};
};

/// Number of chunks a range of `range` items splits into at the given grain
/// (minimum items per chunk). Depends only on its arguments — this is the
/// determinism contract callers rely on.
size_t NumChunks(size_t range, size_t grain);

/// Invokes `fn(i)` for every i in [begin, end), split into chunks of at most
/// `grain` indices executed with at most `par.threads` threads from the
/// shared pool. Serial (in-order, inline) when par is serial or the range
/// fits one chunk.
void ParallelFor(const Parallelism& par, size_t begin, size_t end,
                 size_t grain, const std::function<void(size_t)>& fn);

/// Chunk-granular variant: invokes `fn(chunk_begin, chunk_end)` once per
/// chunk, for algorithms that carry per-chunk state across a contiguous
/// range (e.g. the STOMP row recurrence). Chunk boundaries depend only on
/// (begin, end, grain), so outputs that are a function of the chunking are
/// still identical across thread counts.
void ParallelForRanges(const Parallelism& par, size_t begin, size_t end,
                       size_t grain,
                       const std::function<void(size_t, size_t)>& fn);

}  // namespace egi::exec
