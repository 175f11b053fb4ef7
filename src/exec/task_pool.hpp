// xl::exec — the persistent executor under the whole parallel spine
// (numerics GEMM, core batched VDP + DSE).
//
// Why it exists: with SIMD kernels and arena workspaces on the hot path,
// per-GEMM fork-join setup and barrier cost would dominate a small
// inference. This pool is created once per process (or per
// test scope), keeps its workers parked on a condvar parking lot between
// bursts, and exposes one primitive:
//
//   * parallel_for(begin, end, grain, fn) — CPU lanes. The range is cut
//     into canonical tiles [begin + t*grain, min(end, begin+(t+1)*grain));
//     the tile set is a PURE FUNCTION of (range, grain, pool width) and
//     never of which lane runs which tile, so any value computed per index
//     is bit-identical for every thread count and every schedule. fn is
//     invoked once per tile as fn(i0, i1, lane) where lane ∈ [0, lanes())
//     uniquely identifies the executing hand *within this call* (lane 0 =
//     the calling thread) — safe to index per-lane scratch pools with. The
//     call blocks until every tile ran, which is also the memory barrier:
//     all tile writes happen-before the return.
//
// Loops that block (a serving shard waiting for requests) do not run on
// the pool: the serving runtime owns dedicated per-shard worker threads.
//
// Distribution: one shared tile cursor per job. The caller takes tile 0,
// publishes the job in a fixed slot and wakes one parked worker per
// remaining tile (up to lanes - 1). From then on the caller and every
// woken worker claim the next tile with fetch_add on the job's cursor
// until it runs past the last tile, so the load balances itself tile by
// tile. Placement affects wall-clock only, never values.
//
// Completion and slot recycling: a worker counts itself into the job's
// `inside` counter before it touches the cursor and re-checks that the job
// is still open; the caller, once the cursor is exhausted, closes the job
// and waits for `inside` to drain to 0. Both sides are seq_cst (a Dekker
// handshake), so a worker either sees the job closed and backs out, or is
// seen by the caller, which then waits for its last tile. Only then is the
// slot freed for reuse.
//
// Zero-allocation contract: parallel_for never touches the heap — jobs
// live in a fixed slot array and fn travels as a raw function pointer +
// context (exec.hpp provides the lambda trampoline). When every slot is
// busy or the pool has one lane, the call degrades to inline serial
// execution of the same tile set. Nested parallel_for calls (from inside
// a tile) are serialized inline.
//
// Width resolution mirrors XL_DISABLE_SIMD: the XL_EXEC_THREADS
// environment variable overrides the default hardware_concurrency width
// (resolved once, at first use); tests pin widths in-process with
// ScopedPool. It is the only threading backend in the tree.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xl::exec {

/// Hard lane cap. XL_EXEC_THREADS and TaskPool widths clamp to it.
inline constexpr std::size_t kMaxLanes = 64;

/// Raw tile callback: fn(ctx, i0, i1, lane) runs indices [i0, i1).
using TileFn = void (*)(void* ctx, std::size_t i0, std::size_t i1,
                        std::size_t lane);

class TaskPool {
 public:
  /// A pool of `lanes` total hands: lanes-1 background CPU workers plus
  /// the participating caller of each parallel_for. Clamped to
  /// [1, kMaxLanes]. Width 1 spawns no threads at all — every
  /// parallel_for runs inline (the 1-core container's fast path).
  explicit TaskPool(std::size_t lanes);

  /// Wakes and joins the CPU workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// Run fn over [begin, end) in grain-sized tiles (grain 0 = auto, a
  /// pure function of range and width). Blocks until every tile ran.
  /// See the file header for the determinism and allocation contracts.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    TileFn fn, void* ctx);

 private:
  static constexpr std::size_t kJobSlots = 32;

  /// kOwned: held by its caller but closed to workers (being built, or
  /// closed and draining). Only kActive jobs admit workers.
  enum JobState : std::uint32_t { kFree = 0, kOwned = 1, kActive = 2 };

  /// One in-flight parallel_for. The fields before `next` are written by
  /// the caller while kOwned and published by its store of kActive; they
  /// are immutable while workers may be inside.
  struct alignas(64) ParallelJob {
    TileFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t tiles = 0;
    /// Next unclaimed tile; claims past `tiles` mean the job is exhausted.
    alignas(64) std::atomic<std::size_t> next{0};
    /// Workers currently inside the job. Never reset: a worker that
    /// enters between two jobs in this slot counts for whichever it sees.
    alignas(64) std::atomic<std::uint32_t> inside{0};
    alignas(64) std::atomic<std::uint32_t> state{kFree};
  };

  void run_inline(std::size_t begin, std::size_t end, std::size_t grain,
                  std::size_t tiles, TileFn fn, void* ctx);
  /// Run `tile` and then every tile claimed from the cursor on `lane`;
  /// returns how many tiles ran.
  std::size_t drain(ParallelJob& job, std::size_t tile, std::size_t lane);
  ParallelJob* claim_slot();
  bool join_active_jobs(std::size_t lane);
  void unpark(std::size_t count);
  void worker_main(std::size_t lane);

  const std::size_t lanes_;
  std::array<ParallelJob, kJobSlots> jobs_;
  std::vector<std::thread> workers_;  ///< Lanes 1..lanes_-1.

  // Parking lot: workers that found no open job wait on the condvar; a
  // submitter bumps the epoch (under the mutex, so a worker between its
  // last job scan and the wait cannot miss it) and wakes as many workers
  // as it has tiles left for them.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> park_epoch_{0};
  std::atomic<bool> quit_{false};
};

/// The process-wide pool. Width resolves once, at first use: the
/// XL_EXEC_THREADS environment variable (>= 1, clamped to kMaxLanes) when
/// set and valid, else std::thread::hardware_concurrency().
TaskPool& global_pool();

/// The pool parallel_for routes through on this
/// thread: the innermost live ScopedPool override, else the global pool.
TaskPool& current();

/// current().lanes() — the lane count per-lane scratch pools must cover.
std::size_t width();

/// RAII width override for the current thread (tests pin widths 1/2/8 in
/// one process, where the global pool's env-resolved width is fixed).
/// Owns a private TaskPool; restores the previous override on scope exit.
/// The override is thread-local: it governs calls made on this thread
/// (and the pool's own workers), not threads spawned by other components.
class ScopedPool {
 public:
  explicit ScopedPool(std::size_t lanes);
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

  [[nodiscard]] TaskPool& pool() noexcept { return *pool_; }

 private:
  std::unique_ptr<TaskPool> pool_;
  TaskPool* previous_;
};

}  // namespace xl::exec
