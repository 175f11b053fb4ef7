// xl::exec — the persistent work-stealing executor under the whole
// parallel spine (numerics GEMM, core batched VDP + DSE).
//
// Why it exists: PR 6/8 removed compute and allocator overhead from the
// hot path, but every inference still paid fork-join setup and barrier
// cost per GEMM region. This pool is created once per process (or per
// test scope), keeps its workers parked on a condvar parking lot between
// bursts, and exposes one primitive:
//
//   * parallel_for(begin, end, grain, fn) — CPU lanes. The range is cut
//     into canonical tiles [begin + t*grain, min(end, begin+(t+1)*grain));
//     the tile set is a PURE FUNCTION of (range, grain, pool width) and
//     never of runtime stealing order, so any value computed per index is
//     bit-identical for every thread count and every steal interleaving.
//     fn is invoked once per tile as fn(i0, i1, lane) where lane ∈
//     [0, lanes()) uniquely identifies the executing hand *within this
//     call* (lane 0 = the calling thread) — safe to index per-lane
//     scratch pools with. The call blocks until every tile ran, which is
//     also the memory barrier: all tile writes happen-before the return.
//
// Loops that block (a serving shard waiting for requests) do not run on
// the pool: the serving runtime owns dedicated per-shard worker threads.
//
// Distribution (deterministic decomposition, dynamic placement): the
// caller keeps a leading share of tiles for itself and publishes the rest
// as per-worker chunks in a fixed job slot; the parking lot wakes exactly
// as many workers as there are chunks. A woken worker claims a chunk,
// owner-pushes it onto its Chase-Lev deque (work_deque.hpp) and splits it
// lazily from the bottom; idle workers steal halves from the top. Tiles
// are executed exactly once regardless of who runs them — placement
// affects wall-clock only, never values.
//
// Zero-allocation contract: parallel_for never touches the heap — jobs
// live in a fixed slot array, chunk descriptors are embedded, deque rings
// are preallocated, and fn travels as a raw function pointer + context
// (exec.hpp provides the lambda trampoline). When every slot is busy or
// the pool has one lane, the call degrades to inline serial execution of
// the same tile set. Nested parallel_for calls (from inside a tile) are
// serialized inline.
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

#include "exec/work_deque.hpp"

namespace xl::exec {

/// Hard lane cap: bounds the embedded per-job chunk array (and therefore
/// the zero-allocation guarantee). XL_EXEC_THREADS and TaskPool widths
/// clamp to it.
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
  /// Tile index/count budget of one packed work ref (24 bits each).
  static constexpr std::size_t kMaxTiles = (1u << 24) - 1;
  static constexpr std::size_t kDequeCapacity = 8192;

  enum JobState : std::uint32_t { kFree = 0, kBuilding = 1, kActive = 2 };

  /// One in-flight parallel_for. Fields before `remaining` are written by
  /// the submitting thread during kBuilding and published by the release
  /// stores on the chunk claim flags / job state; they are immutable
  /// while kActive.
  struct alignas(64) ParallelJob {
    TileFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::atomic<std::uint32_t> nchunks{0};
    /// Worker-share chunk descriptors. `claimed` rests at 1; the builder
    /// writes bounds then release-stores 0, and exactly one worker wins
    /// the 0->1 CAS (acquiring the bounds and the job fields).
    struct Chunk {
      std::uint32_t t0 = 0;
      std::uint32_t t1 = 0;
      std::atomic<std::uint32_t> claimed{1};
    };
    std::array<Chunk, kMaxLanes> chunks;
    /// Tiles not yet finished; the caller waits for 0. fetch_sub is
    /// acq_rel, so every tile's writes happen-before the caller's return.
    alignas(64) std::atomic<std::uint64_t> remaining{0};
    alignas(64) std::atomic<std::uint32_t> state{kFree};
  };

  static std::uint64_t pack_ref(std::size_t slot, std::size_t t0,
                                std::size_t count) {
    return (static_cast<std::uint64_t>(slot) << 48) |
           (static_cast<std::uint64_t>(t0) << 24) |
           static_cast<std::uint64_t>(count);
  }

  void run_inline(std::size_t begin, std::size_t end, std::size_t grain,
                  std::size_t tiles, TileFn fn, void* ctx);
  void run_tiles(ParallelJob& job, std::size_t t0, std::size_t t1,
                 std::size_t lane);
  void run_ref(std::uint64_t ref, std::size_t lane);
  void finish_tiles(ParallelJob& job, std::uint64_t count);
  ParallelJob* claim_slot();
  bool claim_chunk(std::size_t lane);
  bool steal(std::size_t lane, std::uint64_t* ref);
  void unpark(std::size_t count);
  void worker_main(std::size_t lane);

  const std::size_t lanes_;
  std::array<ParallelJob, kJobSlots> jobs_;
  std::vector<std::unique_ptr<WorkDeque>> deques_;  ///< [lane - 1].
  std::vector<std::thread> workers_;                ///< Lanes 1..lanes_-1.

  // Parking lot: workers with no claimable work wait on the condvar; a
  // submitter bumps the epoch (under the mutex, so a worker between its
  // last work scan and the wait cannot miss it) and wakes exactly as many
  // workers as it published chunks.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> park_epoch_{0};
  std::atomic<std::size_t> idle_{0};
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
