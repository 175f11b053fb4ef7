#include "exec/task_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace xl::exec {

namespace {

/// Innermost ScopedPool override for this thread; pool workers also point
/// this at their owning pool so code running on them routes nested work
/// back to the same pool.
thread_local TaskPool* tl_pool_override = nullptr;

/// Lane id the current thread executes tiles under: its worker lane on a
/// pool worker, 0 on every other thread (callers are lane 0 by definition).
thread_local std::size_t tl_lane = 0;

/// > 0 while executing inside a tile: nested parallel_for calls run
/// serial-inline under the enclosing lane.
thread_local int tl_depth = 0;

std::size_t resolve_global_width() {
  if (const char* env = std::getenv("XL_EXEC_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxLanes);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<std::size_t>(hw, kMaxLanes);
}

}  // namespace

TaskPool::TaskPool(std::size_t lanes)
    : lanes_(std::clamp<std::size_t>(lanes, 1, kMaxLanes)) {
  workers_.reserve(lanes_ - 1);
  for (std::size_t lane = 1; lane < lanes_; ++lane) {
    workers_.emplace_back(&TaskPool::worker_main, this, lane);
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(park_mutex_);
    quit_.store(true, std::memory_order_relaxed);
    park_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  park_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void TaskPool::parallel_for(std::size_t begin, std::size_t end,
                            std::size_t grain, TileFn fn, void* ctx) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (grain == 0) {
    // Auto grain targets ~4 tiles per lane — a pure function of the
    // range and the pool width, per the determinism contract.
    grain = (n - 1) / (lanes_ * 4) + 1;
  }
  const std::size_t tiles = (n - 1) / grain + 1;

  ParallelJob* job = nullptr;
  if (lanes_ == 1 || tiles == 1 || tl_depth > 0 ||
      (job = claim_slot()) == nullptr) {
    // Serial pool, single tile, nested call, or every slot busy
    // (pathological fan-out): the same tiles, inline, no heap.
    run_inline(begin, end, grain, tiles, fn, ctx);
    return;
  }

  job->fn = fn;
  job->ctx = ctx;
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->tiles = tiles;
  // Tile 0 is the caller's before the job opens, so lane 0 always runs.
  job->next.store(1, std::memory_order_relaxed);
  job->state.store(kActive, std::memory_order_seq_cst);
  unpark(std::min(tiles - 1, lanes_ - 1));

  drain(*job, 0, /*lane=*/0);

  // Close, then wait out every worker still inside (Dekker handshake with
  // join_active_jobs; see the file header). The acquire half of the load
  // that reads 0 makes every worker tile's writes visible here.
  job->state.store(kOwned, std::memory_order_seq_cst);
  for (std::uint32_t inside;
       (inside = job->inside.load(std::memory_order_seq_cst)) != 0;) {
    job->inside.wait(inside, std::memory_order_seq_cst);
  }
  job->state.store(kFree, std::memory_order_release);
}

void TaskPool::run_inline(std::size_t begin, std::size_t end,
                          std::size_t grain, std::size_t tiles, TileFn fn,
                          void* ctx) {
  // Same canonical tile walk as the pool path, on the current thread
  // under its current lane (so nested calls index scratch race-free).
  ++tl_depth;
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::size_t i0 = begin + tile * grain;
    fn(ctx, i0, std::min(end, i0 + grain), tl_lane);
  }
  --tl_depth;
}

std::size_t TaskPool::drain(ParallelJob& job, std::size_t tile,
                            std::size_t lane) {
  std::size_t ran = 0;
  ++tl_depth;
  for (; tile < job.tiles;
       tile = job.next.fetch_add(1, std::memory_order_relaxed), ++ran) {
    const std::size_t i0 = job.begin + tile * job.grain;
    job.fn(job.ctx, i0, std::min(job.end, i0 + job.grain), lane);
  }
  --tl_depth;
  return ran;
}

TaskPool::ParallelJob* TaskPool::claim_slot() {
  for (auto& job : jobs_) {
    std::uint32_t expect = kFree;
    if (job.state.load(std::memory_order_relaxed) == kFree &&
        job.state.compare_exchange_strong(expect, kOwned,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      return &job;
    }
  }
  return nullptr;
}

bool TaskPool::join_active_jobs(std::size_t lane) {
  bool ran = false;
  for (ParallelJob& job : jobs_) {
    if (job.state.load(std::memory_order_relaxed) != kActive) continue;
    // Count in, then re-check: either the caller's close is seen here and
    // we back out, or our count is seen by the caller, which waits for it.
    // The re-check's acquire also publishes the job fields — of whichever
    // job now holds the slot.
    job.inside.fetch_add(1, std::memory_order_seq_cst);
    if (job.state.load(std::memory_order_seq_cst) == kActive) {
      const std::size_t first = job.next.fetch_add(1, std::memory_order_relaxed);
      ran = drain(job, first, lane) > 0 || ran;
    }
    if (job.inside.fetch_sub(1, std::memory_order_release) == 1) {
      job.inside.notify_all();
    }
  }
  return ran;
}

void TaskPool::unpark(std::size_t count) {
  {
    // The epoch bump must happen under the mutex so a worker between its
    // last failed job scan and its cv wait cannot miss the wakeup.
    std::lock_guard<std::mutex> lk(park_mutex_);
    park_epoch_.fetch_add(1, std::memory_order_release);
  }
  if (count + 1 >= lanes_) {
    park_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < count; ++i) park_cv_.notify_one();
  }
}

void TaskPool::worker_main(std::size_t lane) {
  tl_pool_override = this;
  tl_lane = lane;
  for (;;) {
    // Epoch is read BEFORE the job scan: a job published after the scan
    // missed it has bumped the epoch, so the park predicate is true.
    const std::uint64_t epoch = park_epoch_.load(std::memory_order_acquire);
    if (join_active_jobs(lane)) continue;  // Rescan after real work.
    std::unique_lock<std::mutex> lk(park_mutex_);
    park_cv_.wait(lk, [&] {
      return park_epoch_.load(std::memory_order_relaxed) != epoch ||
             quit_.load(std::memory_order_relaxed);
    });
    if (quit_.load(std::memory_order_relaxed)) return;
  }
}

TaskPool& global_pool() {
  static TaskPool pool(resolve_global_width());
  return pool;
}

TaskPool& current() {
  return tl_pool_override != nullptr ? *tl_pool_override : global_pool();
}

std::size_t width() { return current().lanes(); }

ScopedPool::ScopedPool(std::size_t lanes)
    : pool_(std::make_unique<TaskPool>(lanes)), previous_(tl_pool_override) {
  tl_pool_override = pool_.get();
}

ScopedPool::~ScopedPool() {
  tl_pool_override = previous_;
  pool_.reset();
}

}  // namespace xl::exec
