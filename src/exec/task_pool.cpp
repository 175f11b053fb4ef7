#include "exec/task_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace xl::exec {

namespace {

/// Innermost ScopedPool override for this thread; pool workers also point
/// this at their owning pool so code running on them routes nested work
/// back to the same pool.
thread_local TaskPool* tl_pool_override = nullptr;

/// Lane id the current thread executes tiles under. 0 outside any
/// parallel region (plain callers are lane 0 by definition).
thread_local std::size_t tl_lane = 0;

/// > 0 while executing inside a tile (or the caller's private share):
/// nested parallel_for calls run serial-inline under the enclosing lane.
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
  if (lanes_ > 1) {
    deques_.reserve(lanes_ - 1);
    for (std::size_t i = 0; i + 1 < lanes_; ++i) {
      deques_.push_back(std::make_unique<WorkDeque>(kDequeCapacity));
    }
    workers_.reserve(lanes_ - 1);
    for (std::size_t lane = 1; lane < lanes_; ++lane) {
      workers_.emplace_back(&TaskPool::worker_main, this, lane);
    }
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(park_mutex_);
    quit_.store(true, std::memory_order_release);
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
    const std::size_t target = lanes_ * 4;
    grain = (n + target - 1) / target;
    if (grain == 0) grain = 1;
  }
  std::size_t tiles = (n + grain - 1) / grain;
  while (tiles > kMaxTiles) {
    // Packed-ref budget: bump the grain (still a pure function of the
    // requested range/grain/width — no runtime state involved).
    grain *= 2;
    tiles = (n + grain - 1) / grain;
  }

  if (lanes_ == 1 || tiles == 1 || tl_depth > 0) {
    run_inline(begin, end, grain, tiles, fn, ctx);
    return;
  }
  ParallelJob* job = claim_slot();
  if (job == nullptr) {
    // All slots busy (pathological fan-out): same tiles, serial, no heap.
    run_inline(begin, end, grain, tiles, fn, ctx);
    return;
  }

  job->fn = fn;
  job->ctx = ctx;
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  // Caller keeps the leading ceil(tiles/lanes) share; the rest is
  // block-partitioned into one chunk per background worker.
  const std::size_t caller_share = (tiles + lanes_ - 1) / lanes_;
  const std::size_t worker_tiles = tiles - caller_share;
  const std::size_t nchunks = std::min(worker_tiles, lanes_ - 1);
  job->nchunks.store(static_cast<std::uint32_t>(nchunks),
                     std::memory_order_relaxed);
  job->remaining.store(tiles, std::memory_order_relaxed);
  std::size_t t = caller_share;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t count =
        worker_tiles / nchunks + (c < worker_tiles % nchunks ? 1 : 0);
    job->chunks[c].t0 = static_cast<std::uint32_t>(t);
    job->chunks[c].t1 = static_cast<std::uint32_t>(t + count);
    t += count;
  }
  // Publish: bounds and job fields are written above, so each chunk's
  // claimed release-store carries them to whichever worker wins the CAS.
  for (std::size_t c = 0; c < nchunks; ++c) {
    job->chunks[c].claimed.store(0, std::memory_order_release);
  }
  job->state.store(kActive, std::memory_order_release);
  if (nchunks > 0) unpark(nchunks);

  run_tiles(*job, 0, caller_share, /*lane=*/0);
  finish_tiles(*job, caller_share);

  for (;;) {
    const std::uint64_t r = job->remaining.load(std::memory_order_acquire);
    if (r == 0) break;
    job->remaining.wait(r, std::memory_order_acquire);
  }
  job->state.store(kFree, std::memory_order_release);
}

void TaskPool::run_inline(std::size_t begin, std::size_t end,
                          std::size_t grain, std::size_t tiles, TileFn fn,
                          void* ctx) {
  // Same canonical tile walk as the pool path, on the current thread
  // under its current lane (so nested calls index scratch race-free).
  const std::size_t lane = tl_lane;
  ++tl_depth;
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::size_t i0 = begin + tile * grain;
    const std::size_t i1 = std::min(end, i0 + grain);
    fn(ctx, i0, i1, lane);
  }
  --tl_depth;
}

void TaskPool::run_tiles(ParallelJob& job, std::size_t t0, std::size_t t1,
                         std::size_t lane) {
  const std::size_t saved_lane = tl_lane;
  tl_lane = lane;
  ++tl_depth;
  for (std::size_t tile = t0; tile < t1; ++tile) {
    const std::size_t i0 = job.begin + tile * job.grain;
    const std::size_t i1 = std::min(job.end, i0 + job.grain);
    job.fn(job.ctx, i0, i1, lane);
  }
  --tl_depth;
  tl_lane = saved_lane;
}

void TaskPool::run_ref(std::uint64_t ref, std::size_t lane) {
  const std::size_t slot = static_cast<std::size_t>(ref >> 48);
  std::size_t t0 = static_cast<std::size_t>((ref >> 24) & 0xFFFFFFu);
  std::size_t count = static_cast<std::size_t>(ref & 0xFFFFFFu);
  ParallelJob& job = jobs_[slot];
  // Lazy split: keep the front half hot, publish the back half on our
  // deque for thieves (or ourselves, LIFO, once the front is done).
  while (count > 1) {
    const std::size_t keep = (count + 1) / 2;
    if (!deques_[lane - 1]->push_bottom(
            pack_ref(slot, t0 + keep, count - keep))) {
      break;  // Ring full: run the whole range inline instead.
    }
    if (idle_.load(std::memory_order_relaxed) > 0) unpark(1);
    count = keep;
  }
  run_tiles(job, t0, t0 + count, lane);
  finish_tiles(job, count);
}

void TaskPool::finish_tiles(ParallelJob& job, std::uint64_t count) {
  if (count == 0) return;
  if (job.remaining.fetch_sub(count, std::memory_order_acq_rel) == count) {
    job.remaining.notify_all();
  }
}

TaskPool::ParallelJob* TaskPool::claim_slot() {
  for (auto& job : jobs_) {
    std::uint32_t expect = kFree;
    if (job.state.load(std::memory_order_relaxed) == kFree &&
        job.state.compare_exchange_strong(expect, kBuilding,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      return &job;
    }
  }
  return nullptr;
}

bool TaskPool::claim_chunk(std::size_t lane) {
  for (std::size_t s = 0; s < kJobSlots; ++s) {
    ParallelJob& job = jobs_[s];
    if (job.state.load(std::memory_order_acquire) != kActive) continue;
    // A stale kActive read racing a slot rebuild is harmless: bounds are
    // only trusted after winning a claimed CAS, whose acquire pairs with
    // the builder's release publication — a claim won against the *new*
    // job is simply valid work for it.
    const std::uint32_t n = job.nchunks.load(std::memory_order_acquire);
    for (std::uint32_t c = 0; c < n && c < kMaxLanes; ++c) {
      auto& chunk = job.chunks[c];
      if (chunk.claimed.load(std::memory_order_relaxed) != 0) continue;
      std::uint32_t expect = 0;
      if (chunk.claimed.compare_exchange_strong(expect, 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
        run_ref(pack_ref(s, chunk.t0, chunk.t1 - chunk.t0), lane);
        return true;
      }
    }
  }
  return false;
}

bool TaskPool::steal(std::size_t lane, std::uint64_t* ref) {
  const std::size_t n = deques_.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t victim = (lane - 1 + i) % n;
    if (deques_[victim]->steal_top(ref)) return true;
  }
  return false;
}

void TaskPool::unpark(std::size_t count) {
  {
    // The epoch bump must happen under the mutex so a worker between its
    // last failed work scan and its cv wait cannot miss the wakeup.
    std::lock_guard<std::mutex> lk(park_mutex_);
    park_epoch_.fetch_add(1, std::memory_order_relaxed);
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
  WorkDeque& own = *deques_[lane - 1];
  std::uint64_t ref = 0;
  for (;;) {
    // Epoch is read BEFORE the work scan: any job published after the
    // scan misses bumps it, so the parked predicate stays true.
    const std::uint64_t epoch = park_epoch_.load(std::memory_order_acquire);
    bool worked = false;
    while (own.pop_bottom(&ref)) {
      run_ref(ref, lane);
      worked = true;
    }
    if (claim_chunk(lane)) continue;
    if (steal(lane, &ref)) {
      run_ref(ref, lane);
      continue;
    }
    if (worked) continue;  // One more full scan after real work.
    if (quit_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lk(park_mutex_);
    if (park_epoch_.load(std::memory_order_relaxed) != epoch ||
        quit_.load(std::memory_order_relaxed)) {
      continue;
    }
    idle_.fetch_add(1, std::memory_order_relaxed);
    park_cv_.wait(lk, [&] {
      return park_epoch_.load(std::memory_order_relaxed) != epoch ||
             quit_.load(std::memory_order_relaxed);
    });
    idle_.fetch_sub(1, std::memory_order_relaxed);
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
