// Convenience front door of xl::exec — see task_pool.hpp for the full
// executor contract (deterministic tile decomposition, lanes, parking).
#pragma once

#include <cstddef>
#include <type_traits>

#include "exec/task_pool.hpp"

namespace xl::exec {

/// parallel_for over the current() pool with an ordinary callable.
///
/// `body(i0, i1, lane)` is invoked once per canonical tile of
/// [begin, end) — the tile set is a pure function of (range, grain, pool
/// width), so per-index values are bit-identical under any thread count
/// and whichever lane claims each tile. `lane` < width() uniquely
/// identifies the executing hand within this call; index per-lane scratch
/// with it. Blocks until every tile ran (all tile writes happen-before the
/// return).
///
/// The callable stays on the caller's stack and travels as a raw
/// function pointer + context — no heap allocation on any path. It MUST
/// NOT throw: capture failures into shared state inside the body and
/// rethrow after the call returns (DseEngine shows the pattern).
template <typename Body>
inline void parallel_for(std::size_t begin, std::size_t end,
                         std::size_t grain, Body&& body) {
  using Fn = std::remove_reference_t<Body>;
  Fn& ref = body;
  current().parallel_for(
      begin, end, grain,
      [](void* ctx, std::size_t i0, std::size_t i1, std::size_t lane) {
        (*static_cast<Fn*>(ctx))(i0, i1, lane);
      },
      &ref);
}

}  // namespace xl::exec
