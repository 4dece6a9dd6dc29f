#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

/// \file parallel.hpp
/// Deterministic data parallelism for the embarrassingly parallel layers
/// (per-source SSSP, labeling verification, the serve loop's worker roles).
///
/// The design constraint is the determinism contract (docs/performance.md):
/// every result -- labels, defects, audit messages, report JSON modulo wall
/// times -- must be **bit-identical across thread counts**.  The primitives
/// here make that easy to honour:
///
///  - `static_chunks` splits an index range into contiguous chunks whose
///    boundaries depend only on the range and the chunk count, never on
///    scheduling;
///  - `parallel_for` runs one body per chunk (any thread may execute any
///    chunk) and callers write per-chunk results into pre-sized slots keyed
///    by `ChunkRange::index`, then reduce them *in chunk order* on the
///    calling thread;
///  - per-item work must not depend on chunk boundaries, so the chunk-order
///    reduction equals the sequential left-to-right reduction and the chunk
///    count (= thread count) drops out of the result.
///
/// Thread count resolution: an explicit request wins; 0 defers to the
/// `HUBLAB_THREADS` environment variable; absent/unparsable falls back
/// to 1, so all existing single-threaded callers are unchanged.  Workers
/// live in a lazily grown process-global pool (threads are recycled, not
/// respawned per loop); the calling thread participates, so `threads = 4`
/// means 3 pool workers plus the caller.  Nested `parallel_for` calls run
/// their body inline on the calling thread -- no deadlocks, same results.
///
/// This file is the only sanctioned owner of raw threading primitives in
/// src/ (hublab_lint's raw-thread rule): everything else expresses
/// parallelism through `parallel_for`.

namespace hublab::par {

/// One contiguous slice of an index range, plus its position in the chunk
/// sequence (the reduction key).
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;    ///< exclusive
  std::size_t index = 0;  ///< 0-based chunk position; reduce in this order
};

/// Split [begin, end) into at most `chunks` contiguous ranges of nearly
/// equal size (sizes differ by at most one, larger chunks first).  Empty
/// ranges are never emitted, so the result holds min(chunks, end - begin)
/// entries; an empty input range yields no chunks.
[[nodiscard]] std::vector<ChunkRange> static_chunks(std::size_t begin, std::size_t end,
                                                    std::size_t chunks);

/// Resolve a requested thread count: `requested` > 0 wins, otherwise the
/// HUBLAB_THREADS environment variable, otherwise 1.  The result is clamped
/// to [1, kMaxThreads].
[[nodiscard]] std::size_t resolve_threads(std::size_t requested = 0);

/// Threads the hardware supports (>= 1; hardware_concurrency with a sane
/// fallback).  Advisory only -- nothing here defaults to it, because the
/// default must stay reproducible across machines.
[[nodiscard]] std::size_t hardware_threads();

/// Upper bound on resolve_threads results; guards against absurd
/// HUBLAB_THREADS values.
inline constexpr std::size_t kMaxThreads = 256;

/// True while the current thread executes a parallel_for body; used to run
/// nested parallel loops inline.
[[nodiscard]] bool in_parallel_region();

/// Give up the calling thread's timeslice (std::this_thread::yield).  This
/// lives here because parallel.cpp is the one sanctioned owner of raw
/// threading primitives in src/; the query server's open-loop pacing
/// (a worker with nothing queued and nothing due) spins through it instead
/// of calling the standard library directly.
void yield();

/// Stable executor index of the calling thread: 0 for every non-pool
/// thread (including the caller participating in a parallel loop),
/// 1..kMaxThreads-1 for pool workers, assigned once at spawn and fixed for
/// the thread's lifetime.  Observability only — Chrome-trace tids, the
/// flight recorder and per-worker utilization key on it; results must
/// never depend on which worker ran a chunk.
[[nodiscard]] std::size_t worker_index();

/// Run `body(chunk)` for every chunk of [begin, end) split `threads` ways.
/// Blocks until every chunk completed.  With threads <= 1, a single chunk,
/// or when called from inside another parallel_for body, everything runs
/// inline on the calling thread.  If bodies throw, the exception of the
/// lowest-indexed failing chunk is rethrown after all chunks finished
/// (deterministic across schedules).
void parallel_for(std::size_t begin, std::size_t end, std::size_t threads,
                  const std::function<void(const ChunkRange&)>& body);

/// As parallel_for, but over a caller-supplied chunk list (callers that
/// need to pre-size per-chunk result slots build the list via
/// static_chunks, size their slots, then hand it over).  `threads` bounds
/// the number of concurrent executors; chunk results must still be reduced
/// by `ChunkRange::index`.
void run_chunks(const std::vector<ChunkRange>& chunks, std::size_t threads,
                const std::function<void(const ChunkRange&)>& body);

}  // namespace hublab::par
