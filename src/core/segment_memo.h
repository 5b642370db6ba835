// SegmentMemo: replays repeated pipeline blocks instead of simulating
// them again.
//
// The sweep streams the same blocks over and over: every iteration
// repeats the 8-octant schedule, and the (octant, angle-block, K-block)
// blocks of one iteration share their diagonal shapes. A *segment* is
// the run of pipeline operations from one new_block batch up to the
// next: the block's batches plus a trailing memory pass. The pipeline
// defers a segment here instead of simulating it, then keys it by
//   * its content: the operation sequence, every chunk spec interned
//     to a shape id, and
//   * the machine's canonical state relative to the segment's barrier
//     (the horizon at which the block opens; sim/state_visitor.h).
// A key seen before is replayed: the recorded end state is translated
// to the current barrier and the recorded counter deltas are added. A
// new key is simulated as before and recorded. Keys compare exactly,
// word by word; the hash only picks the bucket.
//
// The replay is exact: simulated times, counters, reports and metrics
// are bit-identical to simulating every segment, because the timing
// rules are translation-equivariant and every accumulator is an
// integer or a double sum of whole numbers below 2^53 (shapes with
// fractional kernel cycles and passes of fractional bytes are never
// deferred).
//
// The pipeline turns the memo off wherever a run must see each
// simulated event: a trace sink or profiler, a machine observer, a
// chunk hook, an armed fault plan, a shared SPE allocator or a cancel
// flag. Recorded state is capped at kBudgetWords; past the cap new
// segments are still simulated, just not recorded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/streaming_pipeline.h"

namespace cellsweep::core {

class SegmentMemo {
 public:
  /// Cap on the words (8 bytes each) of recorded keys, end states and
  /// segment contents.
  static constexpr std::size_t kBudgetWords = std::size_t{1} << 18;

  /// True while a segment is deferred.
  bool open() const noexcept { return !ops_.empty(); }

  /// Appends a batch to the open segment, or opens one with a
  /// new_block batch. Returns false, deferring nothing, when no segment
  /// is open and @p new_block is false, when @p deps is not a plain
  /// function, or when a chunk spec cannot be interned.
  bool defer_batch(const std::vector<StreamChunkSpec>& specs,
                   const DependencyPolicy& deps, bool new_block);
  /// Appends a memory pass to the open segment; false when none is open
  /// or @p bytes is not a whole number.
  bool defer_pass(const char* name, double bytes);

  /// Closes the open segment of @p pipeline, which opens at the
  /// pipeline's current horizon: replays it when its key was seen
  /// before, else simulates and records it.
  void flush(StreamingPipeline& pipeline);

  const SegmentMemoStats& stats() const noexcept { return stats_; }

 private:
  using DependencyFn = sim::Tick (*)(const UpstreamView&, int);
  struct WordsHash {
    std::size_t operator()(const std::vector<std::uint64_t>& w) const noexcept;
  };
  template <typename T>
  using WordMap = std::unordered_map<std::vector<std::uint64_t>, T, WordsHash>;

  /// Interned id of @p spec's shape (everything but its index), or -1.
  int intern(const StreamChunkSpec& spec);
  /// Runs @p ops through the pipeline's simulation.
  void simulate(StreamingPipeline& pipeline,
                const std::vector<std::uint64_t>& ops) const;

  std::vector<std::uint64_t> ops_;  ///< the open segment's operations
  std::vector<StreamChunkSpec> shapes_;
  int last_shape_ = -1;
  std::vector<DependencyFn> deps_;
  /// Segment content -> content id (the first word of its keys).
  WordMap<std::uint64_t> contents_;
  /// Key -> end record.
  WordMap<std::vector<std::uint64_t>> records_;
  std::size_t words_ = 0;
  SegmentMemoStats stats_;
};

}  // namespace cellsweep::core
