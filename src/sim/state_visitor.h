// State visitors: one walk over a model's mutable state, with every
// field tagged by the role it plays in the timing rules.
//
// Every timing rule of the machine model is built from max, min,
// comparisons and additions of durations that depend only on the
// request (bytes, cycles, protocol), never on the absolute time. A
// model state shifted by D ticks therefore evolves exactly like the
// unshifted one, shifted by D. Models hand their fields to a visitor
// in one `visit_state(V&)` member, so a client can canonicalise a
// state relative to a reference time, record what a stretch of
// simulation did to it, and re-apply that at another reference time
// (core::SegmentMemo does all three). The roles:
//
//   time             a tick compared and maxed exactly with other ticks
//   floor_time       a tick only ever read as max(request, it), with
//                    every request at or after the reference time:
//                    all values at or below it are interchangeable
//   times_or_unused  ticks where 0 means "never used" (acts as -inf)
//   time_multiset    times_or_unused of a slot pool read only through
//                    min, max and counts, never through an index
//   count(s)         integer accumulators (ticks or events), never read
//                    back into timing
//   sum              a double accumulator of whole numbers below 2^53
//   rotating_counts  two per-bank count arrays attributed from a cursor
//                    that only decides which bank counts what: moving
//                    the cursor rotates the increments
//   cursor           a small cyclic index that steers later decisions
//   phase            a count whose residue mod `period` steers later
//                    decisions (a buffer rotation)
//   block_time(s)    ticks that the next block's opening overwrites
//                    before any read: not part of the state's identity
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace cellsweep::sim {

template <typename V>
concept StateVisitor =
    requires(V& v, Tick& t, Tick* ts, std::uint64_t& c, std::uint64_t* cs,
             double& s, int& i, std::vector<Tick>& tv) {
      v.time(t);
      v.floor_time(t);
      v.times_or_unused(ts, 1);
      v.time_multiset(ts, 1);
      v.count(c);
      v.counts(cs, 1);
      v.sum(s);
      v.rotating_counts(i, 1, cs, cs);
      v.cursor(i);
      v.phase(c, std::uint64_t{1});
      v.block_time(t);
      v.block_times(tv);
    };

}  // namespace cellsweep::sim
