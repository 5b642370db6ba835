// Property tests for the shared chunk-plan layer: the plan must cover
// every I-line of every pipeline block exactly once, bundle lines into
// chunks of at most kBundleLines, propagate the execution flags, and
// agree with the trace-driven enumerator (the other historical source
// of this arithmetic).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/workload.h"
#include "sweep/kernel.h"
#include "sweep/plan.h"

namespace cellsweep::sweep {
namespace {

SweepConfig make_cfg(int mk, int mmi) {
  SweepConfig cfg;
  cfg.mk = mk;
  cfg.mmi = mmi;
  return cfg;
}

TEST(ChunkPlan, CoversEveryLineOfEveryBlockExactlyOnce) {
  for (auto [mk, mmi, jt] : {std::tuple{10, 3, 50}, {1, 1, 7}, {5, 6, 12},
                             {4, 2, 1}, {2, 3, 9}}) {
    const SweepConfig cfg = make_cfg(mk, mmi);
    std::set<std::tuple<int, int, int>> seen;
    const int ndiags = ChunkPlan::diagonals_per_block(cfg, jt);
    for (int d = 0; d < ndiags; ++d) {
      const ChunkPlan plan(cfg, jt, /*it=*/16, d, /*fixup=*/false);
      for (const LineCoord& lc : plan.lines()) {
        EXPECT_EQ(lc.mh + lc.kk + lc.jj, d);
        EXPECT_TRUE(lc.mh >= 0 && lc.mh < mmi);
        EXPECT_TRUE(lc.kk >= 0 && lc.kk < mk);
        EXPECT_TRUE(lc.jj >= 0 && lc.jj < jt);
        const bool fresh =
            seen.insert(std::tuple{lc.mh, lc.kk, lc.jj}).second;
        EXPECT_TRUE(fresh) << "line visited twice: mh=" << lc.mh
                           << " kk=" << lc.kk << " jj=" << lc.jj;
      }
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(mk) * mmi * jt)
        << "mk=" << mk << " mmi=" << mmi << " jt=" << jt;
    // Diagonals past the block's far corner must be empty, and the
    // last in-range diagonal non-empty.
    EXPECT_GT(ChunkPlan::lines_on_diagonal(cfg, jt, ndiags - 1), 0);
    EXPECT_EQ(ChunkPlan::lines_on_diagonal(cfg, jt, ndiags), 0);
  }
}

TEST(ChunkPlan, ChunksPartitionLinesWithBoundedWidth) {
  const SweepConfig cfg = make_cfg(10, 3);
  for (int d = 0; d < ChunkPlan::diagonals_per_block(cfg, 50); ++d) {
    const ChunkPlan plan(cfg, 50, 16, d, false);
    int next = 0;
    for (const ChunkDesc& ch : plan.chunks()) {
      EXPECT_EQ(ch.index, &ch - plan.chunks().data());
      EXPECT_EQ(ch.first_line, next);
      EXPECT_GE(ch.nlines, 1);
      EXPECT_LE(ch.nlines, kBundleLines);
      // Only the last chunk may be a partial bundle.
      if (ch.index + 1 < static_cast<int>(plan.chunks().size()))
        EXPECT_EQ(ch.nlines, kBundleLines);
      next += ch.nlines;
    }
    EXPECT_EQ(next, plan.nlines());
    EXPECT_EQ(static_cast<int>(plan.chunks().size()),
              ChunkPlan::chunk_count(plan.nlines()));
  }
}

TEST(ChunkPlan, StaticHelpersAgreeWithBuiltPlan) {
  const SweepConfig cfg = make_cfg(5, 6);
  for (int d = 0; d < ChunkPlan::diagonals_per_block(cfg, 12); ++d) {
    const ChunkPlan plan(cfg, 12, 20, d, true);
    EXPECT_EQ(plan.nlines(), ChunkPlan::lines_on_diagonal(cfg, 12, d));
    for (const ChunkDesc& ch : plan.chunks())
      EXPECT_EQ(ch.nlines, ChunkPlan::chunk_width(plan.nlines(), ch.index));
  }
  EXPECT_EQ(ChunkPlan::chunk_count(0), 0);
  EXPECT_EQ(ChunkPlan::chunk_count(1), 1);
  EXPECT_EQ(ChunkPlan::chunk_count(4), 1);
  EXPECT_EQ(ChunkPlan::chunk_count(5), 2);
  EXPECT_EQ(ChunkPlan::chunk_count(60), 15);
}

TEST(ChunkPlan, ExecutionFlagsPropagate) {
  const SweepConfig cfg = make_cfg(4, 2);
  const ChunkPlan plan(cfg, 9, 33, 3, /*fixup=*/true);
  EXPECT_EQ(plan.it(), 33);
  EXPECT_TRUE(plan.fixup());
  EXPECT_EQ(plan.diagonal(), 3);
}

TEST(ChunkPlan, DiagonalWorkRoundTrips) {
  const SweepConfig cfg = make_cfg(4, 3);
  const int jt = 9;
  for (int d = 0; d < ChunkPlan::diagonals_per_block(cfg, jt); ++d) {
    const int nlines = ChunkPlan::lines_on_diagonal(cfg, jt, d);
    if (nlines == 0) continue;
    const DiagonalWork w{/*octant=*/2, /*ablock=*/1, /*kblock=*/0, d,
                         nlines, /*it=*/25, /*fixup=*/true};
    const ChunkPlan plan(cfg, jt, w);
    EXPECT_EQ(plan.nlines(), w.nlines);
    EXPECT_EQ(plan.it(), w.it);
    EXPECT_TRUE(plan.fixup());
  }
}

TEST(ChunkPlan, RejectsDriftedDiagonalWork) {
  const SweepConfig cfg = make_cfg(4, 3);
  DiagonalWork w{0, 0, 0, /*diagonal=*/2, /*nlines=*/99, 25, false};
  EXPECT_THROW(ChunkPlan(cfg, 9, w), std::logic_error);
}

TEST(ChunkPlan, AgreesWithTraceDrivenEnumerator) {
  // The enumerator (workload.cc) and the plan layer must report the
  // same line count for every emitted diagonal -- the agreement that
  // makes on_diagonal's drift check a no-op in correct runs.
  const Grid g = Grid::cube(12);
  const SweepConfig cfg = make_cfg(6, 2);
  core::enumerate_sweep(g, 6, cfg, false, [&](const DiagonalWork& w) {
    EXPECT_EQ(w.nlines, ChunkPlan::lines_on_diagonal(cfg, g.jt, w.diagonal));
    EXPECT_NO_THROW(ChunkPlan(cfg, g.jt, w));
  });
}

}  // namespace
}  // namespace cellsweep::sweep
