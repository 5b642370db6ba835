// Tests for the trace-driven kernel cost model: the component behind
// the paper's Section 5.1 cycle counts.
#include <gtest/gtest.h>

#include "core/kernel_timing.h"

namespace cellsweep::core {
namespace {

class KernelTimingTest : public ::testing::Test {
 protected:
  cell::CellSpec spec_;
  KernelCostModel model_{spec_};
};

TEST_F(KernelTimingTest, SimdTraceHasExpectedComposition) {
  spu::Trace trace;
  model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false, &trace);
  EXPECT_GT(trace.count(spu::Op::kFmaDouble), 0u);
  EXPECT_GT(trace.count(spu::Op::kLoad), 0u);
  EXPECT_GT(trace.count(spu::Op::kStore), 0u);
  EXPECT_GT(trace.count(spu::Op::kShuffle), 0u);
  EXPECT_EQ(trace.count(spu::Op::kFmaSingle), 0u);  // DP chunk
  EXPECT_GT(trace.flops, 0u);
}

TEST_F(KernelTimingTest, Section51CycleShape) {
  // Paper: the DP kernel executes 216 flops in 590 cycles per
  // four-cell step with fixups off, 1690 with fixups on, and roughly
  // 5% of cycles dual-issue. Our trace-driven reproduction must land
  // in the same regime (documented in EXPERIMENTS.md).
  const auto off =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const double cyc_per_step = static_cast<double>(off.cycles) / 50.0;
  const double flops_per_step = static_cast<double>(off.flops) / 50.0;
  EXPECT_GT(cyc_per_step, 400.0);
  EXPECT_LT(cyc_per_step, 800.0);
  EXPECT_GT(flops_per_step, 140.0);
  EXPECT_LT(flops_per_step, 260.0);

  const auto on =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, true);
  const double on_per_step = static_cast<double>(on.cycles) / 50.0;
  EXPECT_GT(on_per_step, 2.0 * cyc_per_step);   // fixups are expensive
  EXPECT_LT(on_per_step, 4.0 * cyc_per_step);
}

TEST_F(KernelTimingTest, DpEfficiencyNearPaper) {
  // 64% of the DP peak (4 flops / 7 cycles) with fixups off.
  const auto off =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const double peak = 4.0 / 7.0;
  const double eff = off.flops_per_cycle() / peak;
  EXPECT_GT(eff, 0.40);
  EXPECT_LT(eff, 0.80);
}

TEST_F(KernelTimingTest, SinglePrecisionMuchFaster) {
  const auto dp =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const auto sp =
      model_.schedule_simd_chunk(Precision::kSingle, 4, 50, 6, false);
  EXPECT_LT(sp.cycles * 3, dp.cycles);  // SP is fully pipelined
}

TEST_F(KernelTimingTest, ScalarSlowerThanSimd) {
  const auto simd =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const auto scalar = model_.schedule_scalar_chunk(Precision::kDouble, 4, 50,
                                                   6, false, true);
  EXPECT_GT(scalar.cycles, 2 * simd.cycles);
}

TEST_F(KernelTimingTest, GotoEliminationHelpsScalar) {
  const auto with_gotos = model_.schedule_scalar_chunk(
      Precision::kDouble, 4, 50, 6, false, /*gotos_eliminated=*/false);
  const auto without = model_.schedule_scalar_chunk(
      Precision::kDouble, 4, 50, 6, false, /*gotos_eliminated=*/true);
  EXPECT_GT(with_gotos.cycles, without.cycles);
  // The difference is the branch-flush penalty: order 100 cycles/cell.
  const double per_cell =
      static_cast<double>(with_gotos.cycles - without.cycles) / 200.0;
  EXPECT_GT(per_cell, 50.0);
  EXPECT_LT(per_cell, 300.0);
}

TEST_F(KernelTimingTest, FullyPipelinedDpCutsCycles) {
  KernelCostModel fast(cell::fully_pipelined_dp_spec());
  const auto slow_r =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const auto fast_r =
      fast.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  EXPECT_LT(fast_r.cycles, slow_r.cycles * 0.7);
}

TEST_F(KernelTimingTest, CostCacheConsistent) {
  const ChunkCost& a = model_.chunk_cost(KernelKind::kSimd,
                                         Precision::kDouble, 4, 50, 6, false,
                                         true);
  const ChunkCost& b = model_.chunk_cost(KernelKind::kSimd,
                                         Precision::kDouble, 4, 50, 6, false,
                                         true);
  EXPECT_EQ(&a, &b);  // cached entry reused
  EXPECT_GT(a.cycles, 0.0);
  EXPECT_GT(a.flops, 0u);
}

TEST_F(KernelTimingTest, CyclesScaleWithLines) {
  const ChunkCost& one = model_.chunk_cost(
      KernelKind::kSimd, Precision::kDouble, 1, 50, 6, false, true);
  const ChunkCost& four = model_.chunk_cost(
      KernelKind::kSimd, Precision::kDouble, 4, 50, 6, false, true);
  // A one-line bundle still executes full-width vector ops (inactive
  // lanes carry dummies), so flops scale sublinearly with lines...
  EXPECT_GT(four.flops, one.flops);
  EXPECT_LE(four.flops, 4 * one.flops);
  // ...and four bundled lines cost far less than 4x one line (the whole
  // point of the logical-thread vectorization).
  EXPECT_LT(four.cycles, 3.0 * one.cycles);
}

TEST_F(KernelTimingTest, CyclesScaleWithLineLength) {
  const ChunkCost& short_line = model_.chunk_cost(
      KernelKind::kSimd, Precision::kDouble, 4, 10, 6, false, true);
  const ChunkCost& long_line = model_.chunk_cost(
      KernelKind::kSimd, Precision::kDouble, 4, 100, 6, false, true);
  EXPECT_NEAR(long_line.cycles / short_line.cycles, 10.0, 3.0);
}

TEST_F(KernelTimingTest, TraceIsDeterministic) {
  const spu::Trace a = record_simd_chunk_trace(Precision::kDouble, 4, 30, 6,
                                               false);
  const spu::Trace b = record_simd_chunk_trace(Precision::kDouble, 4, 30, 6,
                                               false);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.flops, b.flops);
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.insts[i].op, b.insts[i].op) << i;
}

TEST_F(KernelTimingTest, FixupTraceTriggersEveryCell) {
  // The synthetic fixup-recording data drives every cell down the
  // fixup path, giving the worst-case kernel the paper measured.
  const spu::Trace off = record_simd_chunk_trace(Precision::kDouble, 4, 20, 6,
                                                 false);
  const spu::Trace on = record_simd_chunk_trace(Precision::kDouble, 4, 20, 6,
                                                true);
  EXPECT_GT(on.size(), off.size());
  EXPECT_GT(on.count(spu::Op::kCmpDouble), 0u);
  EXPECT_EQ(off.count(spu::Op::kCmpDouble), 0u);
}

TEST_F(KernelTimingTest, ScalarTraceUsesQuadwordRmw) {
  // Scalar code on the SPU pays load+shuffle+store per scalar store.
  const spu::Trace t = record_scalar_chunk_trace(Precision::kDouble, 1, 10, 6,
                                                 false, true);
  EXPECT_GT(t.count(spu::Op::kShuffle), t.count(spu::Op::kStore));
  EXPECT_GT(t.count(spu::Op::kLoad), t.count(spu::Op::kStore));
}

}  // namespace
}  // namespace cellsweep::core
