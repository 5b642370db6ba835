// google-benchmark microbenchmarks of the host-side components: the
// Sn kernels (the per-line reference kernel, the host chunk kernel that
// runs every functional solve, and the emulated-SPU bundle kernel that
// records the timing model's instruction traces), the SPU pipeline
// scheduler, the MFC DMA path and the discrete resource models. These
// measure *this library's* throughput on the host, complementing the
// simulated-time benches that regenerate the paper's figures.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "cellsim/memory.h"
#include "cellsim/mfc.h"
#include "cellsim/observer.h"
#include "cellsim/spu_pipeline.h"
#include "core/kernel_timing.h"
#include "core/orchestrator.h"
#include "sweep/kernel.h"
#include "sweep/kernel_simd.h"
#include "sweep/plan.h"
#include "sweep/problem.h"
#include "sweep/sweeper.h"
#include "util/aligned.h"

namespace {

using namespace cellsweep;

template <typename Real>
struct BenchLines {
  explicit BenchLines(int it, int nm) : it_(it), nm_(nm) {
    const std::size_t pad = util::padded_extent<Real>(it);
    src.assign(static_cast<std::size_t>(nm) * pad, Real(1));
    sigt.assign(pad, Real(1));
    pn_src.assign(nm, Real(0.5));
    pn_acc.assign(nm, Real(0.05));
    for (int l = 0; l < sweep::kBundleLines; ++l) {
      flux[l].assign(static_cast<std::size_t>(nm) * pad, Real(0));
      phi_j[l].assign(pad, Real(0.1));
      phi_k[l].assign(pad, Real(0.1));
      phi_i[l] = Real(0.1);
    }
  }
  sweep::LineArgs<Real> args(int l) {
    sweep::LineArgs<Real> a;
    a.it = it_;
    a.dir = +1;
    a.sigt = sigt.data();
    a.src = src.data();
    a.flux = flux[l].data();
    a.mstride = static_cast<std::int64_t>(util::padded_extent<Real>(it_));
    a.pn_src = pn_src.data();
    a.pn_acc = pn_acc.data();
    a.nm = nm_;
    a.ci = a.cj = a.ck = Real(10);
    a.phi_j = phi_j[l].data();
    a.phi_k = phi_k[l].data();
    a.phi_i = &phi_i[l];
    return a;
  }
  int it_, nm_;
  util::AlignedVector<Real> src, sigt;
  std::vector<Real> pn_src, pn_acc;
  util::AlignedVector<Real> flux[sweep::kBundleLines],
      phi_j[sweep::kBundleLines], phi_k[sweep::kBundleLines];
  Real phi_i[sweep::kBundleLines];
};

void BM_ScalarKernelLine(benchmark::State& state) {
  BenchLines<double> data(static_cast<int>(state.range(0)),
                          sweep::kBenchmarkMoments);
  for (auto _ : state) {
    sweep::LineArgs<double> a = data.args(0);
    sweep::sweep_line_scalar(a, false, nullptr);
    benchmark::DoNotOptimize(data.phi_i[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScalarKernelLine)->Arg(50)->Arg(100);

// One 4-line chunk through the host chunk kernel; items are cells, so
// the rate compares directly with BM_ScalarKernelLine.
void BM_ChunkKernel(benchmark::State& state) {
  const int it = static_cast<int>(state.range(0));
  BenchLines<double> data(it, sweep::kBenchmarkMoments);
  sweep::BundleScratch<double> scratch(it);
  for (auto _ : state) {
    sweep::LineArgs<double> chunk[4] = {data.args(0), data.args(1),
                                        data.args(2), data.args(3)};
    sweep::sweep_chunk(chunk, 4, false, scratch, nullptr);
    benchmark::DoNotOptimize(data.phi_i[0]);
  }
  state.SetItemsProcessed(state.iterations() * 4 * it);
}
BENCHMARK(BM_ChunkKernel)->Arg(50)->Arg(100);

void BM_SimdBundleKernel(benchmark::State& state) {
  const int it = static_cast<int>(state.range(0));
  BenchLines<double> data(it, sweep::kBenchmarkMoments);
  sweep::BundleScratch<double> scratch(it);
  for (auto _ : state) {
    sweep::LineArgs<double> bundle[4] = {data.args(0), data.args(1),
                                         data.args(2), data.args(3)};
    sweep::sweep_bundle_simd(bundle, 4, false, scratch, nullptr);
    benchmark::DoNotOptimize(data.phi_i[0]);
  }
  state.SetItemsProcessed(state.iterations() * 4 * it);
}
BENCHMARK(BM_SimdBundleKernel)->Arg(50)->Arg(100);

void BM_SimdBundleKernelWithFixups(benchmark::State& state) {
  const int it = static_cast<int>(state.range(0));
  BenchLines<double> data(it, sweep::kBenchmarkMoments);
  sweep::BundleScratch<double> scratch(it);
  for (auto _ : state) {
    sweep::LineArgs<double> bundle[4] = {data.args(0), data.args(1),
                                         data.args(2), data.args(3)};
    sweep::sweep_bundle_simd(bundle, 4, true, scratch, nullptr);
    benchmark::DoNotOptimize(data.phi_i[0]);
  }
  state.SetItemsProcessed(state.iterations() * 4 * it);
}
BENCHMARK(BM_SimdBundleKernelWithFixups)->Arg(50);

void BM_FullSweepIteration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sweep::Problem p = sweep::Problem::benchmark_cube(n);
  sweep::SnQuadrature quad(6);
  sweep::SweepState<double> sweeper(p, quad, 2, sweep::kBenchmarkMoments);
  sweep::SweepConfig cfg;
  cfg.mk = n >= 10 ? 5 : 2;
  while (n % cfg.mk != 0) --cfg.mk;
  cfg.mmi = 3;
  for (auto _ : state) {
    sweeper.build_source();
    sweeper.sweep(cfg, false);
    benchmark::DoNotOptimize(sweeper.flux().moment_sum(0));
  }
  state.SetItemsProcessed(state.iterations() * p.grid().cells() * 48);
}
BENCHMARK(BM_FullSweepIteration)->Arg(10)->Arg(20);

void BM_PipelineScheduler(benchmark::State& state) {
  const spu::Trace trace = core::record_simd_chunk_trace(
      core::Precision::kDouble, 4, 50, sweep::kBenchmarkMoments, false);
  cell::SpuPipeline pipe{cell::CellSpec{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.schedule(trace).cycles);
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_PipelineScheduler);

void BM_TraceRecording(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::record_simd_chunk_trace(core::Precision::kDouble, 4, 50,
                                      sweep::kBenchmarkMoments, false)
            .size());
  }
}
BENCHMARK(BM_TraceRecording);

// One simulated DMA command through Mfc::submit (validation, queue,
// EIB and MIC pricing), reported as commands/s. Arg 0 is a 32-row
// DMA-list get, arg 1 a single per-row put: the two command shapes of
// the Fig. 5 stages.
void BM_MfcSubmit(benchmark::State& state) {
  const cell::CellSpec spec;
  cell::Eib eib(spec);
  cell::Mic mic(spec);
  cell::Mfc mfc(spec, &eib, &mic, "mfc0");
  cell::DmaRequest req;
  req.element_bytes = 400;  // one 50-cell row of doubles
  if (state.range(0) == 0) {
    req.total_bytes = 32 * req.element_bytes;
    state.SetLabel("list get");
  } else {
    req.dir = cell::DmaDir::kPut;
    req.total_bytes = req.element_bytes;
    req.as_list = false;
    req.alignment = 16;
    state.SetLabel("row put");
  }
  sim::Tick now = 0;
  for (auto _ : state) now = mfc.submit(now, req).issue_done;
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(static_cast<std::int64_t>(mfc.commands()));
}
BENCHMARK(BM_MfcSubmit)->Arg(0)->Arg(1);

void BM_TimedRun50Cubed(benchmark::State& state) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(50);
  const core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  for (auto _ : state) {
    core::CellSweep3D runner(p, cfg);
    benchmark::DoNotOptimize(runner.run(core::RunMode::kTraceDriven).seconds);
  }
}
BENCHMARK(BM_TimedRun50Cubed)->Unit(benchmark::kMillisecond);

// One 61-diagonal block of the 50^3 paper deck through the full
// timing model (dispatch grants, Mfc::submit, Mic::submit, the wave
// loop), reported as chunks/s. A bare observer keeps block replay off,
// so every iteration simulates; this is the cost a block pays the
// first time its key is seen.
void BM_TimingModelBlock(benchmark::State& state) {
  const sweep::Grid grid = sweep::Problem::benchmark_cube(50).grid();
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cell::MachineObserver bare;
  cfg.hazard = &bare;
  core::TimingEngine engine(cfg, grid, sweep::kBenchmarkMoments);
  const int diagonals =
      sweep::ChunkPlan::diagonals_per_block(cfg.sweep, grid.jt);
  std::int64_t chunks = 0;
  for (int d = 0; d < diagonals; ++d)
    chunks += core::chunks_for_lines(
        sweep::ChunkPlan::lines_on_diagonal(cfg.sweep, grid.jt, d));
  int kblock = 0;
  for (auto _ : state) {
    // Alternate K-blocks so that every pass opens a new block.
    kblock ^= 1;
    for (int d = 0; d < diagonals; ++d)
      engine.on_diagonal(sweep::DiagonalWork{
          1, 0, kblock, d,
          sweep::ChunkPlan::lines_on_diagonal(cfg.sweep, grid.jt, d), grid.it,
          false});
  }
  benchmark::DoNotOptimize(engine.horizon());
  state.SetItemsProcessed(state.iterations() * chunks);
  state.SetLabel(std::to_string(diagonals) + " diagonals, " +
                 std::to_string(chunks) + " chunks");
}
BENCHMARK(BM_TimingModelBlock)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
