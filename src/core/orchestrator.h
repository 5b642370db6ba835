// CellSweep3D: the paper's five-level parallelization, orchestrated
// over the machine model.
//
// Level 1 (process) stays with src/sweep/mpi_sweeper. Levels 2-5 live
// here: the jkm-diagonal I-lines are farmed to the eight SPEs in
// chunks of four (thread level), using the same ChunkPlan decomposition
// (sweep/plan.h) the functional sweeper executes; each chunk's working
// set streams
// through the local store with single or double buffering (data
// streaming); the chunk kernel is priced as the scalar or the
// four-logical-thread SIMD one (vector + pipeline levels), per
// CellSweepConfig::kernel. The TimingEngine walks the same
// DiagonalWork stream the functional sweeper emits and translates each
// diagonal into one core::StreamingPipeline batch: the pipeline owns
// the machine model's clocks -- dispatch-fabric grants, MFC DMA
// gets/puts (individual commands or DMA lists), SPU compute, the wave
// arithmetic and double-buffer rotation -- while this engine supplies
// the Sweep3D specifics: the ChunkPlan decomposition, the per-chunk
// DMA transfer plans and trace-scheduled kernel costs, the per-line
// wavefront dependency policy, the (octant, angle-block, K-block)
// block barriers, and the per-iteration source rebuild pass.
//
// Two run modes produce identical timing (a test asserts it):
//   * kFunctional  -- the physics really runs, always on the host chunk
//     kernel sweep_chunk (bit-identical to the scalar line kernel, so
//     the kernel kind changes only the simulated time); the observer
//     feeds the engine (execution-driven). Use for correctness and
//     examples.
//   * kTraceDriven -- only the loop structure is replayed (fast; the
//     benches use it for big sweeps).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cellsim/cell_processor.h"
#include "core/config.h"
#include "core/kernel_timing.h"
#include "core/report.h"
#include "core/streaming_pipeline.h"
#include "core/workload.h"
#include "sim/trace.h"
#include "sweep/sweeper.h"

namespace cellsweep::core {

/// Local-store placement of the sweep: 4 KB of resident per-angle
/// constants plus staging buffers sized for the largest chunk's working
/// set. The runner, lint_deck and server admission all use it.
LsPlacement sweep_placement(const CellSweepConfig& cfg,
                            const sweep::Grid& grid, int nm);

/// Timing engine: consumes DiagonalWork events in sweep order and
/// re-hosts them on the workload-agnostic StreamingPipeline.
class TimingEngine {
 public:
  TimingEngine(const CellSweepConfig& cfg, const sweep::Grid& grid, int nm);
  ~TimingEngine();

  /// Feed one diagonal of independent I-lines.
  void on_diagonal(const sweep::DiagonalWork& w);

  /// Drains outstanding work and the final iteration's source pass;
  /// returns the completed report (timing fields only). Under
  /// CELLSWEEP_HAZARD_CHECK (and only with the pipeline-owned checker)
  /// throws analysis::HazardError when protocol violations were found.
  RunReport finish() { return pipeline_.finish(); }

  /// Current completion horizon; monotone across diagonals.
  sim::Tick horizon() const noexcept { return pipeline_.horizon(); }

  /// External gate: no work fed after this call may start before
  /// @p at. Models a blocking boundary receive (the RECV of Figure 2)
  /// when this chip is one rank of a process-level decomposition.
  void gate(sim::Tick at) { pipeline_.gate(at); }

 private:
  CellSweepConfig cfg_;
  sweep::Grid grid_;
  int nm_;
  KernelCostModel kernels_;
  StreamingPipeline pipeline_;
  long long current_block_key_ = -1;
};

/// End-to-end runner for one problem + configuration.
class CellSweep3D {
 public:
  /// Defaults reproduce the paper's deck: S6 quadrature, P2 scattering
  /// truncated to sweep::kBenchmarkMoments flux moments.
  CellSweep3D(const sweep::Problem& problem, const CellSweepConfig& cfg,
              int sn_order = 6, int l_max = 2,
              int nm_cap = sweep::kBenchmarkMoments);

  /// Runs the configured stage and returns the report. kFunctional
  /// additionally solves the physics and fills the solve fields.
  RunReport run(RunMode mode = RunMode::kTraceDriven);

 private:
  RunReport run_on_ppe(RunMode mode);
  RunReport run_on_spes(RunMode mode);

  /// The quadrature for this run: cfg_.quadrature when the hint is
  /// present and of the right order, else one built into @p own.
  const sweep::SnQuadrature& quadrature(
      std::optional<sweep::SnQuadrature>& own) const;

  template <typename Real>
  void run_functional(RunReport& report, const sweep::DiagonalObserver& obs);

  const sweep::Problem* problem_;
  CellSweepConfig cfg_;
  int sn_order_;
  int l_max_;
  int nm_ = 0;
  int nm_cap_ = 0;
};

}  // namespace cellsweep::core
