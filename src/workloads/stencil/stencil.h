// The even/odd red-black stencil workload: the second client of
// core::StreamingPipeline, modeled on the lattice-QCD-style Cell ports
// (arXiv:0710.2442) whose streaming shape -- block-partitioned grid,
// two-color half-sweeps, face exchanges between neighboring blocks --
// matches Sweep3D's discipline but none of its physics.
//
// The problem: a 7-point red-black Gauss-Seidel relaxation of the
// Poisson equation -6 u = h^2 f on a 3D grid with Dirichlet zero
// boundaries. One half-sweep updates every cell of one color (parity
// of i+j+k) in place from its six opposite-color neighbors:
//
//   u[c] = (sum of 6 neighbors + h^2 f[c]) / 6
//
// Same-color cells never read each other, so all blocks of one color
// phase are independent -- one StreamingPipeline batch -- while a block
// of the next phase depends on itself and its six face neighbors from
// the previous phase (the dependency policy). Unlike the sweep's
// wavefront blocks there are no hard barriers: the two phases of every
// iteration free-run through the pipeline on dependencies alone.
//
// Three layers:
//   * StencilState  -- functional host reference (double precision,
//     bitwise deterministic for any thread count: a color update reads
//     only the frozen opposite color).
//   * plan_block / placement / block_cost -- the workload policies:
//     the DMA transfer plan and local-store placement of one block and
//     the priced kernel of one block-color phase (used by the runner
//     AND the spec linter).
//   * CellStencil   -- the machine runner: feeds per-color batches of
//     StreamChunkSpecs to a StreamingPipeline under the standard
//     CellSweepConfig machine switches (sync protocol, buffers, DMA
//     lists, faults, observability).
#pragma once

#include <cstdint>
#include <vector>

#include "cellsim/spec.h"
#include "cellsim/spu_pipeline.h"
#include "core/config.h"
#include "core/report.h"
#include "core/streaming_pipeline.h"
#include "core/workload.h"
#include "workloads/stencil/spec.h"

namespace cellsweep::util {
class ThreadPool;
}

namespace cellsweep::stencil {

/// Functional reference solver (host, double precision).
class StencilState {
 public:
  explicit StencilState(const StencilSpec& spec);

  /// Runs spec.iterations full sweeps (red then black half-sweeps) on
  /// @p threads host threads. Bitwise deterministic for any count.
  void run(int threads = 1);
  /// Same, on an externally shared pool (the solve server's) instead of
  /// an owned one. Bitwise identical to run(pool.size()).
  void run(util::ThreadPool& pool);

  /// One half-sweep of @p color (0 = even parity of i+j+k, 1 = odd).
  void half_sweep(int color, util::ThreadPool& pool);

  /// Deterministic sum of the field in index order.
  double checksum() const;
  /// Max-norm residual |sum of neighbors + h^2 f - 6 u|.
  double residual() const;
  /// Cell updates performed so far.
  std::uint64_t updates() const noexcept { return updates_; }
  const std::vector<double>& field() const noexcept { return u_; }

 private:
  StencilSpec spec_;
  std::vector<double> u_;
  std::uint64_t updates_ = 0;
};

/// Cell updates of one color phase inside the block at block
/// coordinates (bi, bj, bk) -- the count of cells whose i+j+k parity
/// is @p color.
std::uint64_t block_color_updates(const StencilSpec& spec, int bi, int bj,
                                  int bk, int color);

/// DMA transfer plan of one block: u and f stream as i-pencil rows
/// (bulk; no inter-block dependency), the j/k neighbor faces as rows
/// and the i faces as packed scalars (face; produced by the previous
/// color phase), and the updated u block writes back.
core::TransferPlan plan_block(const StencilSpec& spec,
                              std::size_t real_bytes, bool aligned_rows);

/// Local-store placement of the stencil: 1 KB of resident kernel
/// constants plus the block staging buffers. The runner, lint_stencil
/// and server admission all use it.
core::LsPlacement placement(const StencilSpec& spec,
                            const core::CellSweepConfig& cfg);

/// Priced kernel of one block-color phase on the SPU pipeline model.
/// DP updates pay the partially pipelined DP issue block
/// (chip.dp_issue_block_cycles); SP is fully pipelined.
struct BlockCost {
  double cycles = 0;
  std::uint64_t updates = 0;
  std::uint64_t flops = 0;
  cell::PipelineStats stats;
};
BlockCost block_cost(const StencilSpec& spec, int bi, int bj, int bk,
                     int color, const cell::CellSpec& chip,
                     core::Precision precision);

/// Everything a stencil run reports: the machine-side RunReport (with
/// cell_solves = cell updates and grind = seconds per update) plus the
/// functional results (kFunctional mode only).
struct StencilReport {
  core::RunReport run;
  double checksum = 0;
  double residual = 0;
  std::uint64_t updates = 0;
};

/// Machine runner: streams the block batches of every (iteration,
/// color) phase through a core::StreamingPipeline.
class CellStencil {
 public:
  CellStencil(const StencilSpec& spec, const core::CellSweepConfig& cfg);

  /// kTraceDriven replays the loop structure only; kFunctional also
  /// solves the physics on @p threads host threads -- or on @p pool
  /// when one is injected (the solve server's shared pool; overrides
  /// threads). Identical timing either way: the machine feed does not
  /// depend on the mode, thread count or pool.
  StencilReport run(core::RunMode mode = core::RunMode::kTraceDriven,
                    int threads = 1, util::ThreadPool* pool = nullptr);

 private:
  StencilSpec spec_;
  core::CellSweepConfig cfg_;
};

}  // namespace cellsweep::stencil
