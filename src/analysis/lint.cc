#include "analysis/lint.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cellsim/local_store.h"
#include "cellsim/mfc.h"
#include "core/orchestrator.h"
#include "core/streaming_pipeline.h"
#include "sweep/quadrature.h"
#include "workloads/stencil/stencil.h"

namespace cellsweep::analysis {

namespace {

/// The workload-independent machine checks, shared by lint_deck and
/// lint_stencil: the runner's LS @p placement on a fresh local store
/// under the configured buffer count, the MFC tag budget of the buffer
/// rotation, and the DMA legality of the commands the
/// StreamingPipeline submits for one chunk of @p plan.
void lint_machine(Diagnostics& diags, const core::CellSweepConfig& cfg,
                  const core::LsPlacement& placement,
                  const core::TransferPlan& plan,
                  const std::string& ls_where) {
  const int buffers = std::max(cfg.buffers, 1);
  cell::LocalStore ls(cfg.chip.local_store_bytes);
  try {
    placement.place(ls, buffers);
  } catch (const cell::LocalStoreOverflow& e) {
    diags.error("ls-budget", ls_where,
                std::to_string(buffers) + " staging buffer(s) of " +
                    std::to_string(placement.buffer_bytes) +
                    " bytes do not fit: " + e.what());
  }

  // The rules the pipeline refuses a run for up front: the MFC tag
  // budget of the buffer rotation and a whole-quadword DMA granularity
  // (core::stream_config_findings).
  for (const core::StreamConfigFinding& f : core::stream_config_findings(cfg))
    diags.error(f.rule, f.where, f.message);

  // DMA command legality, judged by the real MFC validator on the same
  // requests the streaming pipeline would submit for one chunk.
  cell::Eib eib(cfg.chip);
  cell::Mic mic(cfg.chip);
  cell::Mfc mfc(cfg.chip, &eib, &mic, "lint");
  for (const core::ChunkDma& dma : core::chunk_dmas(cfg, plan)) {
    try {
      mfc.validate(dma.req);
    } catch (const cell::DmaError& e) {
      diags.error("dma-shape", dma.name, e.what());
    }
  }
}

}  // namespace

Diagnostics lint_deck(const sweep::Deck& deck,
                      const core::CellSweepConfig& cfg) {
  Diagnostics diags;
  const sweep::Grid& grid = deck.problem.grid();

  if (grid.it < 1 || grid.jt < 1 || grid.kt < 1) {
    diags.error("grid", "it/jt/kt",
                "grid extents must be positive (got " +
                    std::to_string(grid.it) + " x " + std::to_string(grid.jt) +
                    " x " + std::to_string(grid.kt) + ")");
    return diags;  // nothing downstream is meaningful
  }

  // Quadrature: the LQn builder accepts the orders Sweep3D supports;
  // the blocking check needs its angle count.
  int mm = 0;
  try {
    mm = sweep::SnQuadrature(deck.sn_order).angles_per_octant();
  } catch (const std::exception& e) {
    diags.error("quadrature", "sn " + std::to_string(deck.sn_order),
                e.what());
  }

  // Blocking factors (MK | KT, MMI | angle count, iteration counts).
  if (mm > 0) {
    try {
      deck.sweep.validate(grid.kt, mm);
    } catch (const std::exception& e) {
      diags.error("blocking",
                  "mk " + std::to_string(deck.sweep.mk) + " / mmi " +
                      std::to_string(deck.sweep.mmi),
                  std::string(e.what()));
    }
  }

  // Moments: the count every runner carries, at the deck's one
  // scattering order (Deck::l_max).
  int nm = 0;
  try {
    nm = deck.moments();
  } catch (const std::exception& e) {
    diags.error("moments", "moments " + std::to_string(deck.nm_cap),
                e.what());
    return diags;
  }

  // Machine fit of the largest chunk: the placement the runner makes
  // -- the budget the paper's port had to respect by hand (Section 2:
  // 256 KB for code AND data) -- and the chunk's DMA commands.
  const core::LsPlacement placement = core::sweep_placement(cfg, grid, nm);
  const core::TransferPlan plan = core::plan_chunk(
      core::ChunkShape{sweep::kBundleLines, grid.it, nm,
                       core::bytes_per_real(cfg.precision), cfg.aligned_rows});
  lint_machine(diags, cfg, placement, plan, "it " + std::to_string(grid.it));

  return diags;
}

Diagnostics lint_stencil(const stencil::StencilSpec& spec,
                         const core::CellSweepConfig& cfg) {
  Diagnostics diags;

  // Grid / blocking consistency: the same ranges StencilSpec::validate
  // enforces at parse time, re-checked here so hand-built specs (and
  // lint tests) get findings instead of exceptions.
  try {
    spec.validate();
  } catch (const stencil::StencilError& e) {
    diags.error("spec", spec.origin, e.what());
    return diags;  // nothing downstream is meaningful
  }

  // Machine fit of one block's working set, judged on the exact
  // placement and transfer plan the stencil runner would stream.
  const core::TransferPlan plan = stencil::plan_block(
      spec, core::bytes_per_real(cfg.precision), cfg.aligned_rows);
  lint_machine(diags, cfg, stencil::placement(spec, cfg), plan,
               "bx " + std::to_string(spec.bx) + " by " +
                   std::to_string(spec.by) + " bz " +
                   std::to_string(spec.bz));
  return diags;
}

}  // namespace cellsweep::analysis
