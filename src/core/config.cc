#include "core/config.h"

#include <stdexcept>

namespace cellsweep::core {

namespace {

/// Every stage name: the 12 ladder slugs with their display names (one
/// row per stage, in ladder order), then the short CLI aliases.
struct StageRow {
  OptimizationStage stage;
  const char* slug;
  const char* display;
};
using OS = OptimizationStage;
constexpr StageRow kStages[] = {
    {OS::kPpeGcc, "ppe-gcc", "PPE (GCC)"},
    {OS::kPpeXlc, "ppe-xlc", "PPE (XLC)"},
    {OS::kSpeInitial, "spe-initial", "8 SPEs, initial port"},
    {OS::kSpeAligned, "spe-aligned", "+ gotos removed, 128B rows"},
    {OS::kSpeBuffered, "spe-buffered", "+ double buffering"},
    {OS::kSpeSimd, "spe-simd", "+ SIMD intrinsics"},
    {OS::kSpeDmaLists, "spe-dmalists", "+ DMA lists, bank offsets"},
    {OS::kSpeLsPoke, "spe-lspoke", "+ direct LS-poke sync"},
    {OS::kFutureBigDma, "future-bigdma", "[future] larger DMA granularity"},
    {OS::kFutureDistributed, "future-distributed",
     "[future] distributed dispatch"},
    {OS::kFuturePipelinedDp, "future-pipelineddp",
     "[future] fully pipelined DP"},
    {OS::kFutureSingle, "future-single", "[future] single precision"},
    {OS::kPpeXlc, "ppe", nullptr},
    {OS::kSpeInitial, "initial", nullptr},
    {OS::kSpeSimd, "simd", nullptr},
    {OS::kSpeLsPoke, "final", nullptr},
};

}  // namespace

const char* stage_name(OptimizationStage s) {
  for (const StageRow& row : kStages)
    if (row.stage == s) return row.display;
  return "?";
}

OptimizationStage parse_stage(const std::string& name) {
  std::string valid;
  for (const StageRow& row : kStages) {
    if (name == row.slug) return row.stage;
    valid += valid.empty() ? "" : ", ";
    valid += row.slug;
  }
  throw std::invalid_argument("unknown stage '" + name + "' (valid: " +
                              valid + ")");
}

CellSweepConfig CellSweepConfig::from_stage(OptimizationStage s) {
  CellSweepConfig c;
  // Start from the fully optimized shipped configuration (kSpeLsPoke)
  // and strip mechanisms for earlier stages / add projections for
  // later ones, mirroring the cumulative ladder of Figure 5.
  switch (s) {
    case OptimizationStage::kPpeGcc:
      c.use_spes = false;
      c.xlc = false;
      c.kernel = KernelKind::kScalar;
      break;
    case OptimizationStage::kPpeXlc:
      c.use_spes = false;
      c.kernel = KernelKind::kScalar;
      break;
    case OptimizationStage::kSpeInitial:
      c.kernel = KernelKind::kScalar;
      c.aligned_rows = false;
      c.gotos_eliminated = false;
      c.buffers = 1;
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeAligned:
      c.kernel = KernelKind::kScalar;
      c.buffers = 1;
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeBuffered:
      c.kernel = KernelKind::kScalar;
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeSimd:
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeDmaLists:
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeLsPoke:
      break;  // the shipped configuration
    case OptimizationStage::kFutureBigDma:
      c.dma_granularity = 4096;
      break;
    case OptimizationStage::kFutureDistributed:
      c.dma_granularity = 4096;
      c.sync = cell::SyncProtocol::kAtomicDistributed;
      // The distributed redesign is free of the PPE's per-angle-block
      // pipelining constraint, so it widens the diagonals to the full
      // angle set for better self-scheduled load balance.
      c.sweep.mmi = 6;
      break;
    case OptimizationStage::kFuturePipelinedDp:
      c.dma_granularity = 4096;
      c.sync = cell::SyncProtocol::kAtomicDistributed;
      c.sweep.mmi = 6;
      c.chip = cell::fully_pipelined_dp_spec();
      break;
    case OptimizationStage::kFutureSingle:
      c.dma_granularity = 4096;
      c.sync = cell::SyncProtocol::kAtomicDistributed;
      c.sweep.mmi = 6;
      c.precision = Precision::kSingle;
      break;
  }
  return c;
}

}  // namespace cellsweep::core
