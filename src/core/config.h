// Configuration of the Cell port: one switch per mechanism the paper's
// optimization ladder (Figure 5) flips, plus the prospective Figure 10
// variants. Each OptimizationStage maps to a concrete CellSweepConfig;
// the simulated execution times of the ladder *emerge* from these
// mechanism switches, they are never looked up.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "cellsim/spec.h"
#include "cellsim/sync.h"
#include "sim/fault.h"
#include "sweep/sweeper.h"

namespace cellsweep::sim {
class TimeSlicedProfiler;
class TraceSink;
}

namespace cellsweep::cell {
class MachineObserver;
}

namespace cellsweep::core {

class KernelCostModel;
class SpeAllocator;

/// Which chunk kernel the timing model prices. The physics always runs
/// the host chunk kernel sweep_chunk (bit-identical to the scalar line
/// kernel); only the simulated SPU time depends on this choice.
enum class KernelKind : std::uint8_t {
  kScalar,  ///< Figure 8 scalar code (PPE / pre-SIMD SPE path)
  kSimd,    ///< Figure 7 four-logical-thread SIMD bundles
};

/// Numeric precision of the kernels and DMA payloads.
enum class Precision : std::uint8_t { kDouble, kSingle };

/// The cumulative optimization stages of Figure 5 (paper Section 5),
/// plus the Figure 10 projections.
enum class OptimizationStage : std::uint8_t {
  kPpeGcc,        ///< unmodified port on the PPE, GCC (22.3 s)
  kPpeXlc,        ///< PPE only, IBM XLC (19.9 s)
  kSpeInitial,    ///< 8 SPE threads, scalar kernel (3.55 s)
  kSpeAligned,    ///< + goto elimination, 128-B row alignment (3.03 s)
  kSpeBuffered,   ///< + double buffering (2.88 s)
  kSpeSimd,       ///< + SIMD intrinsics (1.68 s)
  kSpeDmaLists,   ///< + DMA lists, memory-bank offsets (1.48 s)
  kSpeLsPoke,     ///< + direct-LS-poke sync protocol (1.33 s)
  // --- Figure 10 projections on top of kSpeLsPoke -----------------------
  kFutureBigDma,      ///< larger DMA granularity (1.2 s)
  kFutureDistributed, ///< distributed task dispatch across SPEs (0.9 s)
  kFuturePipelinedDp, ///< fully pipelined DP unit (0.85 s)
  kFutureSingle,      ///< single-precision arithmetic (0.45 s)
};

const char* stage_name(OptimizationStage s);

/// Bytes of one real of @p p in the kernels and DMA payloads.
constexpr std::size_t bytes_per_real(Precision p) noexcept {
  return p == Precision::kDouble ? 8 : 4;
}

/// The OptimizationStage of a name: one of the 12 ladder slugs
/// (ppe-gcc, ppe-xlc, spe-initial, spe-aligned, spe-buffered, spe-simd,
/// spe-dmalists, spe-lspoke, future-bigdma, future-distributed,
/// future-pipelineddp, future-single) or a short CLI alias (ppe,
/// initial, simd, final). Throws std::invalid_argument naming every
/// valid name when @p name is none of them.
OptimizationStage parse_stage(const std::string& name);

/// The workload-agnostic machine switches of one streaming run: what
/// core::StreamingPipeline reads. Every workload client (Sweep3D, the
/// even/odd stencil) runs under a CellSweepConfig, which extends this
/// with the sweep-side switches.
struct StreamConfig {
  /// 1 = synchronous staging, 2 = double buffering (clamped to >= 1).
  int buffers = 2;
  /// Batch each chunk's transfers into MFC DMA-list commands instead of
  /// individual per-row DMAs.
  bool dma_lists = true;
  /// Offset array allocations to spread rows over all 16 memory banks.
  bool bank_offsets = true;
  /// 128-byte alignment of every DMA'd row (Section 5 step 3 plus the
  /// "rows of the multi-dimensional arrays are 128-byte aligned" fix).
  bool aligned_rows = true;
  /// Bytes per DMA(-list element); the shipped implementation moved
  /// 512-byte rows, Figure 10's first projection raises this.
  std::size_t dma_granularity = 512;
  cell::SyncProtocol sync = cell::SyncProtocol::kLsPoke;
  /// Cell revision (fully pipelined DP for kFuturePipelinedDp).
  cell::CellSpec chip{};
  /// Observability hook (non-owning, may be null): the timing engine
  /// emits simulated-time spans -- kernels, DMA phases, sync waits,
  /// dispatch -- into this sink. Pure observation: enabling it changes
  /// no simulated tick (pinned by a test).
  sim::TraceSink* trace_sink = nullptr;
  /// Time-sliced profiler hook (non-owning, may be null): when set, the
  /// engine routes its trace stream through this profiler (which
  /// forwards to trace_sink, so both may be attached) and copies the
  /// resulting utilization-over-time series into RunReport.timeseries.
  /// Same contract as trace_sink: pure observation, bit-identical
  /// timing with or without it (pinned by a test). One profiler serves
  /// one run.
  sim::TimeSlicedProfiler* profiler = nullptr;
  /// Protocol observability hook (non-owning, may be null): the timing
  /// engine narrates machine-model actions -- LS allocations, DMA
  /// submissions with region and tag group, tag waits, kernel buffer
  /// accesses, dispatch grants/reports -- into this observer. Same
  /// contract as trace_sink: pure observation, no simulated tick ever
  /// depends on it (pinned by a test). The hazard checker
  /// (src/analysis) attaches here; setting CELLSWEEP_HAZARD_CHECK in
  /// the environment attaches an engine-owned checker that turns
  /// violations into hard errors at finish().
  cell::MachineObserver* hazard = nullptr;
  /// Fault injection (default: nothing can break). When any mechanism
  /// is armed the timing engine builds a sim::FaultPlan from this spec,
  /// attaches it to the MFCs, MIC and dispatch fabric, and degrades
  /// gracefully around disabled or failing SPEs. With faults.any()
  /// false every fault path is skipped and runs stay bit-identical to
  /// the fault-free build (pinned by tests and the perf baselines).
  sim::FaultSpec faults;
  /// Multi-tenant SPE partitioning (non-owning, may be null). When set,
  /// the pipeline claims SPEs from this shared allocator instead of
  /// owning all chip.num_spes: it claims up to the chip width at
  /// construction, re-balances at batch boundaries (shrinking toward
  /// the fair share under pressure, regrowing when slack returns) and
  /// releases everything at finish(). Null keeps the single-tenant
  /// behavior byte-identical to the pre-allocator build (pinned by the
  /// perf baselines).
  SpeAllocator* spe_allocator = nullptr;
  /// Fewest SPEs this run may be squeezed to under pressure (>= 1).
  int min_spes = 1;
  /// QoS weight of this run's SPE claim (>= 1; see
  /// SpeAllocator::claim). Runs of equal weight split the chip evenly;
  /// a weight-w tenant's fair share scales with w. Affects nothing
  /// without spe_allocator.
  int claim_weight = 1;
  /// Hard cap on the SPEs this run may ever hold (0 = uncapped).
  int claim_quota = 0;
  /// Cooperative cancellation flag (non-owning, may be null). Polled
  /// between waves -- chunk granularity, never mid-wave -- and when it
  /// reads true run_batch throws core::RunCancelled. Observation only
  /// until it fires: a never-set flag changes no simulated tick.
  const std::atomic<bool>* cancel = nullptr;
};

/// Mechanism switches of one configuration: the streaming machine
/// switches plus the sweep-side ones.
struct CellSweepConfig : StreamConfig {
  bool use_spes = true;  ///< false: the computation stays on the PPE
  bool xlc = true;       ///< PPE compiler quality (stage 0 vs 1)
  KernelKind kernel = KernelKind::kSimd;
  /// Inner-loop gotos eliminated (unhinted branches removed).
  bool gotos_eliminated = true;
  Precision precision = Precision::kDouble;

  /// Blocking parameters forwarded to the sweep driver.
  sweep::SweepConfig sweep;

  /// Plan-cache hints (non-owning, may be null): pure functions of the
  /// deck that the solve server memoizes across jobs. When set they
  /// must describe *this* deck and chip -- the cache key (workload
  /// kind, stage, deck bytes) guarantees it.
  ///   * quadrature: a prebuilt SnQuadrature of the deck's sn order;
  ///     CellSweep3D uses it instead of rebuilding the tables per run.
  ///   * warm_kernels: a KernelCostModel whose chunk-cost cache was
  ///     already calibrated (SPU trace recording is the expensive
  ///     part); the timing engine copies it instead of starting cold.
  /// Cold and warm runs produce byte-identical reports -- the cached
  /// values are deterministic functions of the deck (pinned by tests).
  const sweep::SnQuadrature* quadrature = nullptr;
  const KernelCostModel* warm_kernels = nullptr;

  /// The Figure 5 / Figure 10 ladder.
  static CellSweepConfig from_stage(OptimizationStage s);
};

}  // namespace cellsweep::core
