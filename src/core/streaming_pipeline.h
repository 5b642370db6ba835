// StreamingPipeline: the workload-agnostic Cell streaming discipline.
//
// The paper's central lesson is that the hard part of Cell programming
// is not the physics but the streaming discipline: budgeting the 256 KB
// local store, rotating chunks through double-buffered DMA waves, and
// ordering dispatch so the shared FIFO resources (PPE dispatcher, MIC,
// EIB) see near-monotone request streams. That discipline is identical
// across every related Cell port (Sweep3D, lattice QCD, biomolecular
// MD), so it lives here once, extracted from the Sweep3D orchestrator.
//
// The split of responsibilities:
//   * The pipeline owns the machine (cell::CellProcessor), the wave
//     arithmetic (spes x buffers chunks per wave), grant ordering,
//     put-tag gating, double-buffer rotation, stall accounting, fault
//     injection / SPE failover, observability (trace sink, profiler,
//     hazard observer) and the final RunReport assembly.
//   * A workload supplies, per batch of independent chunks: the chunk
//     list with each chunk's DMA transfer plan and kernel cost
//     (StreamChunkSpec -- the chunk provider + kernel functor), a
//     dependency policy mapping a chunk index to its upstream readiness
//     (the wavefront / stencil neighbor rule), and, at construction,
//     the local-store placement (resident regions + staging-buffer
//     size -- the LS budget policy). Writebacks and completion reports
//     follow the CBEA report-after-writeback rule for every workload.
//
// Clients: core::TimingEngine re-hosts the Sweep3D wave loop on this
// pipeline with byte-identical timing, counters and traces (gated by
// the perf baselines); workloads/stencil ports a lattice-QCD-style
// even/odd red-black stencil onto it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cellsim/cell_processor.h"
#include "core/config.h"
#include "core/report.h"
#include "core/spe_allocator.h"
#include "core/workload.h"
#include "sim/counters.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "util/aligned.h"
#include "util/concurrency_check.h"

namespace cellsweep::analysis {
class Diagnostics;
class HazardChecker;
}

namespace cellsweep::core {

/// Thrown by run_batch when StreamConfig::cancel reads true at a wave
/// boundary: the run aborts cooperatively between chunks (never
/// mid-wave -- a yielded staging buffer could still be in flight). The
/// claim is released by the destructor; the partially advanced report
/// is abandoned with it.
class RunCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Local-store placement policy of one workload: named resident
/// regions (constants, tables) allocated once per SPE, then
/// StreamConfig::buffers staging buffers of @p buffer_bytes each. The
/// pipeline places it on every SPE at construction, the linters on a
/// fresh local store; server admission budgets its footprint().
struct LsPlacement {
  std::vector<std::pair<std::string, std::size_t>> resident;
  std::size_t buffer_bytes = 0;

  /// Allocates the resident regions, then @p buffers staging buffers,
  /// on @p ls; returns the buffer offsets. Throws
  /// cell::LocalStoreOverflow when they do not fit.
  std::vector<std::size_t> place(cell::LocalStore& ls, int buffers) const;
  /// Local-store bytes the placement occupies with @p buffers staging
  /// buffers (each region padded as LocalStore::allocate pads it; the
  /// code reservation not included).
  std::size_t footprint(int buffers) const;
};

/// Builds the MFC command for one transfer class of @p plan: one
/// command per row, or one DMA list whose element is the configured
/// granularity -- at least one row, at most the command cap (a row
/// above the cap keeps its size, so Mfc::validate rejects it). Inline:
/// every DMA of the timing model is built here.
inline cell::DmaRequest dma_request(const StreamConfig& cfg,
                                    const TransferPlan& plan,
                                    cell::DmaDir dir,
                                    std::size_t bytes_total) {
  cell::DmaRequest req;
  req.dir = dir;
  req.alignment = cfg.aligned_rows ? 128 : 16;
  req.banks_touched =
      cfg.bank_offsets ? cfg.chip.memory_banks : cfg.chip.banks_without_offsets;
  req.total_bytes =
      util::round_up(std::max<std::size_t>(bytes_total, 16), 16);
  req.as_list = cfg.dma_lists;
  req.element_bytes =
      cfg.dma_lists
          ? util::round_up(
                std::max(std::min<std::size_t>(cfg.dma_granularity,
                                               cfg.chip.dma_max_bytes),
                         plan.row_bytes),
                16)
          : plan.row_bytes;
  return req;
}

/// One MFC command of a chunk, named for diagnostics.
struct ChunkDma {
  const char* name;
  cell::DmaRequest req;
};

/// The MFC commands the pipeline submits for one chunk of @p plan
/// under @p cfg, in submission order: the bulk and face gets (double
/// buffering) or one combined get (single buffering), then the
/// writeback put. The linters validate exactly these.
std::vector<ChunkDma> chunk_dmas(const StreamConfig& cfg,
                                 const TransferPlan& plan);

/// One chunk of streaming work, as the workload describes it: the DMA
/// transfer plan (what must be staged and written back) plus the
/// priced kernel (the kernel functor's cost on the SPU pipeline).
struct StreamChunkSpec {
  /// Position in the batch's dependency index space; must lie in
  /// [0, batch size). The dependency policy addresses upstream chunks
  /// by this index.
  int index = 0;
  /// DMA sizes and LS footprint of this chunk (bulk vs face gets,
  /// puts, row granularity).
  TransferPlan plan;
  /// Healthy-path SPU cycles of the chunk kernel (fault plans may
  /// stretch the executed time; this value also feeds the Section 6
  /// compute bound).
  double kernel_cycles = 0;
  /// Trace span label for the kernel (must outlive the run).
  const char* kernel_name = "kernel";
  std::uint64_t flops = 0;
  /// Workload-defined solve count of this chunk (cell-angle solves for
  /// the sweep, site updates for the stencil); accumulated into
  /// RunReport::cell_solves and the grind time.
  std::uint64_t work_units = 0;
  /// Pipeline schedule of one kernel invocation, folded into the
  /// per-SPE "pipeline" counter set.
  cell::PipelineStats stats;
};

/// Upstream view handed to a dependency policy: `ready[i]` is when
/// chunk i of the *previous* batch satisfies a downstream reader
/// (completion time under centralized dispatch, where faces travel
/// through main memory; compute end under distributed dispatch, where
/// faces forward SPE-to-SPE from the upstream local store). `hop` is
/// the extra latency a dependency edge pays (one atomic operation
/// under distributed dispatch, zero when centralized); `barrier` is
/// the floor every chunk of the batch inherits.
struct UpstreamView {
  const std::vector<sim::Tick>& ready;
  sim::Tick barrier = 0;
  sim::Tick hop = 0;
};

/// Maps a chunk index to the time its upstream dependencies are
/// satisfied. Must return at least view.barrier; with an empty
/// view.ready (first batch after a block barrier) it should return
/// view.barrier. Pure: called multiple times per chunk.
using DependencyPolicy = std::function<sim::Tick(const UpstreamView&, int)>;

/// Per-chunk timing hook: invoked after each kernel with the chunk's
/// spec and its [start, end) execution interval. Observation only --
/// no simulated tick may depend on it.
using ChunkTimingHook =
    std::function<void(const StreamChunkSpec&, sim::Tick, sim::Tick)>;

/// The workload-agnostic streaming engine (see file comment).
class StreamingPipeline {
 public:
  /// Builds the machine, attaches observability and faults, and
  /// performs the LS placement on every SPE. Throws
  /// cell::LocalStoreOverflow when the placement exceeds the local
  /// store and sim::FaultError when the fault plan disables every SPE.
  /// With cfg.spe_allocator set, additionally claims SPEs from the
  /// shared allocator (blocking until at least cfg.min_spes are free);
  /// the allocator's width must match cfg.chip.num_spes
  /// (std::invalid_argument otherwise).
  StreamingPipeline(const StreamConfig& cfg, const LsPlacement& placement);
  /// Releases any SPE claim still held (finish() already released it on
  /// the normal path).
  ~StreamingPipeline();

  /// Streams one batch of independent chunks through the machine.
  /// @p new_block opens a new pipeline block: all outstanding work
  /// becomes a hard barrier and the upstream history resets (the sweep
  /// uses it at (octant, angle-block, K-block) boundaries; a free-
  /// running stencil never does after the first batch).
  ///
  /// QoS inside the batch: at each wave boundary the pipeline (a)
  /// throws RunCancelled when StreamConfig::cancel reads true, and (b)
  /// yields SPEs at chunk granularity when a strictly higher-weight
  /// claim is blocked (SpeAllocator::priority_pressure) -- the
  /// not-yet-started chunks are reassigned to the surviving claim and
  /// the wave narrows. Without a cancel flag or a higher-weight waiter
  /// both checks are pure observation and the batch is byte-identical
  /// to the pre-QoS arithmetic.
  void run_batch(const std::vector<StreamChunkSpec>& specs,
                 const DependencyPolicy& deps, bool new_block);

  /// Accounts one whole-field streaming pass through main memory at
  /// the current horizon (the sweep's per-iteration source-moment
  /// rebuild, the stencil's per-iteration residual reduction). The
  /// pass serializes: no later work starts before it drains.
  void memory_pass(const char* name, double bytes);

  /// Drains outstanding work and assembles the machine-side report
  /// (timing, stall partition, counter tree, fault summary). Under
  /// CELLSWEEP_HAZARD_CHECK (engine-owned checker only) throws
  /// analysis::HazardError when protocol violations were found.
  RunReport finish();

  /// Current completion horizon; monotone across batches.
  sim::Tick horizon() const noexcept { return next_barrier_; }

  /// External gate: no work fed after this call may start before
  /// @p at. Models a blocking boundary receive (the RECV of Figure 2)
  /// when this chip is one rank of a process-level decomposition.
  void gate(sim::Tick at) {
    next_barrier_ = std::max(next_barrier_, at);
    reports_horizon_ = std::max(reports_horizon_, at);
  }

  /// Installs the per-chunk kernel timing hook (may be empty).
  void set_chunk_hook(ChunkTimingHook hook) { chunk_hook_ = std::move(hook); }

 private:
  struct SpeClock {
    sim::Tick request_at = 0;   ///< ready to ask for the next chunk
    sim::Tick compute_free = 0; ///< SPU free for the next kernel
    sim::Tick put_done = 0;     ///< last writeback completed
    /// Chunks ever assigned to this SPE; chunk k streams through LS
    /// buffer k % buffers (the double-buffer rotation).
    std::uint64_t served = 0;
    // Stall accounting (ticks; observation only, never read back into
    // the clocks above).
    sim::Tick busy = 0;
    sim::Tick dma_wait = 0;
    sim::Tick sync_wait = 0;
    /// Per-kernel pipeline schedules folded over the run (the Section
    /// 5.1 counters, published into the "spe<N>/pipeline" counter set).
    cell::PipelineStats pipe;
  };

  /// Next live SPE in cyclic order. Detects SPEs that reach their
  /// fail-after-chunks threshold: the victim is declared dead, its
  /// chunk is re-dispatched to the next survivor, and @p extra
  /// accumulates the PPE watchdog detection delay the re-dispatched
  /// chunk pays. Throws sim::FaultError when no SPE is left.
  int pick_spe(sim::Tick& extra);
  /// Splits the SPU wait [base, max(dma_ready, sync_ready)) between the
  /// DMA-wait and sync-wait buckets of @p spe and emits wait spans.
  void account_wait(int spe_index, sim::Tick base, sim::Tick dma_ready,
                    sim::Tick sync_ready);
  /// Emits issue/queue/transfer spans for one DMA command.
  void trace_dma(int spe_index, const char* name, sim::Tick submitted,
                 const cell::DmaCompletion& c, bool to_memory);
  /// SPEs @p chunks can feed (one chunk set per rotation slot), clamped
  /// to [min_spes, chip width].
  int spes_needed(std::size_t chunks) const;
  /// Rebuilds claimed_ from claim_ and folds its size into the min/max
  /// claim history.
  void sync_claimed();
  /// Chunks per wave: `buffers` for every SPE both alive and claimed.
  std::size_t wave_width() const;
  /// Batch-boundary claim adjustment (allocator tenants only): under
  /// pressure yields down to min(need, fair share), with slack regrows
  /// toward `need` = ceil(batch chunks / buffers) clamped to
  /// [min_spes, chip width]. Rebuilds claimed_.
  void rebalance(std::size_t batch_chunks);

  /// A pipeline is confined to its tenant thread: the simulated clocks
  /// are plain fields, and only claim_ transitions (which go through
  /// the allocator's lock) are ever visible across threads. The guard
  /// turns an accidental cross-thread run_batch/finish into a
  /// deterministic report instead of a silent data race.
  util::ThreadConfined confined_;

  StreamConfig cfg_;
  cell::CellProcessor machine_;

  std::vector<SpeClock> spes_;
  sim::Tick barrier_ = 0;       ///< hard barrier (block boundary)
  sim::Tick next_barrier_ = 0;  ///< completion horizon of all work so far
  sim::Tick reports_horizon_ = 0;  ///< when the PPE has seen all reports
  int rr_spe_ = 0;              ///< cyclic SPE assignment cursor
  /// Readiness of each chunk of the previous batch in the current
  /// block, indexed by StreamChunkSpec::index: completion time (faces
  /// through memory) and compute end (faces forwarded SPE-to-SPE).
  std::vector<sim::Tick> prev_completion_;
  std::vector<sim::Tick> prev_compute_end_;
  std::size_t ls_high_water_ = 0;
  /// LS offset of each chunk staging buffer (identical on every SPE;
  /// the hazard annotations use them to name DMA targets).
  std::vector<std::size_t> buffer_offsets_;
  /// Global chunk sequence: the token binding a chunk's grant, DMAs,
  /// kernel and report together for the protocol checker.
  std::uint64_t token_seq_ = 0;

  // Protocol observability (null observer: every emit is one branch).
  cell::MachineObserver* observer_ = nullptr;
  /// CELLSWEEP_HAZARD_CHECK strict mode: pipeline-owned checker + sink
  /// (finish() turns its errors into analysis::HazardError).
  std::unique_ptr<analysis::Diagnostics> owned_diags_;
  std::unique_ptr<analysis::HazardChecker> owned_checker_;

  // Observability (null sink: tracks stay empty, every emit is one
  // branch).
  sim::TraceSink* sink_ = nullptr;
  int ppe_track_ = 0;
  int eib_track_ = 0;
  int mic_track_ = 0;
  std::vector<int> spe_tracks_;

  ChunkTimingHook chunk_hook_;

  std::uint64_t flops_ = 0;
  std::uint64_t work_units_ = 0;
  std::uint64_t chunks_ = 0;
  double total_compute_cycles_ = 0;

  // Fault injection and graceful degradation (inert when the plan is
  // disabled: alive_ stays all-true and pick_spe reduces to the plain
  // cyclic cursor).
  sim::FaultPlan fault_plan_;
  std::vector<char> alive_;   ///< one flag per SPE
  std::vector<char> failed_;  ///< died mid-sweep (subset of !alive_)
  int spes_disabled_ = 0;
  int spes_failed_ = 0;
  std::uint64_t redispatched_chunks_ = 0;
  sim::Tick failover_ticks_ = 0;

  // Multi-tenant SPE partitioning (inert without cfg.spe_allocator:
  // claimed_ stays all-true and pick_spe / the wave width see every
  // SPE, byte-identical to the single-tenant build).
  SpeAllocator::Claim claim_;
  std::vector<char> claimed_;  ///< one flag per SPE: ours right now
  int min_spes_ = 1;
  int min_claimed_ = 0;  ///< smallest claim the run ever held
  int max_claimed_ = 0;  ///< largest claim the run ever held
  std::uint64_t rebalance_shrinks_ = 0;
  std::uint64_t rebalance_expands_ = 0;
  /// Chunk-granularity yields to a higher-weight waiter (mid-batch, at
  /// wave boundaries), as opposed to the batch-boundary rebalances.
  std::uint64_t preempt_yields_ = 0;
};

}  // namespace cellsweep::core
