#include "core/streaming_pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "analysis/hazard.h"
#include "cellsim/observer.h"

namespace cellsweep::core {
namespace {

/// Publishes one SPE's folded pipeline schedules (the Section 5.1
/// counters) into @p out.
void publish_pipeline(const cell::PipelineStats& p, sim::CounterSet& out) {
  out.set("kernels", static_cast<double>(p.kernels));
  out.set("cycles", static_cast<double>(p.cycles));
  out.set("issue_cycles", static_cast<double>(p.issue_cycles));
  out.set("instructions", static_cast<double>(p.instructions));
  out.set("dual_issues", static_cast<double>(p.dual_issues));
  out.set("even_pipe_insts", static_cast<double>(p.even_pipe_insts));
  out.set("odd_pipe_insts", static_cast<double>(p.odd_pipe_insts));
  out.set("dep_stall_cycles", static_cast<double>(p.dep_stall_cycles));
  out.set("block_stall_cycles", static_cast<double>(p.block_stall_cycles));
  out.set("flops", static_cast<double>(p.flops));
}

}  // namespace

std::vector<std::size_t> LsPlacement::place(cell::LocalStore& ls,
                                            int buffers) const {
  for (const auto& [name, bytes] : resident) ls.allocate(name, bytes);
  std::vector<std::size_t> offsets;
  for (int b = 0; b < buffers; ++b)
    offsets.push_back(
        ls.allocate("chunk-buffer-" + std::to_string(b), buffer_bytes));
  return offsets;
}

std::size_t LsPlacement::footprint(int buffers) const {
  std::size_t bytes = static_cast<std::size_t>(buffers) *
                      cell::LocalStore::padded(buffer_bytes);
  for (const auto& region : resident)
    bytes += cell::LocalStore::padded(region.second);
  return bytes;
}

std::vector<ChunkDma> chunk_dmas(const StreamConfig& cfg,
                                 const TransferPlan& plan) {
  std::vector<ChunkDma> dmas;
  if (cfg.buffers >= 2) {
    dmas.push_back({"bulk-get", dma_request(cfg, plan, cell::DmaDir::kGet,
                                            plan.bulk_get_bytes())});
    dmas.push_back({"face-get", dma_request(cfg, plan, cell::DmaDir::kGet,
                                            plan.face_get_bytes())});
  } else {
    dmas.push_back({"get", dma_request(cfg, plan, cell::DmaDir::kGet,
                                       plan.get_bytes())});
  }
  dmas.push_back(
      {"put", dma_request(cfg, plan, cell::DmaDir::kPut, plan.put_bytes())});
  return dmas;
}

StreamingPipeline::StreamingPipeline(const StreamConfig& cfg,
                                     const LsPlacement& placement)
    : cfg_(cfg),
      machine_(cfg.chip),
      spes_(cfg.chip.num_spes),
      sink_(cfg.trace_sink) {
  // A time-sliced profiler interposes on the trace stream: the engine
  // emits into the profiler, which samples utilization windows and
  // forwards every event to the plain sink (so both can be attached).
  // Pure observation either way -- no simulated tick reads the sink.
  if (cfg_.profiler) {
    cfg_.profiler->forward_to(cfg.trace_sink);
    sink_ = cfg_.profiler;
  }
  if (sink_) {
    ppe_track_ = sink_->track("PPE");
    spe_tracks_.reserve(spes_.size());
    for (std::size_t s = 0; s < spes_.size(); ++s)
      spe_tracks_.push_back(sink_->track("SPE" + std::to_string(s)));
    eib_track_ = sink_->track("EIB");
    mic_track_ = sink_->track("MIC");
  }
  // Chunks rotate through `buffers` staging buffers; a degenerate
  // config below 1 behaves as synchronous single buffering.
  if (cfg_.buffers < 1) cfg_.buffers = 1;

  // Fault plan: built once (the constructor validates the spec), then
  // attached to every unit that can fail. alive_ starts from the
  // boot-time SPE health -- the 7-of-8 yield case runs the whole
  // workload on the survivors.
  fault_plan_ = sim::FaultPlan(cfg_.faults);
  alive_.assign(spes_.size(), 1);
  failed_.assign(spes_.size(), 0);
  if (fault_plan_.enabled()) {
    for (int s = 0; s < machine_.num_spes(); ++s) {
      machine_.spe(s).mfc().attach_faults(&fault_plan_, s);
      if (fault_plan_.spe_disabled(s)) {
        alive_[static_cast<std::size_t>(s)] = 0;
        ++spes_disabled_;
      }
    }
    machine_.mic().attach_faults(&fault_plan_);
    machine_.dispatch().attach_faults(&fault_plan_);
    if (spes_disabled_ >= machine_.num_spes())
      throw sim::FaultError(
          "fault plan disables every SPE: nothing left to run on");
  }

  // Multi-tenant mode: claim SPEs from the shared allocator (blocking
  // until min_spes are free). A solo tenant gets the whole chip and --
  // since yielding only happens under pressure -- keeps it, so its
  // timing stays byte-identical to the allocator-free build.
  claimed_.assign(spes_.size(), 1);
  if (cfg_.spe_allocator) {
    if (cfg_.spe_allocator->num_spes() != machine_.num_spes())
      throw std::invalid_argument(
          "StreamingPipeline: SpeAllocator width != chip.num_spes");
    min_spes_ = std::clamp(cfg_.min_spes, 1, machine_.num_spes());
    claim_ = cfg_.spe_allocator->claim(min_spes_, machine_.num_spes(),
                                       cfg_.claim_weight, cfg_.claim_quota);
    min_claimed_ = max_claimed_ = claim_.count();
    sync_claimed();
    // Start the cyclic cursor on our lowest claimed SPE so chunk 0
    // lands deterministically regardless of which SPEs we got.
    rr_spe_ = claim_.ids.front();
  }

  // Protocol observer: an externally attached checker wins; otherwise
  // CELLSWEEP_HAZARD_CHECK in the environment arms a pipeline-owned one
  // whose errors finish() escalates (the CI hazard-checked suite mode).
  observer_ = cfg.hazard;
  if (!observer_ && std::getenv("CELLSWEEP_HAZARD_CHECK") != nullptr) {
    owned_diags_ = std::make_unique<analysis::Diagnostics>();
    owned_checker_ =
        std::make_unique<analysis::HazardChecker>(owned_diags_.get(), cfg.chip);
    observer_ = owned_checker_.get();
  }

  // LS placement: the workload's resident regions plus one staging
  // buffer per rotation slot, laid out identically on every SPE.
  // LocalStore::allocate throws cell::LocalStoreOverflow when the
  // budget (including the code reservation) does not fit in 256 KB.
  for (int s = 0; s < machine_.num_spes(); ++s) {
    cell::LocalStore& ls = machine_.spe(s).local_store();
    ls.reset();
    if (observer_) observer_->on_ls_reset(s);
    std::vector<std::size_t> offsets = placement.place(ls, cfg_.buffers);
    if (observer_)
      for (std::size_t r = 1; r < ls.regions().size(); ++r)
        observer_->on_ls_alloc(s, ls.regions()[r], ls.capacity());
    if (s == 0) buffer_offsets_ = std::move(offsets);
  }
  ls_high_water_ = machine_.spe(0).local_store().high_water();
}

StreamingPipeline::~StreamingPipeline() {
  // finish() already released on the normal path; this covers runs torn
  // down by an exception so a dying tenant never strands its SPEs.
  if (cfg_.spe_allocator && !claim_.empty())
    cfg_.spe_allocator->release(claim_);
}

int StreamingPipeline::spes_needed(std::size_t chunks) const {
  const std::size_t buffers = static_cast<std::size_t>(cfg_.buffers);
  return std::clamp(static_cast<int>((chunks + buffers - 1) / buffers),
                    min_spes_, machine_.num_spes());
}

void StreamingPipeline::sync_claimed() {
  claimed_.assign(claimed_.size(), 0);
  for (const int id : claim_.ids) claimed_[static_cast<std::size_t>(id)] = 1;
  min_claimed_ = std::min(min_claimed_, claim_.count());
  max_claimed_ = std::max(max_claimed_, claim_.count());
}

std::size_t StreamingPipeline::wave_width() const {
  std::size_t live = 0;
  for (std::size_t s = 0; s < alive_.size(); ++s)
    live += static_cast<std::size_t>(alive_[s] != 0 && claimed_[s] != 0);
  return std::max<std::size_t>(live, 1) *
         static_cast<std::size_t>(cfg_.buffers);
}

void StreamingPipeline::rebalance(std::size_t batch_chunks) {
  SpeAllocator& alloc = *cfg_.spe_allocator;
  const int need = spes_needed(batch_chunks);
  // The NOVA yield, pressure check and target computation in one
  // critical section inside the allocator: the old pressure() /
  // fair_share() / shrink() sequence could act on a waiter that had
  // already been served, or miss one arriving between the calls.
  if (alloc.shrink_to_fair_share(claim_, need, min_spes_)) {
    ++rebalance_shrinks_;
  } else if (claim_.count() < need) {
    // Slack returned: regrow opportunistically (denied under pressure).
    if (alloc.expand(claim_, need) > 0) ++rebalance_expands_;
  }
  sync_claimed();
}

void StreamingPipeline::memory_pass(const char* name, double bytes) {
  confined_.check("StreamingPipeline::memory_pass");
  // One streaming pass over main memory (the sweep's source-moment
  // rebuild, the stencil's residual reduction). Bandwidth-bound; the
  // arithmetic is fully pipelined underneath. Serializes: the pass
  // starts at the current horizon and later work starts behind it.
  const sim::Tick before = next_barrier_;
  next_barrier_ = machine_.mic().submit(next_barrier_, bytes, 0, 1.0);
  if (sink_) {
    sink_->span(mic_track_, name, "memory", before, next_barrier_);
    sink_->counter(mic_track_, "traffic-gb", next_barrier_,
                   machine_.mic().bytes_moved() / 1e9);
  }
}

int StreamingPipeline::pick_spe(sim::Tick& extra) {
  const int n = static_cast<int>(spes_.size());
  for (int scanned = 0; scanned <= 2 * n; ++scanned) {
    const int s = rr_spe_;
    rr_spe_ = (rr_spe_ + 1) % n;
    // SPEs another tenant holds are simply not in the rotation (no
    // re-dispatch accounting: the chunk was never theirs to lose).
    if (!claimed_[static_cast<std::size_t>(s)]) continue;
    if (!alive_[static_cast<std::size_t>(s)]) {
      // Every chunk the round-robin would have placed on a mid-run
      // casualty is work the survivors absorb; boot-disabled SPEs were
      // never in the rotation, so they don't count as re-dispatches.
      if (failed_[static_cast<std::size_t>(s)]) ++redispatched_chunks_;
      continue;
    }
    if (fault_plan_.enabled()) {
      const std::int64_t limit = fault_plan_.spe_fail_after(s);
      if (limit > 0 &&
          spes_[static_cast<std::size_t>(s)].served >=
              static_cast<std::uint64_t>(limit)) {
        // The SPE dies with this chunk assigned: the PPE watchdog
        // detects the silence and re-dispatches to the next survivor.
        // Only this first detection pays the watchdog latency; later
        // rounds skip the dead SPE with no extra cost.
        alive_[static_cast<std::size_t>(s)] = 0;
        failed_[static_cast<std::size_t>(s)] = 1;
        ++spes_failed_;
        ++redispatched_chunks_;
        extra += machine_.spec().spe_fail_detect;
        failover_ticks_ += machine_.spec().spe_fail_detect;
        continue;
      }
    }
    return s;
  }
  throw sim::FaultError("every SPE has failed: nothing left to run on");
}

void StreamingPipeline::account_wait(int spe_index, sim::Tick base,
                                     sim::Tick dma_ready,
                                     sim::Tick sync_ready) {
  // The SPU stalls over [base, max(dma_ready, sync_ready)). Split the
  // interval at the earlier constraint's resolution: time up to it is
  // charged to that bucket, the rest to the later (binding) one. The
  // two buckets partition the wait exactly, so per-SPE busy + dma_wait
  // + sync_wait + idle always sums to the run length.
  SpeClock& spe = spes_[spe_index];
  const sim::Tick first = std::max(base, std::min(dma_ready, sync_ready));
  const sim::Tick ready = std::max(base, std::max(dma_ready, sync_ready));
  const bool dma_first = dma_ready <= sync_ready;
  (dma_first ? spe.dma_wait : spe.sync_wait) += first - base;
  (dma_first ? spe.sync_wait : spe.dma_wait) += ready - first;
  if (sink_) {
    const int t = spe_tracks_[spe_index];
    const char* sync_name = cfg_.sync == cell::SyncProtocol::kAtomicDistributed
                                ? "atomic-wait"
                            : cfg_.sync == cell::SyncProtocol::kMailbox
                                ? "mailbox-wait"
                                : "ls-poke-wait";
    const char* a = dma_first ? "dma-wait" : sync_name;
    const char* b = dma_first ? sync_name : "dma-wait";
    if (first > base) sink_->span(t, a, dma_first ? "dma" : "sync", base, first);
    if (ready > first)
      sink_->span(t, b, dma_first ? "sync" : "dma", first, ready);
  }
}

void StreamingPipeline::trace_dma(int spe_index, const char* name,
                                  sim::Tick submitted,
                                  const cell::DmaCompletion& c,
                                  bool to_memory) {
  if (!sink_) return;
  const int t = spe_tracks_[spe_index];
  // SPU-side channel phase, MFC queue back-pressure phase, then the
  // payload streaming through the shared fabric.
  sink_->span(t, "dma-issue", "dma", submitted, c.issue_done);
  if (c.start > c.issue_done)
    sink_->span(t, "dma-queue", "dma", c.issue_done, c.start);
  sink_->span(to_memory ? mic_track_ : eib_track_, name, "dma", c.start,
              c.done);
  if (c.retries > 0) sink_->instant(t, "dma-retry", "fault", c.done);
}

void StreamingPipeline::run_batch(const std::vector<StreamChunkSpec>& specs,
                                  const DependencyPolicy& deps,
                                  bool new_block) {
  confined_.check("StreamingPipeline::run_batch");
  // A new pipeline block starts behind everything outstanding (the
  // sweep's blocks are sequential -- the paper's sweep() processes
  // them in order) and forgets the upstream chunk history.
  if (new_block) {
    barrier_ = next_barrier_;
    prev_completion_.clear();
    prev_compute_end_.clear();
    if (sink_) sink_->instant(ppe_track_, "block-barrier", "sync", barrier_);
  }

  // Multi-tenant claim adjustment happens only here, between batches:
  // mid-wave the staging buffers of a yielded SPE could still be in
  // flight. A solo tenant never shrinks (no pressure) and never needs
  // to grow, so this is a no-op for it.
  if (cfg_.spe_allocator) rebalance(specs.size());

  // Dispatch release: with centralized scheduling the PPE must observe
  // every completion report of the previous batch before it can hand
  // out the next one -- the serialization the paper's Fig. 10 removes
  // with distributed self-scheduling (SPEs then simply bump the shared
  // counter from the atomic unit and chase per-chunk dependencies).
  const bool centralized =
      cfg_.sync != cell::SyncProtocol::kAtomicDistributed;
  const sim::Tick release =
      centralized ? std::max(barrier_, reports_horizon_)
                  : barrier_ + machine_.spec().atomic_op_latency;

  // Upstream readiness is the workload's dependency policy over the
  // previous batch's chunks: under centralized dispatch faces travel
  // through main memory, so an upstream chunk must have *completed*
  // (writeback drained); the distributed variant forwards faces
  // SPE-to-SPE from the upstream local store, so its compute end (plus
  // an atomic hop) suffices.
  const UpstreamView upstream{
      centralized ? prev_completion_ : prev_compute_end_, barrier_,
      centralized ? sim::Tick{0} : machine_.spec().atomic_op_latency};
  auto dependency_ready = [&](int c) -> sim::Tick {
    return deps(upstream, c);
  };

  // The batch's chunk list, assigned to SPEs in the paper's cyclic
  // manner. Each chunk streams through one of the SPE's rotating
  // staging buffers; the token is the global chunk sequence number
  // binding its grant, DMAs, kernel and report together for the
  // protocol checker.
  struct Chunk {
    const StreamChunkSpec* spec;
    int spe;
    int buf;
    std::uint64_t token;
    /// Failover delay this chunk pays before dispatch: the PPE watchdog
    /// time spent declaring its original SPE dead and re-dispatching.
    sim::Tick extra = 0;
    sim::Tick grant = 0;
    sim::Tick get_done = 0;
    sim::Tick get_issue_done = 0;
    sim::Tick compute_end = 0;
    sim::Tick completion = 0;
    std::size_t staged_bytes = 0;  ///< LS bytes the kernel consumes
  };
  std::vector<Chunk> chunks;
  chunks.reserve(specs.size());
  for (const StreamChunkSpec& sc : specs) {
    sim::Tick extra = 0;
    const int s = pick_spe(extra);
    SpeClock& spe = spes_[s];
    const int buf = static_cast<int>(spe.served % cfg_.buffers);
    ++spe.served;
    chunks.push_back(Chunk{&sc, s, buf, token_seq_++, extra});
  }

  // The chunks stream in waves of `buffers` chunks per SPE. Within a
  // wave, phase A (grants + working-set gets, in grant order) runs for
  // every chunk, then phase B (kernels), then phase C (writebacks +
  // reports): shared resources (dispatch fabric, MIC) see near-monotone
  // request times, which the FIFO contention model requires. The wave
  // bound keeps the model honest about buffer rotation: an SPE
  // prefetches at most one chunk ahead per staging buffer -- the
  // lookahead double buffering actually grants -- instead of racing a
  // whole batch's gets past unconsumed data. Only LIVE SPEs carry
  // chunks, so a degraded chip must use the survivor count: with the
  // full width a survivor would draw more than `buffers` chunks in one
  // wave and phase A would re-stage a buffer its phase-B kernel has
  // not consumed yet (the hazard checker flags exactly that).
  std::size_t wave = wave_width();
  for (std::size_t w0 = 0; w0 < chunks.size(); w0 += wave) {
    // Chunk-granularity QoS, decided strictly between waves (a yielded
    // or abandoned SPE has no staging buffer in flight there). Both
    // checks read host-side state only: when neither fires, the batch
    // arithmetic below is untouched.
    if (cfg_.cancel && cfg_.cancel->load(std::memory_order_relaxed))
      throw RunCancelled("run cancelled between waves (chunk " +
                         std::to_string(w0) + " of " +
                         std::to_string(chunks.size()) + ")");
    if (w0 > 0 && cfg_.spe_allocator &&
        cfg_.spe_allocator->priority_pressure(claim_.weight)) {
      // A strictly higher-weight claim is blocked: yield *now* rather
      // than at the next batch boundary. The remaining chunks move to
      // the surviving claim and the wave narrows with it.
      const int need = spes_needed(chunks.size() - w0);
      if (cfg_.spe_allocator->shrink_to_fair_share(claim_, need, min_spes_)) {
        ++preempt_yields_;
        sync_claimed();
        // Reassign the not-yet-started chunks: roll their buffer
        // rotation back, restart the cyclic cursor on our lowest
        // surviving SPE (deterministic regardless of which ids were
        // yielded), and re-run the cyclic assignment over the
        // narrowed claim. Tokens are positional, so they stand.
        for (std::size_t i = w0; i < chunks.size(); ++i)
          --spes_[chunks[i].spe].served;
        rr_spe_ = claim_.ids.front();
        for (std::size_t i = w0; i < chunks.size(); ++i) {
          sim::Tick extra = 0;
          const int s = pick_spe(extra);
          SpeClock& spe = spes_[s];
          chunks[i].spe = s;
          chunks[i].buf = static_cast<int>(spe.served % cfg_.buffers);
          chunks[i].extra = extra;
          ++spe.served;
        }
        wave = wave_width();
        if (sink_)
          sink_->instant(ppe_track_, "preempt-yield", "sync", next_barrier_);
      }
    }
    const std::size_t w1 = std::min(chunks.size(), w0 + wave);

    // Phase A. With double buffering the *bulk* working set (no
    // upstream dependency; chunk assignment is cyclic, so the SPE
    // knows its next chunk) prefetches as soon as the buffer's
    // previous writeback has drained (MFC tag-group wait -- the
    // double-buffer reuse discipline), overlapping the previous batch.
    // The *face* rows were written by the previous batch and can only
    // stream after the dispatch release.
    for (std::size_t i = w0; i < w1; ++i) {
      Chunk& c = chunks[i];
      SpeClock& spe = spes_[c.spe];
      const TransferPlan& tplan = c.spec->plan;
      cell::Mfc& mfc = machine_.spe(c.spe).mfc();
      const unsigned get_tag = static_cast<unsigned>(c.buf);
      const unsigned put_tag = static_cast<unsigned>(cfg_.buffers + c.buf);
      const std::size_t buf_off = buffer_offsets_[static_cast<std::size_t>(
          c.buf)];

      const sim::Tick dispatch_from =
          std::max(spe.request_at, release) + c.extra;
      if (sink_ && c.extra > 0)
        sink_->span(ppe_track_, "spe-failover", "fault",
                    dispatch_from - c.extra, dispatch_from);
      const sim::Tick grant =
          machine_.dispatch().acquire_work(dispatch_from, cfg_.sync);
      c.grant = grant;
      if (sink_ && grant > dispatch_from)
        sink_->span(ppe_track_, cell::sync_protocol_name(cfg_.sync),
                    "dispatch", dispatch_from, grant);
      if (observer_)
        observer_->on_grant(c.spe, cfg_.sync, dispatch_from, grant,
                            machine_.dispatch().grants());

      const sim::Tick dep = dependency_ready(c.spec->index);
      if (cfg_.buffers >= 2) {
        const sim::Tick bulk_from = mfc.wait_tag(spe.request_at, put_tag);
        if (observer_) observer_->on_tag_wait(c.spe, put_tag, bulk_from);
        cell::DmaRequest bulk_req = dma_request(
            cfg_, tplan, cell::DmaDir::kGet, tplan.bulk_get_bytes());
        bulk_req.tag = get_tag;
        bulk_req.ls_offset = buf_off;
        bulk_req.ls_bytes = bulk_req.total_bytes;
        const cell::DmaCompletion bulk = mfc.submit(bulk_from, bulk_req);
        trace_dma(c.spe, "dma-get-bulk", bulk_from, bulk, true);
        if (observer_)
          observer_->on_dma(c.spe, bulk_req, bulk_from, bulk, c.token);
        cell::DmaRequest face_req = dma_request(
            cfg_, tplan, cell::DmaDir::kGet, tplan.face_get_bytes());
        face_req.ls_to_ls = !centralized;  // SPE-to-SPE face forwarding
        face_req.tag = get_tag;
        face_req.ls_offset = buf_off + bulk_req.total_bytes;
        face_req.ls_bytes = face_req.total_bytes;
        const sim::Tick face_from = std::max({grant, dep, bulk_from});
        const cell::DmaCompletion face = mfc.submit(face_from, face_req);
        trace_dma(c.spe, "dma-get-face", face_from, face, centralized);
        if (observer_)
          observer_->on_dma(c.spe, face_req, face_from, face, c.token);
        c.get_done = std::max(bulk.done, face.done);
        c.get_issue_done = std::max(bulk.issue_done, face.issue_done);
        c.staged_bytes = bulk_req.total_bytes + face_req.total_bytes;
      } else {
        // Synchronous staging: the single buffer is only free after the
        // previous put (the tag wait resolves immediately: request_at
        // already trails the previous completion), and everything waits
        // for the go signal.
        const sim::Tick get_from =
            mfc.wait_tag(std::max(grant, dep), put_tag);
        if (observer_) observer_->on_tag_wait(c.spe, put_tag, get_from);
        cell::DmaRequest get_req =
            dma_request(cfg_, tplan, cell::DmaDir::kGet, tplan.get_bytes());
        get_req.tag = get_tag;
        get_req.ls_offset = buf_off;
        get_req.ls_bytes = get_req.total_bytes;
        const cell::DmaCompletion get = mfc.submit(get_from, get_req);
        trace_dma(c.spe, "dma-get", get_from, get, true);
        if (observer_)
          observer_->on_dma(c.spe, get_req, get_from, get, c.token);
        c.get_done = get.done;
        c.get_issue_done = get.issue_done;
        c.staged_bytes = get_req.total_bytes;
      }
      spe.request_at = std::max(spe.request_at, c.get_issue_done);
    }

    // Phase B: kernels. Per-SPE in-order execution; the upstream
    // dependency gates the start.
    for (std::size_t i = w0; i < w1; ++i) {
      Chunk& c = chunks[i];
      SpeClock& spe = spes_[c.spe];
      sim::Tick ready = std::max(
          {spe.compute_free, c.get_done, dependency_ready(c.spec->index)});
      if (cfg_.buffers < 2) ready = std::max(ready, spe.put_done);
      // Stall attribution: the grant is a sync constraint even though
      // it reaches the SPU through get_done (the get is submitted after
      // the grant), so dispatch serialization lands in the sync bucket,
      // not the DMA one. grant <= get_done always, so `ready` is
      // unchanged.
      sim::Tick dma_ready = c.get_done;
      if (cfg_.buffers < 2) dma_ready = std::max(dma_ready, spe.put_done);
      if (fault_plan_.enabled()) {
        // The SPU's tag-group wait right before the kernel is where a
        // lost tag completion manifests: the poll times out and retries,
        // delaying the kernel start (and hence the whole dependency
        // chain). Routed through the MFC so the event is counted and
        // priced there; the gate keeps the healthy path byte-identical.
        const sim::Tick waited = machine_.spe(c.spe).mfc().wait_tag(
            ready, static_cast<unsigned>(c.buf));
        ready = std::max(ready, waited);
        dma_ready = std::max(dma_ready, waited);
      }
      account_wait(c.spe, spe.compute_free, dma_ready,
                   std::max(dependency_ready(c.spec->index), c.grant));
      if (observer_)
        observer_->on_tag_wait(c.spe, static_cast<unsigned>(c.buf), ready);
      // A degraded SPE executes the same instruction stream in
      // compute_scale x the cycles (physics is untouched; only time
      // stretches). The gate keeps the healthy path bit-identical.
      double kernel_cycles = c.spec->kernel_cycles;
      if (fault_plan_.enabled())
        kernel_cycles *= fault_plan_.spe_compute_scale(c.spe);
      c.compute_end = machine_.spe(c.spe).compute(ready, kernel_cycles);
      if (sink_)
        sink_->span(spe_tracks_[c.spe], c.spec->kernel_name, "compute", ready,
                    c.compute_end);
      if (observer_)
        observer_->on_kernel(c.spe,
                             buffer_offsets_[static_cast<std::size_t>(c.buf)],
                             c.staged_bytes, ready, c.compute_end, c.token);
      if (chunk_hook_) chunk_hook_(*c.spec, ready, c.compute_end);
      spe.compute_free = c.compute_end;
      if (cfg_.buffers >= 2)
        spe.request_at = std::max(spe.request_at, ready);

      flops_ += c.spec->flops;
      total_compute_cycles_ += c.spec->kernel_cycles;
      spe.pipe += c.spec->stats;
      work_units_ += c.spec->work_units;
      ++chunks_;
      machine_.spe(c.spe).count_work_item();
    }

    // Phase C: writebacks + completion reports, in compute-end order.
    for (std::size_t i = w0; i < w1; ++i) {
      Chunk& c = chunks[i];
      SpeClock& spe = spes_[c.spe];
      const TransferPlan& tplan = c.spec->plan;
      const unsigned put_tag = static_cast<unsigned>(cfg_.buffers + c.buf);
      cell::DmaRequest put_req =
          dma_request(cfg_, tplan, cell::DmaDir::kPut, tplan.put_bytes());
      put_req.tag = put_tag;
      put_req.ls_offset = buffer_offsets_[static_cast<std::size_t>(c.buf)];
      put_req.ls_bytes = put_req.total_bytes;
      const cell::DmaCompletion put =
          machine_.spe(c.spe).mfc().submit(c.compute_end, put_req);
      trace_dma(c.spe, "dma-put", c.compute_end, put, true);
      if (observer_)
        observer_->on_dma(c.spe, put_req, c.compute_end, put, c.token);
      // The SPE signals completion only after its writeback DMA has
      // drained (tag-group wait), so the PPE sees the report after
      // put.done -- which serializes the next batch's grants behind
      // this batch's memory traffic under centralized dispatch.
      if (observer_) observer_->on_tag_wait(c.spe, put_tag, put.done);
      const sim::Tick report =
          machine_.dispatch().report_done(put.done, cfg_.sync);
      if (sink_ && report > put.done)
        sink_->span(spe_tracks_[c.spe], "report", "sync", put.done, report);
      if (observer_)
        observer_->on_report(c.spe, cfg_.sync, std::max(put.done, report),
                             c.token);
      const sim::Tick completion = std::max(put.done, report);
      c.completion = completion;
      next_barrier_ = std::max(next_barrier_, completion);
      reports_horizon_ = std::max(reports_horizon_, report);
      spe.put_done = put.done;
      spe.compute_free = std::max(spe.compute_free, put.issue_done);
      if (cfg_.buffers < 2)
        spe.request_at = std::max(spe.request_at, completion);
    }
  }

  // Publish this batch's chunk completions for the next batch's
  // dependency checks.
  prev_completion_.resize(chunks.size());
  prev_compute_end_.resize(chunks.size());
  for (const Chunk& c : chunks) {
    prev_completion_[c.spec->index] = c.completion;
    prev_compute_end_[c.spec->index] = c.compute_end;
  }
}

RunReport StreamingPipeline::finish() {
  confined_.check("StreamingPipeline::finish");
  RunReport r;
  const sim::Tick end = next_barrier_;
  if (observer_) observer_->on_run_end(end);
  // CELLSWEEP_HAZARD_CHECK strict mode: the pipeline owns the checker,
  // so it owns the escalation too (externally attached observers leave
  // the severity policy to their caller, e.g. deck_runner --check).
  if (owned_diags_ && owned_diags_->has_errors())
    throw analysis::HazardError("machine-model hazard check failed:\n" +
                                owned_diags_->summary());
  r.seconds = sim::seconds_from_ticks(end);
  r.traffic_bytes = machine_.mic().bytes_moved();
  r.flops = flops_;
  r.cell_solves = work_units_;
  r.chunks = chunks_;
  r.dispatch_busy_grants =
      static_cast<double>(machine_.dispatch().grants());
  r.ls_high_water = ls_high_water_;

  double busy = 0;
  std::uint64_t cmds = 0, xfers = 0;
  r.spe_stalls.resize(machine_.num_spes());
  r.mfc_queue_occupancy.assign(machine_.spec().mfc_queue_depth, 0);
  for (int s = 0; s < machine_.num_spes(); ++s) {
    const sim::Tick spe_busy = machine_.spe(s).busy_ticks();
    busy += sim::seconds_from_ticks(spe_busy);
    cmds += machine_.spe(s).mfc().commands();
    xfers += machine_.spe(s).mfc().transfers();

    // Stall breakdown: what the accounting didn't classify as compute,
    // DMA wait or sync wait is idle (no work assigned to this SPE yet,
    // or the run's tail after its last chunk).
    SpeStallSummary& st = r.spe_stalls[s];
    st.busy_s = sim::seconds_from_ticks(spe_busy);
    st.dma_wait_s = sim::seconds_from_ticks(spes_[s].dma_wait);
    st.sync_wait_s = sim::seconds_from_ticks(spes_[s].sync_wait);
    const sim::Tick accounted = spe_busy + spes_[s].dma_wait +
                                spes_[s].sync_wait;
    st.idle_s = accounted < end ? sim::seconds_from_ticks(end - accounted)
                                : 0.0;

    const auto& hist = machine_.spe(s).mfc().occupancy_histogram();
    for (std::size_t k = 0; k < r.mfc_queue_occupancy.size(); ++k)
      r.mfc_queue_occupancy[k] += hist[k];
  }
  r.compute_busy_s = busy / machine_.num_spes();
  r.dma_commands = cmds;
  r.dma_transfers = xfers;
  r.mic_busy_s = sim::seconds_from_ticks(machine_.mic().busy_ticks());
  if (end > 0) {
    r.mic_utilization = static_cast<double>(machine_.mic().busy_ticks()) /
                        static_cast<double>(end);
    r.eib_utilization = static_cast<double>(machine_.eib().busy_ticks()) /
                        static_cast<double>(end);
  }

  // Counter tree: per-SPE engine buckets (which exactly partition `end`
  // per SPE -- tick arithmetic below 2^53 is exact in doubles), the
  // SPU-pipeline and MFC counters under each "spe<N>", a "spe_total"
  // hierarchical aggregate, and the chip-shared units.
  r.counters = sim::CounterSet("machine");
  r.counters.set("run_ticks", static_cast<double>(end));
  r.counters.set("chunks", static_cast<double>(chunks_));
  r.counters.set("cell_solves", static_cast<double>(work_units_));
  r.counters.set("flops", static_cast<double>(flops_));
  sim::CounterSet spe_total("spe_total");
  std::vector<sim::CounterSet> spe_sets;
  spe_sets.reserve(static_cast<std::size_t>(machine_.num_spes()));
  for (int s = 0; s < machine_.num_spes(); ++s) {
    sim::CounterSet cs("spe" + std::to_string(s));
    const sim::Tick spe_busy = machine_.spe(s).busy_ticks();
    const sim::Tick accounted =
        spe_busy + spes_[s].dma_wait + spes_[s].sync_wait;
    cs.set("busy_ticks", static_cast<double>(spe_busy));
    cs.set("dma_wait_ticks", static_cast<double>(spes_[s].dma_wait));
    cs.set("sync_wait_ticks", static_cast<double>(spes_[s].sync_wait));
    cs.set("idle_ticks",
           accounted < end ? static_cast<double>(end - accounted) : 0.0);
    cs.set("work_items", static_cast<double>(machine_.spe(s).work_items()));
    publish_pipeline(spes_[s].pipe, cs.child("pipeline"));
    machine_.spe(s).mfc().publish_counters(cs.child("mfc"));
    spe_total.merge(cs);
    spe_sets.push_back(std::move(cs));
  }
  r.counters.add_child(std::move(spe_total));
  for (sim::CounterSet& cs : spe_sets) r.counters.add_child(std::move(cs));
  machine_.mic().publish_counters(r.counters.child("mic"));
  machine_.eib().publish_counters(r.counters.child("eib"));
  machine_.dispatch().publish_counters(r.counters.child("dispatch"));

  // Fault subtree + report: only present when a plan was armed, so the
  // fault-free counter tree (and its JSON) is byte-identical to the
  // pre-fault-injection build.
  if (fault_plan_.enabled()) {
    std::uint64_t retried = 0, retry_attempts = 0, timeouts = 0;
    sim::Tick backoff = 0, timeout_ticks = 0;
    for (int s = 0; s < machine_.num_spes(); ++s) {
      const cell::Mfc& mfc = machine_.spe(s).mfc();
      retried += mfc.retried_commands();
      retry_attempts += mfc.retry_attempts();
      backoff += mfc.retry_backoff_ticks();
      timeouts += mfc.tag_timeouts();
      timeout_ticks += mfc.tag_timeout_ticks();
    }
    sim::CounterSet& f = r.counters.child("faults");
    f.set("spes_disabled", static_cast<double>(spes_disabled_));
    f.set("spes_failed", static_cast<double>(spes_failed_));
    f.set("redispatched_chunks", static_cast<double>(redispatched_chunks_));
    f.set("failover_ticks", static_cast<double>(failover_ticks_));
    f.set("dma_retried_commands", static_cast<double>(retried));
    f.set("dma_retry_attempts", static_cast<double>(retry_attempts));
    f.set("dma_retry_backoff_ticks", static_cast<double>(backoff));
    f.set("tag_timeouts", static_cast<double>(timeouts));
    f.set("tag_timeout_ticks", static_cast<double>(timeout_ticks));
    f.set("dropped_messages",
          static_cast<double>(machine_.dispatch().dropped_messages()));
    f.set("drop_wait_ticks",
          static_cast<double>(machine_.dispatch().drop_wait_ticks()));
    f.set("mic_throttled_requests",
          static_cast<double>(machine_.mic().throttled_requests()));
    f.set("mic_throttle_ticks",
          static_cast<double>(machine_.mic().throttle_ticks()));
    r.faults.enabled = true;
    r.faults.spes_disabled = spes_disabled_;
    r.faults.spes_failed = spes_failed_;
    r.faults.redispatched_chunks = redispatched_chunks_;
    r.faults.dma_retries = retry_attempts;
    r.faults.tag_timeouts = timeouts;
    r.faults.dropped_messages = machine_.dispatch().dropped_messages();
    r.faults.mic_throttled = machine_.mic().throttled_requests();
  }

  // Allocator subtree + release: only present when a shared allocator
  // was attached, so single-tenant counter trees (and their JSON) stay
  // byte-identical to the allocator-free build. Captured before the
  // release so "spes_final" reports what the run ended with.
  if (cfg_.spe_allocator) {
    sim::CounterSet& a = r.counters.child("allocator");
    a.set("spes_final", static_cast<double>(claim_.count()));
    a.set("spes_min", static_cast<double>(min_claimed_));
    a.set("spes_max", static_cast<double>(max_claimed_));
    a.set("rebalance_shrinks", static_cast<double>(rebalance_shrinks_));
    a.set("rebalance_expands", static_cast<double>(rebalance_expands_));
    a.set("preempt_yields", static_cast<double>(preempt_yields_));
    cfg_.spe_allocator->release(claim_);
    claimed_.assign(claimed_.size(), 0);
  }

  // Time-sliced profile: snapshot the windowed series, and replay them
  // into the downstream trace as Chrome counter events so the
  // utilization-over-time curves render beside the spans.
  if (cfg_.profiler) {
    r.timeseries = cfg_.profiler->profile();
    if (cfg_.trace_sink) cfg_.profiler->emit_counter_events(*cfg_.trace_sink);
  }

  const cell::CellSpec& spec = machine_.spec();
  r.memory_bound_s = r.traffic_bytes / spec.mic_bytes_per_s;
  r.compute_bound_s =
      total_compute_cycles_ / (spec.clock_hz * spec.num_spes);
  if (r.seconds > 0) {
    r.achieved_flops_per_s = static_cast<double>(r.flops) / r.seconds;
    if (r.cell_solves > 0)
      r.grind_seconds = r.seconds / static_cast<double>(r.cell_solves);
  }
  return r;
}

}  // namespace cellsweep::core
