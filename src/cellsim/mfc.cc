#include "cellsim/mfc.h"

#include <algorithm>
#include <string>

#include "sim/counters.h"
#include "sim/fault.h"

namespace cellsweep::cell {

Mfc::Mfc(const CellSpec& spec, Eib* eib, Mic* mic, std::string name)
    : spec_(spec),
      eib_(eib),
      mic_(mic),
      name_(std::move(name)),
      depth_(spec.mfc_queue_depth) {
  if (depth_ <= 0 || depth_ > static_cast<int>(slots_.size()))
    throw DmaError("Mfc: unsupported queue depth");
  if (eib_ == nullptr || mic_ == nullptr)
    throw DmaError("Mfc: EIB/MIC must be provided");
}

namespace {

// One bit per CBEA rule a command can break. The four size rules apply
// to every transfer the MFC performs, so they are recorded twice: as
// is for the full elements, and shifted by kTailShift for the trailing
// partial element.
constexpr unsigned kSubQuadwordSize = 1u << 0;
constexpr unsigned kSubQuadwordAlign = 1u << 1;
constexpr unsigned kNotQuadwordMultiple = 1u << 2;
constexpr unsigned kOversized = 1u << 3;
constexpr unsigned kTailShift = 4;
constexpr unsigned kZeroLength = 1u << 8;
constexpr unsigned kListTooLong = 1u << 9;
constexpr unsigned kAlignmentNotPow2 = 1u << 10;
constexpr unsigned kBanksOutOfRange = 1u << 11;
constexpr unsigned kTagOutOfRange = 1u << 12;

/// The size rule a single transfer of @p bytes (> 0) breaks, or 0.
unsigned size_violation(std::size_t bytes, std::size_t alignment,
                        std::size_t max_bytes) {
  if (bytes < 16) {
    // Sub-quadword transfers must be naturally aligned powers of two.
    if ((bytes & (bytes - 1)) != 0 || bytes > 8) return kSubQuadwordSize;
    return alignment % bytes != 0 ? kSubQuadwordAlign : 0;
  }
  if (bytes % 16 != 0) return kNotQuadwordMultiple;
  return bytes > max_bytes ? kOversized : 0;
}

std::string byte_size(std::size_t bytes) {
  return bytes % 1024 == 0 ? std::to_string(bytes / 1024) + " KB"
                           : std::to_string(bytes) + " bytes";
}

/// The DmaError text for the non-empty violation set @p v, one clause
/// per broken rule in rule order.
std::string describe(unsigned v, const DmaRequest& req, const CellSpec& spec) {
  std::string why;
  auto append = [&](const std::string& what) {
    if (!why.empty()) why += "; ";
    why += what;
  };
  auto size_clauses = [&](unsigned bits, const std::string& what) {
    if (bits & kSubQuadwordSize)
      append(what + " below 16 bytes must be 1, 2, 4 or 8 bytes");
    if (bits & kSubQuadwordAlign)
      append("sub-quadword " + what + " must be naturally aligned");
    if (bits & kNotQuadwordMultiple)
      append(what + " of 16 bytes or more must be multiples of 16");
    if (bits & kOversized)
      append("single transfer exceeds " + byte_size(spec.dma_max_bytes));
  };
  if (v & kZeroLength) append("zero-length transfer");
  size_clauses(v, "transfers");
  size_clauses(v >> kTailShift, "trailing partial transfers");
  if (v & kListTooLong)
    append("DMA list must have 1.." +
           std::to_string(spec.dma_list_max_elements) + " elements");
  if (v & kAlignmentNotPow2) append("alignment must be a power of two");
  if (v & kBanksOutOfRange)
    append("banks_touched must be in 1.." + std::to_string(spec.memory_banks) +
           ", got " + std::to_string(req.banks_touched));
  if (v & kTagOutOfRange)
    append("tag group must be 0.." + std::to_string(kMfcTagGroups - 1));
  return "illegal DMA command: " + why;
}

}  // namespace

void Mfc::validate(const DmaRequest& req) const {
  // One pass records every broken rule; the text is built only when a
  // rule is broken, so a legal command costs a few integer tests.
  unsigned v = 0;
  if (req.total_bytes == 0 || req.element_bytes == 0) {
    v |= kZeroLength;
  } else {
    // The MFC moves min(element, total)-byte elements and, when the
    // payload is not a whole number of them, a trailing partial element
    // of the remainder -- itself a real transfer under the same rules.
    const std::size_t elem = std::min(req.element_bytes, req.total_bytes);
    v |= size_violation(elem, req.alignment, spec_.dma_max_bytes);
    const std::size_t rem = req.total_bytes % elem;
    if (rem != 0)
      v |= size_violation(rem, req.alignment, spec_.dma_max_bytes)
           << kTailShift;
  }
  if (req.as_list &&
      req.elements() > static_cast<std::size_t>(spec_.dma_list_max_elements))
    v |= kListTooLong;
  if (req.alignment == 0 || (req.alignment & (req.alignment - 1)) != 0)
    v |= kAlignmentNotPow2;
  if (req.banks_touched < 1 || req.banks_touched > spec_.memory_banks)
    v |= kBanksOutOfRange;
  if (req.tag >= kMfcTagGroups) v |= kTagOutOfRange;
  if (v != 0) throw DmaError(describe(v, req, spec_));
}

double Mfc::transfer_efficiency(std::size_t bytes,
                                std::size_t alignment) const {
  // DRAM moves data in 128-byte bursts. A transfer smaller than one
  // burst still occupies a whole burst; a misaligned transfer touches
  // one extra burst. This is the mechanism behind the paper's advice
  // that peak rate needs 128-byte-aligned, 128-byte-multiple transfers.
  const std::size_t line = spec_.dma_align_sweet_spot;
  const bool aligned = alignment >= line;
  const std::size_t bursts = (bytes + line - 1) / line + (aligned ? 0 : 1);
  const double eff =
      static_cast<double>(bytes) / static_cast<double>(bursts * line);
  return std::clamp(eff, spec_.dma_min_efficiency, 1.0);
}

double Mfc::request_efficiency(const DmaRequest& req) const {
  if (req.element_bytes == 0 || req.total_bytes == 0) return 1.0;
  // The last element carries total % element bytes; it occupies DRAM
  // bursts for its *own* size, not the nominal element size. Weight the
  // efficiencies by port occupancy: occupancy(b) = b / eff(b).
  const std::size_t elem = std::min(req.element_bytes, req.total_bytes);
  const std::size_t full = req.total_bytes / elem;
  const std::size_t rem = req.total_bytes % elem;
  double occupancy = static_cast<double>(full * elem) /
                     transfer_efficiency(elem, req.alignment);
  if (rem != 0)
    occupancy +=
        static_cast<double>(rem) / transfer_efficiency(rem, req.alignment);
  const double eff = static_cast<double>(req.total_bytes) / occupancy;
  return std::clamp(eff, spec_.dma_min_efficiency, 1.0);
}

DmaCompletion Mfc::submit(sim::Tick now, const DmaRequest& req) {
  validate(req);
  const std::size_t elements = req.elements();

  // SPU-side channel cost: a list pays one command issue plus a small
  // per-element list-build cost; a batch of individual commands pays
  // the full issue cost per row. This asymmetry is what makes
  // "convert individual DMAs to DMA lists" pay off (Fig. 5).
  const double issue_cycles =
      req.as_list ? spec_.dma_issue_cycles +
                        spec_.dma_list_build_cycles *
                            static_cast<double>(elements)
                  : spec_.dma_issue_cycles * static_cast<double>(elements);
  const sim::Tick issue_done = now + spec_.cycles(issue_cycles);

  // Queue back-pressure: reuse the slot that frees earliest.
  auto slot = std::min_element(slots_.begin(), slots_.begin() + depth_);
  const sim::Tick start = std::max(issue_done, *slot);
  if (start > issue_done) {
    ++queue_full_commands_;
    queue_full_ticks_ += start - issue_done;
  }

  // Occupancy at entry: commands still outstanding when this one was
  // issued (observation only; feeds the stall-accounting histogram).
  int occupied = 0;
  for (int i = 0; i < depth_; ++i)
    if (slots_[i] > issue_done) ++occupied;
  ++occupancy_hist_[std::min(occupied, depth_ - 1)];

  // Memory-side startup: full per-command cost for individual commands,
  // reduced per-element cost inside a list.
  const sim::Tick overhead =
      req.as_list
          ? spec_.dma_cmd_overhead +
                static_cast<sim::Tick>(elements - 1) *
                    spec_.dma_list_element_overhead
          : static_cast<sim::Tick>(elements) * spec_.dma_cmd_overhead;

  const double payload = static_cast<double>(req.total_bytes);

  // One attempt's transfer: crosses the EIB only for SPE-to-SPE moves,
  // otherwise drains through the MIC too; completion is bounded by the
  // slower of the two shared resources.
  auto stream = [&](sim::Tick at) -> sim::Tick {
    if (req.ls_to_ls) return std::max(eib_->submit(at, payload), at + overhead);
    const sim::Tick eib_done = eib_->submit(at, payload);
    const sim::Tick mic_done =
        mic_->submit(at, payload, overhead, request_efficiency(req), elements,
                     req.banks_touched, req.dir == DmaDir::kPut);
    return std::max(eib_done, mic_done);
  };

  // Transient-failure retry loop. The fault plan decides, purely from
  // (unit, command sequence), how many attempts fail before one lands;
  // every failed attempt streams its payload through the shared
  // resources (the cost is real), is detected via the tag-status fail
  // bit, and waits an exponentially growing backoff before resubmitting.
  const bool armed = faults_ != nullptr && faults_->enabled();
  const int failures = armed ? faults_->dma_failures(fault_unit_, fault_seq_++)
                             : 0;
  sim::Tick done = stream(start);
  for (int a = 0; a < failures; ++a) {
    const sim::Tick backoff = spec_.cycles(
        spec_.dma_retry_backoff_cycles *
        static_cast<double>(std::uint64_t{1} << std::min(a, 10)));
    const sim::Tick resume = done + spec_.dma_fault_detect + backoff;
    retry_backoff_ += resume - done;
    done = stream(resume);
  }
  if (failures > 0) {
    ++retried_commands_;
    retry_attempts_ += static_cast<std::uint64_t>(failures);
  }

  *slot = done;
  tag_done_[req.tag] = std::max(tag_done_[req.tag], done);
  // A list is one MFC command; a batch of individual transfers is one
  // command each.
  const std::uint64_t n_cmds =
      req.as_list ? 1 : static_cast<std::uint64_t>(elements);
  commands_ += n_cmds;
  transfers_ += static_cast<std::uint64_t>(elements);
  bytes_ += payload;
  (req.dir == DmaDir::kGet ? get_commands_ : put_commands_) += n_cmds;
  if (req.as_list) ++list_commands_;
  if (req.ls_to_ls) ls_to_ls_commands_ += n_cmds;
  return DmaCompletion{issue_done, done, start, failures};
}

sim::Tick Mfc::wait_all(sim::Tick now) const {
  sim::Tick latest = now;
  for (int i = 0; i < depth_; ++i) latest = std::max(latest, slots_[i]);
  ++tag_waits_;
  tag_wait_ticks_ += latest - now;
  return latest;
}

sim::Tick Mfc::wait_tag(sim::Tick now, unsigned tag) const {
  if (tag >= kMfcTagGroups) throw DmaError("wait_tag: tag group must be 0..31");
  sim::Tick ready = std::max(now, tag_done_[tag]);
  // A faulted tag-status wait misses the completion event and only
  // catches it on the next poll period.
  if (faults_ != nullptr && faults_->enabled() &&
      faults_->tag_timeout(fault_unit_, tag_fault_seq_++)) {
    ready += spec_.tag_timeout_penalty;
    ++tag_timeouts_;
    tag_timeout_ticks_ += spec_.tag_timeout_penalty;
  }
  ++tag_waits_;
  tag_wait_ticks_ += ready - now;
  return ready;
}

void Mfc::publish_counters(sim::CounterSet& out) const {
  out.set("commands", static_cast<double>(commands_));
  out.set("get_commands", static_cast<double>(get_commands_));
  out.set("put_commands", static_cast<double>(put_commands_));
  out.set("list_commands", static_cast<double>(list_commands_));
  out.set("ls_to_ls_commands", static_cast<double>(ls_to_ls_commands_));
  out.set("transfers", static_cast<double>(transfers_));
  out.set("bytes_requested", bytes_);
  out.set("queue_full_commands", static_cast<double>(queue_full_commands_));
  out.set("queue_full_ticks", static_cast<double>(queue_full_ticks_));
  out.set("tag_waits", static_cast<double>(tag_waits_));
  out.set("tag_wait_ticks", static_cast<double>(tag_wait_ticks_));
  if (faults_ != nullptr && faults_->enabled()) {
    out.set("retried_commands", static_cast<double>(retried_commands_));
    out.set("retry_attempts", static_cast<double>(retry_attempts_));
    out.set("retry_backoff_ticks", static_cast<double>(retry_backoff_));
    out.set("tag_timeouts", static_cast<double>(tag_timeouts_));
    out.set("tag_timeout_ticks", static_cast<double>(tag_timeout_ticks_));
  }
}

void Mfc::reset() noexcept {
  slots_.fill(0);
  tag_done_.fill(0);
  commands_ = 0;
  transfers_ = 0;
  bytes_ = 0.0;
  occupancy_hist_.fill(0);
  get_commands_ = 0;
  put_commands_ = 0;
  list_commands_ = 0;
  ls_to_ls_commands_ = 0;
  queue_full_commands_ = 0;
  queue_full_ticks_ = 0;
  tag_waits_ = 0;
  tag_wait_ticks_ = 0;
  fault_seq_ = 0;
  tag_fault_seq_ = 0;
  retried_commands_ = 0;
  retry_attempts_ = 0;
  retry_backoff_ = 0;
  tag_timeouts_ = 0;
  tag_timeout_ticks_ = 0;
}

}  // namespace cellsweep::cell
