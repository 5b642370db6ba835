#include "core/segment_memo.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace cellsweep::core {
namespace {

// Operation words: a batch header (flags, dependency id << 32, chunk
// count) and one (shape id << 32 | index) word per chunk; a pass
// header, its byte count and its name pointer.
constexpr std::uint64_t kBatch = std::uint64_t{1} << 63;
constexpr std::uint64_t kPass = std::uint64_t{1} << 62;
constexpr std::uint64_t kNewBlock = std::uint64_t{1} << 61;

/// Shapes beyond this many make a workload a poor memo candidate; its
/// batches are simulated directly.
constexpr std::size_t kMaxShapes = 64;

/// Content id of a segment whose content did not fit the budget: no
/// stored key carries it.
constexpr std::uint64_t kUnrecorded = ~std::uint64_t{0};

/// Whole and below 2^53: adding deltas of such values is exact.
bool whole(double x) {
  return x >= 0 && x < 9007199254740992.0 && std::floor(x) == x;
}

bool same_shape(const StreamChunkSpec& a, const StreamChunkSpec& b) {
  return a.plan == b.plan && a.kernel_cycles == b.kernel_cycles &&
         a.kernel_name == b.kernel_name && a.flops == b.flops &&
         a.work_units == b.work_units && a.stats == b.stats;
}

// ---- state visitors (sim::StateVisitor) ------------------------------

/// Appends the canonical state relative to @p base: exact relative
/// times, floor times clamped to @p base, unused markers as bitmasks,
/// multisets sorted. Accumulators and block times are left out.
class KeyWriter {
 public:
  KeyWriter(std::vector<std::uint64_t>& out, sim::Tick base)
      : out_(out), base_(base) {}
  void time(sim::Tick& t) { out_.push_back(t - base_); }
  void floor_time(sim::Tick& t) { out_.push_back(t > base_ ? t - base_ : 0); }
  void times_or_unused(sim::Tick* t, int n) {
    if (n > 64) throw std::logic_error("times_or_unused: more than 64 times");
    std::uint64_t used = 0;
    for (int i = 0; i < n; ++i)
      if (t[i] != 0) used |= std::uint64_t{1} << i;
    out_.push_back(used);
    for (int i = 0; i < n; ++i)
      if (t[i] != 0) out_.push_back(t[i] - base_);
  }
  void time_multiset(sim::Tick* t, int n) {
    std::array<sim::Tick, 64> sorted;
    if (n > static_cast<int>(sorted.size()))
      throw std::logic_error("time_multiset: more than 64 times");
    std::copy(t, t + n, sorted.begin());
    std::sort(sorted.begin(), sorted.begin() + n);
    const int unused = static_cast<int>(
        std::count(sorted.begin(), sorted.begin() + n, sim::Tick{0}));
    out_.push_back(static_cast<std::uint64_t>(unused));
    for (int i = unused; i < n; ++i) out_.push_back(sorted[i] - base_);
  }
  void count(std::uint64_t&) {}
  void counts(std::uint64_t*, int) {}
  void sum(double&) {}
  void rotating_counts(int&, int, std::uint64_t*, std::uint64_t*) {}
  void cursor(int& c) { out_.push_back(static_cast<std::uint64_t>(c)); }
  void phase(std::uint64_t& c, std::uint64_t period) {
    out_.push_back(c % period);
  }
  void block_time(sim::Tick&) {}
  void block_times(std::vector<sim::Tick>&) {}

 private:
  std::vector<std::uint64_t>& out_;
  sim::Tick base_;
};

/// Appends the raw accumulator values a Recorder takes deltas from.
class Snapshot {
 public:
  explicit Snapshot(std::vector<std::uint64_t>& out) : out_(out) {}
  void time(sim::Tick&) {}
  void floor_time(sim::Tick&) {}
  void times_or_unused(sim::Tick*, int) {}
  void time_multiset(sim::Tick*, int) {}
  void count(std::uint64_t& c) { out_.push_back(c); }
  void counts(std::uint64_t* c, int n) { out_.insert(out_.end(), c, c + n); }
  void sum(double& s) { out_.push_back(std::bit_cast<std::uint64_t>(s)); }
  void rotating_counts(int& cursor, int period, std::uint64_t* a,
                       std::uint64_t* b) {
    out_.push_back(static_cast<std::uint64_t>(cursor));
    out_.insert(out_.end(), a, a + period);
    out_.insert(out_.end(), b, b + period);
  }
  void cursor(int&) {}
  void phase(std::uint64_t& c, std::uint64_t) { out_.push_back(c); }
  void block_time(sim::Tick&) {}
  void block_times(std::vector<sim::Tick>&) {}

 private:
  std::vector<std::uint64_t>& out_;
};

/// Appends the end record: times relative to @p base (markers and
/// multisets encoded as in the key) and the accumulator deltas since
/// the Snapshot at @p start.
class Recorder {
 public:
  Recorder(const std::uint64_t* start, std::vector<std::uint64_t>& out,
           sim::Tick base)
      : start_(start), out_(out), base_(base) {}
  void time(sim::Tick& t) { out_.push_back(t - base_); }
  void floor_time(sim::Tick& t) { time(t); }
  void times_or_unused(sim::Tick* t, int n) {
    KeyWriter(out_, base_).times_or_unused(t, n);
  }
  void time_multiset(sim::Tick* t, int n) {
    KeyWriter(out_, base_).time_multiset(t, n);
  }
  void count(std::uint64_t& c) { out_.push_back(c - *start_++); }
  void counts(std::uint64_t* c, int n) {
    for (int i = 0; i < n; ++i) count(c[i]);
  }
  void sum(double& s) {
    out_.push_back(
        std::bit_cast<std::uint64_t>(s - std::bit_cast<double>(*start_++)));
  }
  void rotating_counts(int& cursor, int period, std::uint64_t* a,
                       std::uint64_t* b) {
    // Deltas indexed from the starting cursor, so a replay can lay them
    // out from its own cursor.
    const int c0 = static_cast<int>(*start_++);
    out_.push_back(static_cast<std::uint64_t>((cursor - c0 + period) % period));
    for (std::uint64_t* arr : {a, b}) {
      for (int i = 0; i < period; ++i) {
        const int bank = (c0 + i) % period;
        out_.push_back(arr[bank] - start_[bank]);
      }
      start_ += period;
    }
  }
  void cursor(int& c) { out_.push_back(static_cast<std::uint64_t>(c)); }
  void phase(std::uint64_t& c, std::uint64_t) { count(c); }
  void block_time(sim::Tick& t) { time(t); }
  void block_times(std::vector<sim::Tick>& t) {
    out_.push_back(t.size());
    for (sim::Tick& x : t) time(x);
  }

 private:
  const std::uint64_t* start_;
  std::vector<std::uint64_t>& out_;
  sim::Tick base_;
};

/// Applies an end record at a new @p base.
class Replayer {
 public:
  Replayer(const std::uint64_t* record, sim::Tick base)
      : rec_(record), base_(base) {}
  void time(sim::Tick& t) { t = base_ + *rec_++; }
  void floor_time(sim::Tick& t) { time(t); }
  void times_or_unused(sim::Tick* t, int n) {
    const std::uint64_t used = *rec_++;
    for (int i = 0; i < n; ++i)
      t[i] = (used >> i & 1) != 0 ? base_ + *rec_++ : 0;
  }
  void time_multiset(sim::Tick* t, int n) {
    const int unused = static_cast<int>(*rec_++);
    for (int i = 0; i < n; ++i) t[i] = i < unused ? 0 : base_ + *rec_++;
  }
  void count(std::uint64_t& c) { c += *rec_++; }
  void counts(std::uint64_t* c, int n) {
    for (int i = 0; i < n; ++i) count(c[i]);
  }
  void sum(double& s) { s += std::bit_cast<double>(*rec_++); }
  void rotating_counts(int& cursor, int period, std::uint64_t* a,
                       std::uint64_t* b) {
    const int shift = static_cast<int>(*rec_++);
    for (std::uint64_t* arr : {a, b})
      for (int i = 0; i < period; ++i) arr[(cursor + i) % period] += *rec_++;
    cursor = (cursor + shift) % period;
  }
  void cursor(int& c) { c = static_cast<int>(*rec_++); }
  void phase(std::uint64_t& c, std::uint64_t) { count(c); }
  void block_time(sim::Tick& t) { time(t); }
  void block_times(std::vector<sim::Tick>& t) {
    t.resize(static_cast<std::size_t>(*rec_++));
    for (sim::Tick& x : t) time(x);
  }

 private:
  const std::uint64_t* rec_;
  sim::Tick base_;
};

}  // namespace

template <sim::StateVisitor V>
void StreamingPipeline::visit_state(V& v) {
  for (SpeClock& spe : spes_) {
    v.time(spe.request_at);
    v.time(spe.compute_free);
    v.time(spe.put_done);
    v.phase(spe.served, static_cast<std::uint64_t>(cfg_.buffers));
    v.count(spe.busy);
    v.count(spe.dma_wait);
    v.count(spe.sync_wait);
    cell::PipelineStats& p = spe.pipe;
    for (std::uint64_t* c :
         {&p.kernels, &p.cycles, &p.issue_cycles, &p.instructions,
          &p.dual_issues, &p.even_pipe_insts, &p.odd_pipe_insts,
          &p.dep_stall_cycles, &p.block_stall_cycles, &p.flops})
      v.count(*c);
  }
  // A block opens with barrier_ = next_barrier_ (the key's reference)
  // and fresh upstream history; the PPE's report horizon only matters
  // above the barrier.
  v.block_time(barrier_);
  v.time(next_barrier_);
  v.floor_time(reports_horizon_);
  v.cursor(rr_spe_);
  v.block_times(prev_completion_);
  v.block_times(prev_compute_end_);
  v.count(token_seq_);
  v.count(flops_);
  v.count(work_units_);
  v.count(chunks_);
  v.sum(total_compute_cycles_);
  machine_.visit_state(v);
}

std::size_t SegmentMemo::WordsHash::operator()(
    const std::vector<std::uint64_t>& w) const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ w.size();
  for (const std::uint64_t x : w) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
  }
  return static_cast<std::size_t>(h ^ (h >> 33));
}

int SegmentMemo::intern(const StreamChunkSpec& spec) {
  if (last_shape_ >= 0 && same_shape(shapes_[last_shape_], spec))
    return last_shape_;
  for (std::size_t i = 0; i < shapes_.size(); ++i)
    if (same_shape(shapes_[i], spec)) return last_shape_ = static_cast<int>(i);
  if (shapes_.size() >= kMaxShapes || !whole(spec.kernel_cycles)) return -1;
  shapes_.push_back(spec);
  shapes_.back().index = 0;
  return last_shape_ = static_cast<int>(shapes_.size() - 1);
}

bool SegmentMemo::defer_batch(const std::vector<StreamChunkSpec>& specs,
                              const DependencyPolicy& deps, bool new_block) {
  if (!new_block && !open()) return false;
  const DependencyFn* fn = deps.target<DependencyFn>();
  if (fn == nullptr || *fn == nullptr) return false;
  auto d = std::find(deps_.begin(), deps_.end(), *fn);
  if (d == deps_.end()) d = deps_.insert(deps_.end(), *fn);
  const std::size_t mark = ops_.size();
  ops_.push_back(kBatch | (new_block ? kNewBlock : 0) |
                 (static_cast<std::uint64_t>(d - deps_.begin()) << 32) |
                 specs.size());
  for (const StreamChunkSpec& s : specs) {
    const int id = intern(s);
    if (id < 0) {
      ops_.resize(mark);
      return false;
    }
    ops_.push_back(static_cast<std::uint64_t>(id) << 32 |
                   static_cast<std::uint32_t>(s.index));
  }
  return true;
}

bool SegmentMemo::defer_pass(const char* name, double bytes) {
  if (!open() || !whole(bytes)) return false;
  ops_.push_back(kPass);
  ops_.push_back(static_cast<std::uint64_t>(bytes));
  ops_.push_back(reinterpret_cast<std::uintptr_t>(name));
  return true;
}

void SegmentMemo::flush(StreamingPipeline& pipeline) {
  if (!open()) return;
  const std::vector<std::uint64_t> ops = std::move(ops_);
  ops_.clear();

  // Key: the content id, then the canonical state relative to the
  // horizon at which the block opens.
  std::uint64_t content = kUnrecorded;
  if (const auto it = contents_.find(ops); it != contents_.end()) {
    content = it->second;
  } else if (words_ + ops.size() <= kBudgetWords) {
    content = contents_.size();
    words_ += ops.size();
    contents_.emplace(ops, content);
  }
  const sim::Tick base = pipeline.next_barrier_;
  std::vector<std::uint64_t> key{content};
  KeyWriter key_writer(key, base);
  pipeline.visit_state(key_writer);

  if (const auto it = records_.find(key); it != records_.end()) {
    Replayer replay(it->second.data(), base);
    pipeline.visit_state(replay);
    ++stats_.replayed;
    return;
  }
  std::vector<std::uint64_t> start;
  Snapshot snapshot(start);
  pipeline.visit_state(snapshot);
  simulate(pipeline, ops);
  std::vector<std::uint64_t> end;
  Recorder record(start.data(), end, base);
  pipeline.visit_state(record);
  ++stats_.simulated;
  if (content != kUnrecorded &&
      words_ + key.size() + end.size() <= kBudgetWords) {
    words_ += key.size() + end.size();
    records_.emplace(std::move(key), std::move(end));
  }
}

void SegmentMemo::simulate(StreamingPipeline& pipeline,
                           const std::vector<std::uint64_t>& ops) const {
  std::vector<StreamChunkSpec> specs;
  for (std::size_t i = 0; i < ops.size();) {
    const std::uint64_t head = ops[i++];
    if ((head & kPass) != 0) {
      const double bytes = static_cast<double>(ops[i++]);
      pipeline.simulate_pass(reinterpret_cast<const char*>(ops[i++]), bytes);
      continue;
    }
    const std::size_t n = head & 0xffffffffu;
    specs.clear();
    for (std::size_t c = 0; c < n; ++c, ++i) {
      specs.push_back(shapes_[ops[i] >> 32]);
      specs.back().index = static_cast<int>(ops[i] & 0xffffffffu);
    }
    pipeline.simulate_batch(specs, deps_[(head & ~(kBatch | kNewBlock)) >> 32],
                            (head & kNewBlock) != 0);
  }
}

}  // namespace cellsweep::core
