// perfbench_client: runs one CellSweep benchmark workload through the
// public library API and writes raw per-operation records as JSON.
//
//   perfbench_client --workload <paper50|ladder|serve-mix>
//                    --input <file> --seconds <s> --trace <0|1>
//                    --out <file> [--setup-only]
//
// The client only times and records. perfbench/run.py generates the
// input file from the seed, checks every output recorded here, and
// turns the records into metrics. With --trace 1 the client also keeps
// spans (name, start, end, parent, operation id) around each call into
// a library layer and writes them with the records; spans are recorded
// in memory and written once, at exit. With --setup-only it stops
// where the first timed operation would start.
//
// All times are seconds on the steady clock. `ready_s`, written by a
// --setup-only run when set-up ends, is that clock's absolute reading
// (CLOCK_MONOTONIC on Linux, the same clock as Python's
// time.monotonic), so run.py can time set-up across the process
// boundary. Solo-workload times are relative to the client's start,
// server-job times to the server's HostClock.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/orchestrator.h"
#include "server/solve_server.h"
#include "sweep/deck.h"

namespace {

using namespace cellsweep;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double mono_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---- JSON output -------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(int v) { return std::to_string(v); }

/// Exact bit pattern of a double, for bitwise comparisons in run.py.
std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "\"%a\"", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// One JSON object built field by field.
class Obj {
 public:
  Obj& put(const std::string& key, const std::string& json_value) {
    body_ += (body_.empty() ? "" : ", ") + str(key) + ": " + json_value;
    return *this;
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + items[i];
  return out + "]";
}

// ---- spans -------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0, end = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  int op = 0;       ///< one id per solve, ladder or job
};

/// In-memory span recorder. Disabled, it records nothing and scope()
/// only runs the callable.
class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  int open(const std::string& name, int op, int parent) {
    if (!on) return -1;
    spans.push_back({name, now_s(), 0, parent, op});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans[static_cast<std::size_t>(id)].end = now_s();
  }
  template <typename F>
  auto scope(const std::string& name, int op, int parent, F&& f) {
    const int id = open(name, op, parent);
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return f();
  }
  void add(const std::string& name, double start, double end, int op,
           int parent) {
    if (on) spans.push_back({name, start, end, parent, op});
  }

  std::string json() const {
    std::vector<std::string> rows;
    rows.reserve(spans.size());
    for (const Span& s : spans)
      rows.push_back("[" + str(s.name) + ", " + num(s.start) + ", " +
                     num(s.end) + ", " + num(s.parent) + ", " + num(s.op) +
                     "]");
    return list(rows);
  }
};

// ---- machine-side report summary -----------------------------------------

Obj report_fields(const core::RunReport& r) {
  double busy = 0, dma = 0, sync = 0, idle = 0;
  for (const core::SpeStallSummary& s : r.spe_stalls) {
    busy += s.busy_s;
    dma += s.dma_wait_s;
    sync += s.sync_wait_s;
    idle += s.idle_s;
  }
  const double n = std::max<double>(1.0, static_cast<double>(r.spe_stalls.size()));
  Obj o;
  o.put("sim_s", num(r.seconds))
      .put("cell_solves", num(r.cell_solves))
      .put("chunks", num(r.chunks))
      .put("traffic_bytes", num(r.traffic_bytes))
      .put("spes", num(static_cast<int>(r.spe_stalls.size())))
      .put("busy_s", num(busy / n))
      .put("dma_wait_s", num(dma / n))
      .put("sync_wait_s", num(sync / n))
      .put("idle_s", num(idle / n))
      .put("mic_util", num(r.mic_utilization))
      .put("eib_util", num(r.eib_utilization));
  if (r.solve) {
    o.put("iterations", num(r.solve->iterations))
        .put("converged", r.solve->converged ? "true" : "false")
        .put("fixup_cells", num(r.solve->totals.fixup_cells))
        .put("absorption", num(r.absorption))
        .put("leakage", num(r.leakage.total()))
        .put("absorption_hex", hex(r.absorption))
        .put("leakage_hex", hex(r.leakage.total()));
  }
  return o;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- solo workloads: paper50, ladder ----------------------------------------

constexpr core::OptimizationStage kShipped = core::OptimizationStage::kSpeLsPoke;

struct LadderStage {
  core::OptimizationStage stage;
  const char* slug;
};

const LadderStage kLadder[] = {
    {core::OptimizationStage::kPpeGcc, "ppe-gcc"},
    {core::OptimizationStage::kPpeXlc, "ppe-xlc"},
    {core::OptimizationStage::kSpeInitial, "spe-initial"},
    {core::OptimizationStage::kSpeAligned, "spe-aligned"},
    {core::OptimizationStage::kSpeBuffered, "spe-buffered"},
    {core::OptimizationStage::kSpeSimd, "spe-simd"},
    {core::OptimizationStage::kSpeDmaLists, "spe-dmalists"},
    {core::OptimizationStage::kSpeLsPoke, "spe-lspoke"},
    {core::OptimizationStage::kFutureBigDma, "future-bigdma"},
    {core::OptimizationStage::kFutureDistributed, "future-distributed"},
    {core::OptimizationStage::kFuturePipelinedDp, "future-pipelineddp"},
    {core::OptimizationStage::kFutureSingle, "future-single"},
};

/// Deck text -> parse -> lint -> plan -> run -> metrics JSON, the call
/// sequence a user of the library makes for one solve.
struct SoloChain {
  Obj fields;          ///< the report summary (or the error)
  std::string report;  ///< write_metrics_json output
  int iterations = 0;  ///< source iterations solved (functional runs)
};

SoloChain run_chain(const sweep::Deck& deck, core::CellSweepConfig cfg,
                    core::RunMode mode, Tracer& tr, int op, int parent) {
  SoloChain out;
  const analysis::Diagnostics diags = tr.scope(
      "analysis.lint", op, parent, [&] { return analysis::lint_deck(deck, cfg); });
  if (diags.has_errors()) {
    out.fields.put("error", str("lint: " + diags.summary()));
    return out;
  }
  auto runner = tr.scope("core.plan", op, parent, [&] {
    return std::make_unique<core::CellSweep3D>(deck.problem, cfg, deck.sn_order,
                                               2, deck.nm_cap);
  });
  const core::RunReport rep =
      tr.scope("core.run", op, parent, [&] { return runner->run(mode); });
  out.report = tr.scope("core.report", op, parent, [&] {
    std::ostringstream os;
    core::write_metrics_json(os, rep);
    return os.str();
  });
  out.fields = report_fields(rep);
  if (rep.solve) out.iterations = rep.solve->iterations;
  out.fields.put("report_bytes", num(static_cast<std::uint64_t>(out.report.size())))
      .put("report_fnv1a", str(std::to_string(fnv1a(out.report))));
  return out;
}

/// paper50: one functional solve of the deck on one host thread.
Obj solve_op(const std::string& text, Tracer& tr, int op) {
  const double t0 = now_s();
  const int root = tr.open("solve", op, -1);
  const sweep::Deck deck = tr.scope(
      "sweep.parse", op, root, [&] { return sweep::parse_deck_string(text); });
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(kShipped);
  cfg.sweep = deck.sweep;
  SoloChain c = run_chain(deck, cfg, core::RunMode::kFunctional, tr, op, root);
  tr.close(root);
  const double t1 = now_s();
  c.fields.put("op", num(op)).put("start_s", num(t0)).put("end_s", num(t1));
  if (tr.on && c.iterations > 0) {
    // The timing model alone on the same deck and configuration, for
    // the iterations the solve ran: the timing share of the solve. Its
    // own root span, outside the solve's.
    cfg.sweep.max_iterations = c.iterations;
    const int id = tr.open("timing-share", op, -1);
    core::CellSweep3D runner(deck.problem, cfg, deck.sn_order, 2, deck.nm_cap);
    runner.run(core::RunMode::kTraceDriven);
    tr.close(id);
  }
  return c.fields;
}

/// ladder: the 50-cubed paper problem under every Figure 5 stage and
/// Figure 10 projection, trace-driven (timing model only).
Obj ladder_op(const std::string& text, Tracer& tr, int op) {
  const double t0 = now_s();
  const int root = tr.open("ladder", op, -1);
  const sweep::Deck deck = tr.scope(
      "sweep.parse", op, root, [&] { return sweep::parse_deck_string(text); });
  std::vector<std::string> stages;
  for (const LadderStage& s : kLadder) {
    core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(s.stage);
    // The deck sets the problem's iteration and blocking schedule; the
    // stage keeps its own angle blocking (the Figure 10 redesigns widen
    // it), exactly as the Figure 5 / 10 benches configure it.
    cfg.sweep.max_iterations = deck.sweep.max_iterations;
    cfg.sweep.fixup_from_iteration = deck.sweep.fixup_from_iteration;
    cfg.sweep.mk = deck.sweep.mk;
    const double s0 = now_s();
    const int id = tr.open(std::string("ladder.") + s.slug, op, root);
    SoloChain c = run_chain(deck, cfg, core::RunMode::kTraceDriven, tr, op, id);
    tr.close(id);
    c.fields.put("stage", str(s.slug)).put("host_s", num(now_s() - s0));
    stages.push_back(c.fields.json());
  }
  tr.close(root);
  Obj o;
  o.put("op", num(op))
      .put("start_s", num(t0))
      .put("end_s", num(now_s()))
      .put("stages", list(stages));
  return o;
}

// ---- serve-mix ---------------------------------------------------------------

struct MixJob {
  int idx = 0;
  std::string phase;  ///< "rate" or "burst"
  double due_s = 0;   ///< offset from the phase start
  core::JobKind kind = core::JobKind::kSweep;
  core::RunMode mode = core::RunMode::kTraceDriven;
  std::string text;
};

/// Reads the generated job file: per job one header line
///   job <idx> <phase> <due_s> <sweep|stencil> <trace|functional> <bytes>
/// followed by exactly <bytes> bytes of job text. The expected outcome
/// stays with run.py; the client never sees it.
std::vector<MixJob> read_mix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<MixJob> jobs;
  std::string tag;
  while (in >> tag) {
    if (tag != "job") throw std::runtime_error("bad job header in " + path);
    MixJob j;
    std::string kind, mode;
    std::size_t bytes = 0;
    in >> j.idx >> j.phase >> j.due_s >> kind >> mode >> bytes;
    if (!in || in.get() != '\n')
      throw std::runtime_error("bad job header in " + path);
    j.kind = kind == "stencil" ? core::JobKind::kStencil : core::JobKind::kSweep;
    j.mode = mode == "functional" ? core::RunMode::kFunctional
                                  : core::RunMode::kTraceDriven;
    j.text.resize(bytes);
    in.read(j.text.data(), static_cast<std::streamsize>(bytes));
    if (!in) throw std::runtime_error("truncated job text in " + path);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::unique_ptr<core::SolveServer> make_server(std::size_t jobs) {
  core::ServerConfig sc;
  sc.tenants = 2;
  sc.host_threads = 2;
  sc.queue_limit = jobs + 1;  // the burst must never hit queue-full
  sc.grid_cell_budget = 32 * 32 * 32;
  return std::make_unique<core::SolveServer>(sc);
}

struct Submitted {
  const MixJob* job = nullptr;
  double due = 0;  ///< absolute, on the server's clock
  double submit_start = 0, submit_end = 0;
  int id = -1;
  std::string reject;  ///< admission reason, empty when admitted
};

/// Submits one phase open-loop: each job at its due time on the
/// server's clock, never waiting for results in between. Returns the
/// phase's start on that clock.
double submit_phase(core::SolveServer& srv, const std::vector<MixJob>& jobs,
                    const std::string& phase, std::vector<Submitted>& out) {
  const core::HostClock& clock = srv.clock();
  const double base = clock.now_s() + 0.02;
  for (const MixJob& j : jobs) {
    if (j.phase != phase) continue;
    Submitted s;
    s.job = &j;
    s.due = base + j.due_s;
    const double wait = s.due - clock.now_s();
    if (wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    core::JobRequest req;
    req.kind = j.kind;
    req.mode = j.mode;
    req.name = "job-" + std::to_string(j.idx);
    req.text = j.text;
    s.submit_start = clock.now_s();
    try {
      s.id = srv.submit(req);
    } catch (const core::AdmissionError& e) {
      s.reject = core::admission_reason_name(e.reason());
    }
    s.submit_end = clock.now_s();
    out.push_back(s);
  }
  return base;
}

Obj job_record(const Submitted& s, const core::JobResult* r) {
  Obj o;
  o.put("idx", num(s.job->idx))
      .put("phase", str(s.job->phase))
      .put("due", num(s.due))
      .put("submit_start", num(s.submit_start))
      .put("submit_end", num(s.submit_end));
  if (!r) return o.put("outcome", str("reject:" + s.reject));
  const core::JobTrace& t = r->trace;
  o.put("outcome", str(r->ok ? "ok" : r->cancelled ? "cancelled" : "failed"))
      .put("error", str(r->error))
      .put("tenant", num(t.tenant))
      .put("admit_start", num(t.admit_start_s))
      .put("admit_end", num(t.admit_end_s))
      .put("enqueue", num(t.enqueue_s))
      .put("dequeue", num(t.dequeue_s))
      .put("plan_start", num(t.plan_start_s))
      .put("plan_end", num(t.plan_end_s))
      .put("run_start", num(t.run_start_s))
      .put("run_end", num(t.run_end_s))
      .put("report", num(t.report_s))
      .put("claim_wait", num(t.claim_wait_s))
      .put("plan_hit", r->plan_cache_hit ? "true" : "false")
      .put("result", report_fields(r->report).json());
  if (s.job->kind == core::JobKind::kStencil &&
      s.job->mode == core::RunMode::kFunctional)
    o.put("checksum_hex", hex(r->checksum)).put("residual_hex", hex(r->residual));
  return o;
}

/// One pass of the mix on a fresh server: the fixed-rate phase, then the
/// burst drain. Returns the pass's records.
Obj serve_pass(const std::vector<MixJob>& jobs, Tracer& tr) {
  std::unique_ptr<core::SolveServer> srv = make_server(jobs.size());
  std::vector<Submitted> subs;
  subs.reserve(jobs.size());
  Obj o;
  for (const char* phase : {"rate", "burst"}) {
    const std::size_t first = subs.size();
    const double t0 = submit_phase(*srv, jobs, phase, subs);
    std::vector<std::string> recs;
    double last = t0;
    for (std::size_t i = first; i < subs.size(); ++i) {
      const Submitted& s = subs[i];
      if (s.id < 0) {
        recs.push_back(job_record(s, nullptr).json());
        continue;
      }
      const core::JobResult r = srv->wait(s.id);
      last = std::max(last, r.trace.report_s);
      recs.push_back(job_record(s, &r).json());
      const int op = s.job->idx;
      const core::JobTrace& t = r.trace;
      tr.add("server.submit", s.submit_start, s.submit_end, op, -1);
      const int root = static_cast<int>(tr.spans.size());
      tr.add("job", t.admit_start_s, t.report_s, op, -1);
      tr.add("server.admit", t.admit_start_s, t.admit_end_s, op, root);
      tr.add("server.queue", t.enqueue_s, t.dequeue_s, op, root);
      tr.add("core.plan", t.plan_start_s, t.plan_end_s, op, root);
      tr.add("core.run", t.run_start_s, t.run_end_s, op, root);
      tr.add("server.publish", t.run_end_s, t.report_s, op, root);
    }
    o.put(std::string(phase) + "_start", num(t0))
        .put(std::string(phase) + "_end", num(last))
        .put(std::string(phase) + "_jobs", list(recs));
  }
  const core::SolveServer::Stats st = srv->stats();
  const auto pc = srv->plan_cache_stats();
  const auto pool = srv->pool_telemetry();
  o.put("stats", Obj()
                     .put("submitted", num(st.submitted))
                     .put("completed", num(st.completed))
                     .put("failed", num(st.failed))
                     .put("rejected", num(st.rejected))
                     .put("cancelled", num(st.cancelled))
                     .json())
      .put("plan_cache", Obj()
                             .put("hits", num(pc.hits))
                             .put("misses", num(pc.misses))
                             .put("evictions", num(pc.evictions))
                             .json())
      .put("pool", Obj()
                       .put("forks", num(pool.forks))
                       .put("busy_ns", num(pool.busy_ns))
                       .put("fork_wall_ns", num(pool.fork_wall_ns))
                       .put("utilization", num(srv->pool_utilization()))
                       .json());
  return o;
}

// ---- command line and main loop ---------------------------------------------

struct Args {
  std::string workload, input, out;
  double seconds = 1;
  bool trace = false;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--input") a.input = value();
    else if (k == "--out") a.out = value();
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--setup-only") a.setup_only = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.input.empty() || a.out.empty())
    throw std::invalid_argument("--workload, --input and --out are required");
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The process's resident-memory high-water mark. Read after the first
/// operation (solo workloads) or pass (serve-mix), so it measures a fixed
/// amount of work: later solves can raise it through allocator reuse,
/// and how many fit in --seconds depends on the host's speed.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run(const Args& a) {
  Tracer tr;
  Obj out;
  out.put("workload", str(a.workload))
      .put("trace", a.trace ? "true" : "false")
      .put("compiler", str(std::string(PERFBENCH_COMPILER_ID) + " " + __VERSION__))
      .put("build_type", str(PERFBENCH_BUILD_TYPE));

  if (a.workload == "serve-mix") {
    const std::vector<MixJob> jobs = read_mix(a.input);
    if (a.setup_only) {
      const std::unique_ptr<core::SolveServer> srv = make_server(jobs.size());
      out.put("ready_s", num(mono_s()));
    } else {
      // A traced run makes an untraced pass first, for the tracing
      // overhead. Each pass builds its own server.
      const std::string first = serve_pass(jobs, tr).json();
      out.put("peak_rss_mb", num(peak_rss_mb()));
      if (a.trace) {
        tr.on = true;
        out.put("untraced", first).put("pass", serve_pass(jobs, tr).json());
      } else {
        out.put("pass", first);
      }
    }
  } else if (a.workload == "paper50" || a.workload == "ladder") {
    const std::string text = read_file(a.input);
    if (a.setup_only) {
      out.put("ready_s", num(mono_s()));
    } else {
      // Operations run back to back while the next one, taking as long
      // as the longest so far, still ends within --seconds (at least
      // one). A traced run alternates untraced and traced operations
      // and makes at least one of each.
      const bool ladder = a.workload == "ladder";
      std::vector<std::string> ops;
      const double start = now_s();
      double longest = 0;
      for (int op = 0;; ++op) {
        tr.on = a.trace && op % 2 == 1;
        const double t0 = now_s();
        Obj rec = ladder ? ladder_op(text, tr, op) : solve_op(text, tr, op);
        longest = std::max(longest, now_s() - t0);
        rec.put("traced", tr.on ? "true" : "false");
        ops.push_back(rec.json());
        if (op == 0) out.put("peak_rss_mb", num(peak_rss_mb()));
        const bool enough = now_s() - start + longest > a.seconds;
        if (enough && (!a.trace || op >= 1)) break;
      }
      out.put("ops", list(ops));
    }
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  out.put("spans", tr.json());
  std::ofstream os(a.out, std::ios::binary);
  os << out.json() << "\n";
  if (!os) throw std::runtime_error("cannot write " + a.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << "\n";
    return 1;
  }
}
