// Deck runner: the classic Sweep3D workflow -- point the binary at an
// input deck, get the solve and the simulated Cell performance report.
// --workload=stencil swaps the input grammar and runner for the
// red-black stencil workload on the same machine model.
//
//   $ ./deck_runner examples/decks/benchmark50.deck
//   $ ./deck_runner examples/decks/shield_reflected.deck --stage=simd
//   $ ./deck_runner examples/decks/benchmark50.deck --trace trace.json \
//         --metrics metrics.json     # chrome://tracing + JSON metrics
//   $ ./deck_runner examples/decks/benchmark50.deck --check   # hazard check
//   $ ./deck_runner lint examples/decks/*.deck                # static lint
//   $ ./deck_runner --workload=stencil examples/decks/heat32.stencil
//   $ ./deck_runner --workload=stencil lint examples/decks/*.stencil
//   $ ./deck_runner serve --tenants=2 a.deck b.deck heat32.stencil
//   $ ./deck_runner serve --metrics-out=prom.txt --metrics-interval=200 \
//         --trace jobs.json --metrics server.json \
//         --flight-recorder=flightrec a.deck b.deck   # server telemetry
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/diagnostics.h"
#include "analysis/hazard.h"
#include "analysis/lint.h"
#include "core/arrival.h"
#include "core/job_trace.h"
#include "core/metrics.h"
#include "core/metrics_registry.h"
#include "core/orchestrator.h"
#include "server/arrival_driver.h"
#include "server/solve_server.h"
#include "sim/counters.h"
#include "sim/trace.h"
#include "sweep/deck.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"
#include "workloads/stencil/stencil.h"

using namespace cellsweep;

namespace {

/// Prints every finding of @p diags to stderr, prefixed with @p source;
/// returns whether any of them is an error.
bool report_findings(const analysis::Diagnostics& diags,
                     const std::string& source) {
  for (const analysis::Diagnostic& d : diags.entries())
    std::cerr << source << ": " << d.to_string() << "\n";
  return diags.has_errors();
}

/// The --check verdict on the hazard checker's @p diags: prints the
/// findings and returns whether the run was clean.
bool hazard_clean(const analysis::Diagnostics& diags,
                  const std::string& source) {
  if (report_findings(diags, source)) {
    std::cerr << "deck_runner: hazard check failed with "
              << diags.error_count() << " error(s)\n";
    return false;
  }
  std::cout << "Hazard check: clean\n";
  return true;
}

/// `deck_runner [--workload=...] lint <file>...`: statically validate
/// inputs (chunk/block shape vs. LS budget, grammar consistency, DMA
/// legality) without running any simulation. Exit code is the number
/// of failing files.
int run_lint(const std::vector<std::string>& paths,
             core::OptimizationStage stage, const std::string& workload) {
  int failed = 0;
  for (const std::string& path : paths) {
    try {
      core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
      analysis::Diagnostics diags;
      std::string source = path;
      if (workload == "stencil") {
        const stencil::StencilSpec spec = stencil::load_spec(path);
        source = spec.origin;
        diags = analysis::lint_stencil(spec, cfg);
      } else {
        const sweep::Deck deck = sweep::load_deck(path);
        source = deck.source;
        cfg.sweep = deck.sweep;
        diags = analysis::lint_deck(deck, cfg);
      }
      if (report_findings(diags, source)) {
        ++failed;
      } else {
        std::cout << source << ": ok\n";
      }
    } catch (const sweep::DeckError& e) {
      std::cerr << path << ": error[parse]: " << e.what() << "\n";
      ++failed;
    } catch (const stencil::StencilError& e) {
      std::cerr << path << ": error[parse]: " << e.what() << "\n";
      ++failed;
    }
  }
  return failed;
}

/// The machine-side report both workloads share: headline timing, the
/// per-SPE stall breakdown, fault accounting, counter summary, and the
/// trace/metrics file outputs. Returns a process exit code.
int emit_report(const core::RunReport& rep, core::OptimizationStage stage,
                std::size_t profile_windows, const std::string& trace_path,
                const std::string& metrics_path,
                sim::ChromeTraceWriter& writer) {
  std::cout << "Cell (" << core::stage_name(stage)
            << "): " << util::format_seconds(rep.seconds) << ", "
            << util::format_bytes(rep.traffic_bytes) << " traffic, grind "
            << util::format_seconds(rep.grind_seconds) << "/solve, "
            << util::format_flops(rep.achieved_flops_per_s) << "\n";

  // Per-SPE stall breakdown: where the simulated time went.
  if (!rep.spe_stalls.empty()) {
    util::TextTable table(
        {"SPE", "busy [s]", "DMA wait [s]", "sync wait [s]", "idle [s]"});
    char buf[32];
    auto f = [&](double v) {
      std::snprintf(buf, sizeof buf, "%.3f", v);
      return std::string(buf);
    };
    for (std::size_t s = 0; s < rep.spe_stalls.size(); ++s) {
      const core::SpeStallSummary& st = rep.spe_stalls[s];
      table.add_row({"SPE" + std::to_string(s), f(st.busy_s),
                     f(st.dma_wait_s), f(st.sync_wait_s), f(st.idle_s)});
    }
    table.print(std::cout);
    std::cout << "MIC utilization " << util::format_percent(rep.mic_utilization)
              << ", EIB utilization "
              << util::format_percent(rep.eib_utilization) << "\n";
  }

  // --faults: what the injector actually did to this run.
  if (rep.faults.enabled) {
    std::cout << "Faults: " << rep.faults.spes_disabled
              << " SPE(s) disabled, " << rep.faults.spes_failed
              << " failed mid-sweep, " << rep.faults.redispatched_chunks
              << " chunk(s) re-dispatched; " << rep.faults.dma_retries
              << " DMA retries, " << rep.faults.tag_timeouts
              << " tag timeouts, " << rep.faults.dropped_messages
              << " dropped messages, " << rep.faults.mic_throttled
              << " throttled MIC requests\n";
  }

  // --counters: the aggregate hardware-counter summary plus the profile
  // shape. The full tree is in --metrics output.
  if (profile_windows != 0) {
    const sim::CounterSet* tot = rep.counters.find_child("spe_total");
    const sim::CounterSet* pipe = tot ? tot->find_child("pipeline") : nullptr;
    const sim::CounterSet* mfc = tot ? tot->find_child("mfc") : nullptr;
    if (pipe != nullptr) {
      const double issue = pipe->value("issue_cycles");
      std::cout << "SPU pipeline: "
                << static_cast<std::uint64_t>(pipe->value("instructions"))
                << " instructions, "
                << util::format_percent(pipe->value("dual_issues") /
                                        (issue > 0 ? issue : 1.0))
                << " dual-issue, "
                << static_cast<std::uint64_t>(pipe->value("flops"))
                << " flops\n";
    }
    if (mfc != nullptr) {
      std::cout << "MFC: "
                << static_cast<std::uint64_t>(mfc->value("commands"))
                << " commands ("
                << static_cast<std::uint64_t>(mfc->value("get_commands"))
                << " get / "
                << static_cast<std::uint64_t>(mfc->value("put_commands"))
                << " put / "
                << static_cast<std::uint64_t>(mfc->value("list_commands"))
                << " list), queue-full "
                << util::format_seconds(sim::seconds_from_ticks(
                       static_cast<sim::Tick>(mfc->value("queue_full_ticks"))))
                << "\n";
    }
    std::cout << "Profile: " << rep.timeseries.window_count()
              << " windows of "
              << util::format_seconds(
                     sim::seconds_from_ticks(rep.timeseries.window_ticks))
              << "\n";
  }

  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "deck_runner: cannot write trace file " << trace_path
                << "\n";
      return 1;
    }
    writer.write(os);
    std::cout << "Trace: " << writer.event_count() << " events on "
              << writer.track_count() << " tracks -> " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      std::cerr << "deck_runner: cannot write metrics file " << metrics_path
                << "\n";
      return 1;
    }
    core::write_metrics_json(os, rep);
    std::cout << "Metrics -> " << metrics_path << "\n";
  }
  return 0;
}

/// `deck_runner serve [flags] <file>...`: run every input through one
/// multi-tenant core::SolveServer. Files ending in ".stencil" become
/// stencil jobs, everything else a sweep deck. Exit code is the number
/// of rejected plus failed jobs.
int run_serve(const util::CliParser& cli, core::OptimizationStage stage) {
  const std::vector<std::string> paths(cli.positional().begin() + 1,
                                       cli.positional().end());
  if (paths.empty()) {
    std::cerr << "deck_runner serve: no input files given\n";
    return 1;
  }

  core::ServerConfig scfg;
  scfg.stage = stage;
  std::string metrics_out, metrics_path, trace_path, faults_arg;
  std::string arrivals_arg, weights_arg, quotas_arg;
  double arrival_time_scale = 0.0;
  long interval_ms = 0;
  try {
    scfg.tenants = static_cast<int>(cli.get_int("tenants"));
    scfg.queue_limit = static_cast<std::size_t>(
        std::max(1L, cli.get_int("queue")));
    scfg.ls_budget_bytes =
        static_cast<std::size_t>(std::max(0L, cli.get_int("ls-budget")));
    scfg.grid_cell_budget = cli.get_int("grid-budget");
    scfg.host_threads = static_cast<int>(cli.get_int("threads"));
    scfg.flight_recorder_path = cli.get_string("flight-recorder");
    metrics_out = cli.get_string("metrics-out");
    interval_ms = std::max(0L, cli.get_int("metrics-interval"));
    metrics_path = cli.get_string("metrics");
    trace_path = cli.get_string("trace");
    faults_arg = cli.get_string("faults");
    arrivals_arg = cli.get_string("arrivals");
    arrival_time_scale = cli.get_double("arrival-time-scale");
    weights_arg = cli.get_string("weights");
    quotas_arg = cli.get_string("quotas");
  } catch (const util::CliError& e) {
    std::cerr << "deck_runner serve: " << e.what() << "\n";
    return 1;
  }
  if (!faults_arg.empty()) {
    try {
      scfg.faults = sim::parse_fault_spec(faults_arg);
    } catch (const sim::FaultSpecError& e) {
      std::cerr << "deck_runner serve: --faults: " << e.what() << "\n";
      return 1;
    }
  }
  // --weights / --quotas: comma-separated per-tenant QoS knobs, indexed
  // by tenant worker id (see ServerConfig).
  const auto parse_int_list = [](const std::string& flag,
                                 const std::string& text,
                                 std::vector<int>& out) {
    std::size_t from = 0;
    while (from <= text.size()) {
      const std::size_t at = text.find(',', from);
      const std::string tok =
          text.substr(from, at == std::string::npos ? at : at - from);
      try {
        std::size_t used = 0;
        const int v = std::stoi(tok, &used);
        if (used != tok.size()) throw std::invalid_argument(tok);
        out.push_back(v);
      } catch (const std::exception&) {
        std::cerr << "deck_runner serve: --" << flag << ": '" << tok
                  << "' is not an integer\n";
        return false;
      }
      if (at == std::string::npos) break;
      from = at + 1;
    }
    return true;
  };
  if (!weights_arg.empty() &&
      !parse_int_list("weights", weights_arg, scfg.tenant_weights))
    return 1;
  if (!quotas_arg.empty() &&
      !parse_int_list("quotas", quotas_arg, scfg.tenant_quotas))
    return 1;
  core::ArrivalPlan arrival_plan;
  if (!arrivals_arg.empty()) {
    try {
      arrival_plan = core::ArrivalPlan(core::parse_arrival_spec(arrivals_arg));
    } catch (const core::ArrivalSpecError& e) {
      std::cerr << "deck_runner serve: --arrivals: " << e.what() << "\n";
      return 1;
    }
  }
  const core::RunMode mode = cli.get_bool("functional")
                                 ? core::RunMode::kFunctional
                                 : core::RunMode::kTraceDriven;

  core::SolveServer server(scfg);
  std::cout << "Serving " << paths.size() << " job(s) on " << scfg.tenants
            << " tenant(s), stage " << core::stage_name(stage) << "\n";

  // --metrics-out: Prometheus text exposition snapshots. With a
  // positive --metrics-interval a poller thread overwrites the file
  // every interval while jobs run; the final snapshot is always
  // written after the drain either way.
  const auto write_exposition = [&server, &metrics_out] {
    if (metrics_out.empty()) return;
    std::ofstream os(metrics_out);
    if (os) core::write_prometheus(os, server.metrics_snapshot());
  };
  std::atomic<bool> poll_stop{false};
  std::thread poller;
  if (!metrics_out.empty() && interval_ms > 0) {
    poller = std::thread([&] {
      while (!poll_stop.load(std::memory_order_relaxed)) {
        write_exposition();
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    });
  }

  // Load every input up front; the arrivals replay reuses them in a
  // cycle, the default path submits each exactly once.
  struct Input {
    std::string path;
    core::JobKind kind = core::JobKind::kSweep;
    std::string text;
    bool ok = false;
  };
  std::vector<Input> inputs;
  int rejected = 0;
  for (const std::string& path : paths) {
    Input in;
    in.path = path;
    in.kind = path.size() >= 8 &&
                      path.compare(path.size() - 8, 8, ".stencil") == 0
                  ? core::JobKind::kStencil
                  : core::JobKind::kSweep;
    std::ifstream is(path);
    if (is) {
      std::ostringstream text;
      text << is.rdbuf();
      in.text = text.str();
      in.ok = true;
    } else {
      std::cerr << path << ": error[io]: cannot open file\n";
      ++rejected;
    }
    inputs.push_back(std::move(in));
  }

  if (arrival_plan.enabled()) {
    // Open-system mode: replay the seeded arrival schedule, cycling
    // through the (readable) input files. --arrival-time-scale
    // stretches the schedule onto the wall clock; 0 replays flat-out
    // (deterministic submission order either way -- the plan's).
    std::vector<const Input*> usable;
    for (const Input& in : inputs)
      if (in.ok) usable.push_back(&in);
    if (usable.empty()) {
      std::cerr << "deck_runner serve: --arrivals needs at least one "
                   "readable input file\n";
      return 1;
    }
    core::ArrivalDriver driver(
        server, arrival_plan,
        [&usable, mode](const core::Arrival& a, std::uint64_t k) {
          const Input& in = *usable[static_cast<std::size_t>(k) %
                                    usable.size()];
          core::JobRequest req;
          req.kind = in.kind;
          req.text = in.text;
          req.mode = mode;
          req.name = in.path + "#" + std::to_string(k) + "-t" +
                     std::to_string(a.tenant);
          return req;
        },
        arrival_time_scale);
    std::cout << "Replaying " << arrival_plan.total()
              << " arrival(s) over " << usable.size() << " input file(s)\n";
    driver.start();
    driver.join();
    const core::ArrivalDriver::Stats ds = driver.stats();
    rejected += static_cast<int>(ds.rejected);
    if (ds.rejected > 0)
      std::cerr << ds.rejected << " arrival(s) rejected at admission "
                << "(open-system loss)\n";
  } else {
    for (const Input& in : inputs) {
      if (!in.ok) continue;
      core::JobRequest req;
      req.name = in.path;
      req.mode = mode;
      req.kind = in.kind;
      req.text = in.text;
      try {
        server.submit(req);
      } catch (const core::AdmissionError& e) {
        std::cerr << in.path << ": rejected["
                  << core::admission_reason_name(e.reason()) << "]: "
                  << e.what() << "\n";
        ++rejected;
      }
    }
  }

  int failed = 0;
  for (const core::JobResult& r : server.drain()) {
    if (!r.ok) {
      ++failed;
      std::cerr << r.name << " (" << core::job_kind_name(r.kind)
                << "): error: " << r.error << "\n";
      continue;
    }
    std::cout << r.name << " (" << core::job_kind_name(r.kind)
              << "): " << util::format_seconds(r.report.seconds) << ", "
              << util::format_bytes(r.report.traffic_bytes) << " traffic, "
              << util::format_flops(r.report.achieved_flops_per_s)
              << (r.plan_cache_hit ? ", plan cache hit" : "") << "\n";
    if (r.kind == core::JobKind::kStencil &&
        mode == core::RunMode::kFunctional) {
      std::cout << "  checksum " << r.checksum << ", residual " << r.residual
                << "\n";
    }
  }

  if (poller.joinable()) {
    poll_stop.store(true, std::memory_order_relaxed);
    poller.join();
  }
  write_exposition();
  if (!metrics_out.empty())
    std::cout << "Prometheus exposition -> " << metrics_out << "\n";

  // --trace in serve mode: the host-time job-lifecycle timeline
  // (admission + per-tenant tracks), not a simulated-machine trace.
  if (!trace_path.empty()) {
    sim::ChromeTraceWriter writer;
    core::write_job_trace_events(writer, server.traced_jobs());
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "deck_runner serve: cannot write trace file " << trace_path
                << "\n";
      return 1;
    }
    writer.write(os);
    std::cout << "Job trace: " << writer.event_count() << " events on "
              << writer.track_count() << " tracks -> " << trace_path << "\n";
  }

  // --metrics in serve mode: the server telemetry document (schema v4
  // with the "server" section populated).
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      std::cerr << "deck_runner serve: cannot write metrics file "
                << metrics_path << "\n";
      return 1;
    }
    core::write_server_metrics_json(os, server);
    std::cout << "Server metrics -> " << metrics_path << "\n";
  }

  const core::SolveServer::Stats st = server.stats();
  const core::PlanCache::Stats pc = server.plan_cache_stats();
  const core::SpeAllocator::Stats al = server.allocator_stats();
  std::cout << "Server: " << st.submitted << " submitted, " << st.completed
            << " completed, " << st.failed << " failed, " << st.rejected
            << " rejected\n"
            << "Plan cache: " << pc.hits << " hit(s), " << pc.misses
            << " miss(es), " << pc.evictions << " eviction(s), "
            << pc.entries << " plan(s)\n"
            << "SPE allocator: " << al.claims << " claim(s), " << al.expands
            << " expand(s), " << al.shrinks << " shrink(s), "
            << al.waited_claims << " waited, peak " << al.peak_tenants
            << " tenant(s)\n";

  // Per-tenant latency summary from the metrics registry.
  {
    const core::MetricsRegistry::Snapshot snap = server.metrics_snapshot();
    const auto hist_pct = [&snap](const char* fam, const std::string& label,
                                  double p) {
      const core::MetricsRegistry::Family* f = snap.find(fam);
      const core::MetricsRegistry::Entry* e = f ? f->find(label) : nullptr;
      return e ? e->hist.percentile(p) : std::nan("");
    };
    const auto counter = [&snap](const char* fam, const std::string& label) {
      const core::MetricsRegistry::Family* f = snap.find(fam);
      const core::MetricsRegistry::Entry* e = f ? f->find(label) : nullptr;
      return e ? e->value : 0.0;
    };
    const auto sec = [](double v) {
      if (!std::isfinite(v)) return std::string("-");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f", v);
      return std::string(buf);
    };
    util::TextTable table({"tenant", "done", "failed", "queue p50 [s]",
                           "queue p99 [s]", "service p50 [s]",
                           "service p95 [s]", "service p99 [s]"});
    for (int t = 0; t < scfg.tenants; ++t) {
      const std::string label = "tenant=\"" + std::to_string(t) + "\"";
      table.add_row(
          {"tenant-" + std::to_string(t),
           std::to_string(static_cast<long long>(
               counter("cellsweep_jobs_completed_total", label))),
           std::to_string(static_cast<long long>(
               counter("cellsweep_jobs_failed_total", label))),
           sec(hist_pct("cellsweep_queue_wait_seconds", label, 0.50)),
           sec(hist_pct("cellsweep_queue_wait_seconds", label, 0.99)),
           sec(hist_pct("cellsweep_service_seconds", label, 0.50)),
           sec(hist_pct("cellsweep_service_seconds", label, 0.95)),
           sec(hist_pct("cellsweep_service_seconds", label, 0.99))});
    }
    table.print(std::cout);
  }
  return rejected + failed;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Run a CellSweep input deck");
  cli.add_flag("workload", "sweep",
               "input workload: sweep (Sweep3D decks) | stencil "
               "(red-black stencil specs)");
  cli.add_flag("stage", "final",
               "optimization stage: ppe | initial | simd | final, or a "
               "ladder slug (ppe-gcc ... future-single)");
  cli.add_flag("check", "false",
               "attach the machine-model hazard checker; protocol "
               "violations become hard errors");
  cli.add_flag("functional", "true",
               "solve the physics (false: timing only)");
  cli.add_flag("threads", "1",
               "host threads for the functional solve (results are "
               "bitwise identical for any value)");
  cli.add_flag("trace", "",
               "write a Chrome trace-event JSON of the simulated run "
               "(load in chrome://tracing or ui.perfetto.dev); in serve "
               "mode: the host-time job-lifecycle timeline instead");
  cli.add_flag("metrics", "",
               "write run metrics (timing, stall breakdown, DMA "
               "histograms) as JSON; in serve mode: the server "
               "telemetry document");
  cli.add_flag("counters", "false",
               "attach the time-sliced profiler and print a hardware "
               "counter summary; --counters=N sets the profile window "
               "count (default 96). Counters and the utilization "
               "timeseries also land in --metrics and --trace output");
  cli.add_flag("tenants", "2",
               "serve: concurrent tenant workers sharing the chip");
  cli.add_flag("queue", "64",
               "serve: pending jobs admitted before submit rejects");
  cli.add_flag("ls-budget", "0",
               "serve: admission budget on the per-SPE simulated-LS "
               "footprint in bytes (0 = linter capacity check only)");
  cli.add_flag("grid-budget", "0",
               "serve: admission budget on grid cells (0 = unlimited)");
  cli.add_flag("metrics-out", "",
               "serve: write Prometheus text-exposition snapshots of the "
               "server metrics to this file");
  cli.add_flag("metrics-interval", "0",
               "serve: overwrite --metrics-out every N milliseconds while "
               "jobs run (0 = final snapshot only)");
  cli.add_flag("flight-recorder", "",
               "serve: dump the event ring to <prefix>-<ms>-<n>.json on "
               "job failure, queue-full or fault failover");
  cli.add_flag("faults", "",
               "seeded fault injection, e.g. "
               "--faults=seed=42,dma=0.001,spe=7:down (keys: seed, dma, "
               "timeout, drop, throttle, retries, spe). The run degrades "
               "gracefully and reports the cost; same seed => identical "
               "schedule");
  cli.add_flag("arrivals", "",
               "serve: replay a seeded open-system arrival schedule "
               "instead of submitting each input once, cycling through "
               "the input files, e.g. --arrivals=seed=42,tenant=0:rate:"
               "8:24,tenant=1:burst:6 (kinds: rate | burst | trace; same "
               "seed => identical schedule)");
  cli.add_flag("arrival-time-scale", "0",
               "serve: seconds of wall clock per scheduled second of "
               "--arrivals (0 = replay flat-out)");
  cli.add_flag("weights", "",
               "serve: comma-separated per-tenant QoS weights (fair SPE "
               "share scales with weight; running lower-weight jobs "
               "yield at chunk granularity). Empty = all equal");
  cli.add_flag("quotas", "",
               "serve: comma-separated per-tenant SPE caps (<= 0 = "
               "uncapped)");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage(argv[0]);
    return 1;
  }
  if (cli.help_requested() || cli.positional().empty()) {
    std::cout << cli.usage(argv[0]) << "\nUsage: " << argv[0]
              << " <deck file> [flags]\n       " << argv[0]
              << " lint <deck file>...\n       " << argv[0]
              << " serve <deck/spec file>... [--tenants=N]\n       "
              << argv[0] << " --workload=stencil <spec file> [flags]\n";
    return cli.help_requested() ? 0 : 1;
  }

  const std::string workload = [&] {
    try {
      const std::string w = cli.get_string("workload");
      if (w != "sweep" && w != "stencil")
        throw util::CliError("unknown workload '" + w +
                             "' (valid: sweep, stencil)");
      return w;
    } catch (const util::CliError& e) {
      std::cerr << "deck_runner: " << e.what() << "\n";
      std::exit(1);
    }
  }();

  const core::OptimizationStage stage = [&] {
    try {
      return core::parse_stage(cli.get_string("stage"));
    } catch (const std::invalid_argument& e) {
      std::cerr << "deck_runner: --stage: " << e.what() << "\n";
      std::exit(1);
    }
  }();

  if (cli.positional()[0] == "lint") {
    std::vector<std::string> paths(cli.positional().begin() + 1,
                                   cli.positional().end());
    if (paths.empty()) {
      std::cerr << "deck_runner lint: no input files given\n";
      return 1;
    }
    return run_lint(paths, stage, workload);
  }

  if (cli.positional()[0] == "serve") return run_serve(cli, stage);

  std::string trace_path, metrics_path, counters_arg, faults_arg;
  int threads = 1;
  try {
    threads = static_cast<int>(cli.get_int("threads"));
    trace_path = cli.get_string("trace");
    metrics_path = cli.get_string("metrics");
    counters_arg = cli.get_string("counters");
    faults_arg = cli.get_string("faults");
  } catch (const util::CliError& e) {
    std::cerr << "deck_runner: " << e.what() << "\n" << cli.usage(argv[0]);
    return 1;
  }
  if (threads < 1) {
    std::cerr << "deck_runner: --threads must be a positive integer\n";
    return 1;
  }
  std::size_t profile_windows = 0;  // 0: profiler off
  if (counters_arg != "false") {
    if (counters_arg == "true") {
      profile_windows = 96;
    } else {
      char* rest = nullptr;
      const unsigned long n = std::strtoul(counters_arg.c_str(), &rest, 10);
      if (rest == nullptr || *rest != '\0' || n < 2) {
        std::cerr << "deck_runner: --counters wants a window count >= 2, "
                     "got '" << counters_arg << "'\n";
        return 1;
      }
      profile_windows = static_cast<std::size_t>(n);
    }
  }

  // The profiler outlives the writer's final write() below: the counter
  // events it emits reference its track names by pointer.
  sim::TimeSlicedProfiler profiler(profile_windows == 0 ? 96
                                                        : profile_windows);
  sim::ChromeTraceWriter writer;
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
  if (!trace_path.empty()) cfg.trace_sink = &writer;
  if (profile_windows != 0) cfg.profiler = &profiler;
  if (!faults_arg.empty()) {
    try {
      cfg.faults = sim::parse_fault_spec(faults_arg);
    } catch (const sim::FaultSpecError& e) {
      std::cerr << "deck_runner: --faults: " << e.what() << "\n";
      return 1;
    }
  }
  const bool check = cli.get_bool("check");
  analysis::Diagnostics diags;
  analysis::HazardChecker checker(&diags, cfg.chip);

  if (workload == "stencil") {
    const stencil::StencilSpec spec = [&] {
      try {
        return stencil::load_spec(cli.positional()[0]);
      } catch (const stencil::StencilError& e) {
        std::cerr << e.what() << "\n";
        std::exit(1);
      }
    }();
    std::cout << "Stencil: " << spec.nx << "x" << spec.ny << "x" << spec.nz
              << ", blocks " << spec.bx << "x" << spec.by << "x" << spec.bz
              << " (" << spec.blocks() << "), " << spec.iterations
              << " iteration(s)\n";

    // Lint first: a spec the linter rejects is one the runner would
    // fail on. --check then observes the run with the hazard checker;
    // any finding is a hard error.
    if (report_findings(analysis::lint_stencil(spec, cfg), spec.origin))
      return 1;
    if (check) cfg.hazard = &checker;

    stencil::CellStencil runner(spec, cfg);
    const core::RunMode mode = cli.get_bool("functional")
                                   ? core::RunMode::kFunctional
                                   : core::RunMode::kTraceDriven;
    const stencil::StencilReport rep = [&] {
      try {
        return runner.run(mode, threads);
      } catch (const sim::FaultError& e) {
        std::cerr << "deck_runner: " << e.what() << "\n";
        std::exit(1);
      }
    }();
    if (mode == core::RunMode::kFunctional) {
      std::cout << "Solve: " << rep.updates << " updates, checksum "
                << rep.checksum << ", residual " << rep.residual << "\n";
    }
    if (check && !hazard_clean(diags, spec.origin)) return 1;
    return emit_report(rep.run, stage, profile_windows, trace_path,
                       metrics_path, writer);
  }

  sweep::Deck deck = [&] {
    try {
      return sweep::load_deck(cli.positional()[0]);
    } catch (const sweep::DeckError& e) {
      std::cerr << e.what() << "\n";
      std::exit(1);
    }
  }();

  const auto& g = deck.problem.grid();
  std::cout << "Deck: " << g.it << "x" << g.jt << "x" << g.kt << ", "
            << deck.problem.materials().size() << " material(s), S"
            << deck.sn_order << ", " << deck.nm_cap << " moments, MK="
            << deck.sweep.mk << " MMI=" << deck.sweep.mmi << "\n";

  deck.sweep.threads = threads;
  cfg.sweep = deck.sweep;

  // Lint first: a deck the linter rejects is one the runner would fail
  // on. --check then observes the run with the hazard checker; any
  // finding is a hard error.
  if (report_findings(analysis::lint_deck(deck, cfg), deck.source)) return 1;
  if (check) cfg.hazard = &checker;

  // Reflective decks need the functional solver for physics.
  const core::RunMode mode =
      deck.problem.any_reflective() || cli.get_bool("functional")
          ? core::RunMode::kFunctional
          : core::RunMode::kTraceDriven;
  core::CellSweep3D runner(deck.problem, cfg, deck.sn_order, deck.l_max(),
                           deck.nm_cap);
  const core::RunReport rep = [&] {
    try {
      return runner.run(mode);
    } catch (const sim::FaultError& e) {
      std::cerr << "deck_runner: " << e.what() << "\n";
      std::exit(1);
    }
  }();
  if (rep.solve) {
    const sweep::SolveResult& r = *rep.solve;
    std::cout << "Solve: " << r.iterations << " iterations, change "
              << r.final_change << (r.converged ? " (converged)" : "")
              << "; absorption " << rep.absorption << ", leakage "
              << rep.leakage.total() << ", fixup cells "
              << r.totals.fixup_cells << "\n";
  }
  if (check && !hazard_clean(diags, deck.source)) return 1;
  return emit_report(rep, stage, profile_windows, trace_path, metrics_path,
                     writer);
}
