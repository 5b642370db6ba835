// Ablation: synchronization protocol at each kernel stage.
//
// Crosses the three PPE<->SPE sync protocols (mailbox, direct LS poke,
// distributed atomic) with the scalar and SIMD kernels, isolating how
// much of each Figure 5 / Figure 10 step is protocol vs compute.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cellsweep;
  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);
  if (!opt.ok) return 2;
  bench::print_header("Ablation: sync protocol x kernel (" +
                      std::to_string(opt.cube) + "^3)");

  util::TextTable table(
      {"kernel", "sync protocol", "run time [s]", "grants"});
  bench::BenchJson json("ablation_sync", opt.cube);
  for (core::KernelKind kernel :
       {core::KernelKind::kScalar, core::KernelKind::kSimd}) {
    for (cell::SyncProtocol sync :
         {cell::SyncProtocol::kMailbox, cell::SyncProtocol::kLsPoke,
          cell::SyncProtocol::kAtomicDistributed}) {
      const sweep::Problem problem = sweep::Problem::benchmark_cube(opt.cube);
      core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(
          core::OptimizationStage::kSpeLsPoke);
      cfg.kernel = kernel;
      cfg.sync = sync;
      core::CellSweep3D runner(problem, cfg);
      const core::RunReport r = runner.run(core::RunMode::kTraceDriven);
      json.add_run(std::string(kernel == core::KernelKind::kScalar
                                   ? "scalar_"
                                   : "simd_") +
                       cell::sync_protocol_name(sync),
                   r);
      table.add_row(
          {kernel == core::KernelKind::kScalar ? "scalar" : "SIMD",
           cell::sync_protocol_name(sync), bench::fmt("%.3f", r.seconds),
           bench::fmt("%.0f", r.dispatch_busy_grants)});
    }
  }
  table.print(std::cout);
  std::cout << "\nProtocol cost only surfaces once the SIMD kernel removes\n"
               "the compute bottleneck -- the paper's Section 5 ordering.\n";
  if (!opt.json_dir.empty() && !json.write(opt.json_dir)) return 1;
  return 0;
}
