// Ablation: staging-buffer depth x bank offsets.
//
// Separates the two memory-system optimizations Figure 5 folds into
// larger steps: double buffering (3.03 -> 2.88 s) and the bank-offset
// allocation (part of the 1.68 -> 1.48 s step).
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cellsweep;
  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);
  if (!opt.ok) return 2;
  bench::print_header("Ablation: buffering depth x bank offsets (" +
                      std::to_string(opt.cube) + "^3)");

  util::TextTable table({"kernel", "buffers", "bank offsets", "run time [s]",
                         "LS used [KB]", "MIC busy [s]"});
  bench::BenchJson json("ablation_buffering", opt.cube);
  for (core::KernelKind kernel :
       {core::KernelKind::kScalar, core::KernelKind::kSimd}) {
    for (int buffers : {1, 2}) {
      for (bool offsets : {false, true}) {
        const sweep::Problem problem =
            sweep::Problem::benchmark_cube(opt.cube);
        core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(
            core::OptimizationStage::kSpeLsPoke);
        cfg.kernel = kernel;
        cfg.buffers = buffers;
        cfg.bank_offsets = offsets;
        core::CellSweep3D runner(problem, cfg);
        const core::RunReport r = runner.run(core::RunMode::kTraceDriven);
        json.add_run(std::string(kernel == core::KernelKind::kScalar
                                     ? "scalar"
                                     : "simd") +
                         "_buf" + std::to_string(buffers) +
                         (offsets ? "_offsets" : "_flat"),
                     r);
        table.add_row(
            {kernel == core::KernelKind::kScalar ? "scalar" : "SIMD",
             bench::fmt("%.0f", buffers), offsets ? "yes" : "no",
             bench::fmt("%.3f", r.seconds),
             bench::fmt("%.0f", r.ls_high_water / 1024.0),
             bench::fmt("%.3f", r.mic_busy_s)});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nDouble buffering trades local store for overlap; bank\n"
               "offsets recover DRAM bandwidth independent of the kernel.\n";
  if (!opt.json_dir.empty() && !json.write(opt.json_dir)) return 1;
  return 0;
}
