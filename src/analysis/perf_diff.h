// Machine-readable perf regression checking.
//
// Compares two BENCH_<scenario>.json documents (bench/bench_common.h
// emits them; schema "cellsweep-bench-v2") run by run and metric by
// metric. The contract mirrors perf-CI practice:
//   * schema-version or scenario mismatch is a hard error, never a
//     silent pass -- a layout change must come with a regenerated
//     baseline;
//   * fingerprint (problem size, iteration count, chip shape) mismatch
//     is a hard error: numbers from different experiments are not
//     comparable;
//   * compared metrics are lower-is-better (seconds, grind_seconds by
//     default); a run regresses when current > baseline * (1 +
//     threshold). Improvements never fail;
//   * the exact mode is for pure-function outputs (simulated time): a
//     metric passes only within kExactTolerance of its baseline, in
//     either direction, so an unexplained improvement fails too;
//   * JSON null metrics (the NaN contract of the emitters) and runs
//     missing a metric are skipped, not failed;
//   * one pass reports everything: gate failures do not stop the
//     metric comparison, so a single CI run shows every error and
//     every regressed metric at once.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace cellsweep::util {
class JsonValue;
}

namespace cellsweep::analysis {

/// The BENCH JSON layout version this differ understands.
inline constexpr const char* kBenchSchema = "cellsweep-bench-v2";

/// Relative deviation the exact mode allows: room for the last bits of
/// a printed double, none for a model change.
inline constexpr double kExactTolerance = 1e-12;

struct PerfDiffOptions {
  /// Allowed relative growth of a lower-is-better metric.
  double default_threshold = 0.25;
  /// Extra or overriding per-metric thresholds; metrics named here are
  /// compared in addition to the defaults.
  std::vector<std::pair<std::string, double>> metric_thresholds;
  /// Two-sided exact gate: every compared metric must match its
  /// baseline within kExactTolerance; the thresholds are not used.
  bool exact = false;
  /// Require structural equality of the "fingerprint" objects.
  bool check_fingerprint = true;
};

enum class DiffStatus : unsigned char {
  kOk,        ///< within threshold
  kImproved,  ///< current < baseline
  kRegressed, ///< current > baseline * (1 + threshold)
  kChanged,   ///< exact mode: off the baseline, in either direction
  kSkipped,   ///< metric null or absent on either side
};

const char* diff_status_name(DiffStatus s);

/// One (run, metric) comparison.
struct DiffRow {
  std::string run;
  std::string metric;
  double baseline = 0;
  double current = 0;
  double ratio = 0;      ///< current / baseline (0 when skipped)
  double threshold = 0;  ///< relative growth allowed
  DiffStatus status = DiffStatus::kSkipped;
  std::string note;      ///< why a row was skipped
};

struct PerfDiffResult {
  /// Populated even when errors is non-empty (the one-pass contract):
  /// whatever rows were structurally comparable are compared.
  std::vector<DiffRow> rows;
  /// Schema / scenario / fingerprint / structure errors, all of them.
  /// Non-empty means the documents were not comparable (exit code 2
  /// territory).
  std::vector<std::string> errors;

  /// True when a row failed its gate (regressed, or changed under the
  /// exact mode).
  bool regressed() const;
  bool ok() const { return errors.empty() && !regressed(); }
};

/// Diffs @p current against @p baseline. Both must be parsed
/// BENCH_*.json documents.
PerfDiffResult diff_bench(const util::JsonValue& current,
                          const util::JsonValue& baseline,
                          const PerfDiffOptions& opt = {});

}  // namespace cellsweep::analysis
