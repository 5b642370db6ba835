// Block replay (core/segment_memo.h) against full simulation.
//
// Replay is on by default and off whenever a machine observer is
// attached, so "memo off" is the same run with a bare observer (which
// sees every event and does nothing). Every pair below must agree byte
// for byte on the counter tree and the metrics JSON.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cellsim/observer.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/orchestrator.h"
#include "sweep/deck.h"
#include "sweep/quadrature.h"
#include "workloads/stencil/stencil.h"

namespace cellsweep {
namespace {

/// Under CELLSWEEP_HAZARD_CHECK every pipeline owns a checker, so
/// replay is off in both arms.
bool replay_possible() {
  return std::getenv("CELLSWEEP_HAZARD_CHECK") == nullptr;
}

void counters_text(const sim::CounterSet& set, const std::string& path,
                   std::string& out) {
  for (const auto& [name, value] : set.values()) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%a", value);
    out += path + "/" + name + " " + hex + "\n";
  }
  for (const sim::CounterSet& child : set.children())
    counters_text(child, path + "/" + child.name(), out);
}

/// Counter tree (exact bits) and metrics JSON of @p r.
std::string fingerprint(const core::RunReport& r) {
  std::string out;
  counters_text(r.counters, r.counters.name(), out);
  std::ostringstream os;
  core::write_metrics_json(os, r);
  return out + os.str();
}

/// Runs @p run(cfg) with replay on and with a bare observer attached
/// and expects identical fingerprints.
template <typename Run>
void expect_replay_exact(core::CellSweepConfig cfg, Run run,
                         const std::string& label) {
  const std::string replayed = fingerprint(run(cfg));
  cell::MachineObserver bare;
  cfg.hazard = &bare;
  const std::string simulated = fingerprint(run(cfg));
  EXPECT_EQ(replayed, simulated) << label;
}

core::RunReport run_deck(const sweep::Deck& deck, core::CellSweepConfig cfg,
                         core::RunMode mode) {
  cfg.sweep = deck.sweep;
  core::CellSweep3D runner(deck.problem, cfg, deck.sn_order, deck.l_max(),
                           deck.nm_cap);
  return runner.run(mode);
}

// The paper deck at 20^3: same blocking, iterations and fixup switch.
constexpr const char* kReducedPaperDeck =
    "it 20  jt 20  kt 20\ndx 0.1  dy 0.1  dz 0.1\nmk 10  mmi 3\n"
    "sn 6  moments 6\niterations 12  fixup_from 10\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

TEST(SegmentMemo, EveryLadderStageMatchesFullSimulation) {
  const sweep::Deck deck = sweep::parse_deck_string(kReducedPaperDeck);
  for (int s = 0; s <= static_cast<int>(core::OptimizationStage::kFutureSingle);
       ++s) {
    const auto stage = static_cast<core::OptimizationStage>(s);
    expect_replay_exact(
        core::CellSweepConfig::from_stage(stage),
        [&](const core::CellSweepConfig& cfg) {
          return run_deck(deck, cfg, core::RunMode::kTraceDriven);
        },
        core::stage_name(stage));
  }
}

TEST(SegmentMemo, ReflectiveFunctionalSolveMatchesFullSimulation) {
  // examples/decks/shield_reflected.deck: fixups on from the first
  // iteration, so the kernel price changes wherever a diagonal needs
  // them -- mid-run, block by block.
  const sweep::Deck deck = sweep::parse_deck_string(
      "it 32  jt 32  kt 32\ndx 0.125  dy 0.125  dz 0.125\nmk 8  mmi 3\n"
      "iterations 40  fixup_from 0  epsilon 1e-8\n"
      "material air    0.05 0.04 0.01 source 0.0\n"
      "material source 0.8  0.3  0.1  source 10.0\n"
      "material shield 8.0  0.4  0.0  source 0.0\n"
      "region 1 0 6 0 6 0 6\nregion 2 12 20 0 32 0 32\n"
      "bc bottom reflective\n");
  expect_replay_exact(
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke),
      [&](const core::CellSweepConfig& cfg) {
        return run_deck(deck, cfg, core::RunMode::kFunctional);
      },
      "shield_reflected");
}

TEST(SegmentMemo, StencilMatchesFullSimulation) {
  const stencil::StencilSpec spec = stencil::parse_spec_string(
      "nx 32 ny 32 nz 32\nbx 8 by 8 bz 8\niterations 4\nh 1.0\n"
      "source 1.0\n");
  expect_replay_exact(
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke),
      [&](const core::CellSweepConfig& cfg) {
        return stencil::CellStencil(spec, cfg)
            .run(core::RunMode::kFunctional)
            .run;
      },
      "heat32 stencil");
}

TEST(SegmentMemo, DegradedSpeRunMatchesFullSimulation) {
  const sweep::Deck deck = sweep::parse_deck_string(kReducedPaperDeck);
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cfg.faults = sim::parse_fault_spec("seed=42,spe=7:down");
  expect_replay_exact(
      cfg,
      [&](const core::CellSweepConfig& c) {
        return run_deck(deck, c, core::RunMode::kTraceDriven);
      },
      "spe=7:down");
}

TEST(SegmentMemo, ClusterTileRunMatchesFullSimulation) {
  // examples/cell_cluster: horizon() and gate() between blocks.
  core::ClusterConfig cluster;
  cluster.chip =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cluster.chip.sweep.mk = 6;
  cluster.chip.sweep.max_iterations = 3;
  cluster.chip.sweep.fixup_from_iteration = 2;
  const sweep::Grid global{24, 24, 24, 0.1, 0.1, 0.1};
  const core::ClusterReport replayed = core::simulate_cluster(global, cluster);
  cell::MachineObserver bare;
  cluster.chip.hazard = &bare;
  const core::ClusterReport simulated = core::simulate_cluster(global, cluster);
  EXPECT_EQ(replayed.rank_seconds, simulated.rank_seconds);
  EXPECT_EQ(replayed.seconds, simulated.seconds);
  EXPECT_EQ(replayed.tile_seconds, simulated.tile_seconds);
  EXPECT_EQ(replayed.speedup_vs_one_chip, simulated.speedup_vs_one_chip);
}

TEST(SegmentMemo, PaperDeckReplaysMostBlocks) {
  if (!replay_possible())
    GTEST_SKIP() << "CELLSWEEP_HAZARD_CHECK turns replay off";
  // benchmark50 at the shipped stage: 12 iterations x 8 octants x 2
  // angle blocks x 5 K-blocks = 960 blocks.
  const sweep::Deck deck = sweep::parse_deck_string(
      "it 50  jt 50  kt 50\ndx 0.04  dy 0.04  dz 0.04\nmk 10  mmi 3\n"
      "sn 6  moments 6\niterations 12  fixup_from 10\n"
      "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n");
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cfg.sweep = deck.sweep;
  const sweep::Grid& grid = deck.problem.grid();
  core::TimingEngine engine(cfg, grid, deck.moments());
  const sweep::SnQuadrature quad(deck.sn_order);
  for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter)
    core::enumerate_sweep(grid, quad.angles_per_octant(), cfg.sweep,
                          iter >= cfg.sweep.fixup_from_iteration,
                          [&](const sweep::DiagonalWork& w) {
                            engine.on_diagonal(w);
                          });
  const core::RunReport r = engine.finish();
  const core::SegmentMemoStats st = engine.memo_stats();
  EXPECT_EQ(st.replayed + st.simulated, 960u);
  EXPECT_GE(st.replayed, 900u);
  EXPECT_EQ(r.chunks, 387840u);
}

TEST(SegmentMemo, ObserversTurnReplayOff) {
  const sweep::Deck deck = sweep::parse_deck_string(kReducedPaperDeck);
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cfg.sweep = deck.sweep;
  cell::MachineObserver bare;
  cfg.hazard = &bare;
  core::TimingEngine engine(cfg, deck.problem.grid(), deck.moments());
  const sweep::SnQuadrature quad(deck.sn_order);
  core::enumerate_sweep(deck.problem.grid(), quad.angles_per_octant(),
                        cfg.sweep, false, [&](const sweep::DiagonalWork& w) {
                          engine.on_diagonal(w);
                        });
  engine.finish();
  EXPECT_EQ(engine.memo_stats().replayed, 0u);
  EXPECT_EQ(engine.memo_stats().simulated, 0u);
}

}  // namespace
}  // namespace cellsweep
