// Tests for the static deck linter: a clean deck lints clean, and
// decks that would blow the local-store budget, the tag-group space or
// the CBEA DMA rules are rejected before any simulation runs. The
// agreement tests run the real runners next to the linters: a verdict
// must match what the runner does, and the DMA commands lint validates
// must be the ones the pipeline submits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/lint.h"
#include "cellsim/observer.h"
#include "core/config.h"
#include "core/orchestrator.h"
#include "moment_decks.h"
#include "sweep/deck.h"
#include "workloads/stencil/stencil.h"

namespace cellsweep {
namespace {

const char* kGoodDeck = R"(
it 32  jt 32  kt 32
dx 0.125  dy 0.125  dz 0.125
mk 8  mmi 3
sn 6  moments 6
iterations 4  fixup_from 2
material m 1.0 0.5 0.2 0.05 source 1.0
)";

sweep::Deck deck_with(const std::string& extra) {
  return sweep::parse_deck_string(std::string(kGoodDeck) + extra);
}

core::CellSweepConfig final_stage() {
  return core::CellSweepConfig::from_stage(
      core::OptimizationStage::kSpeLsPoke);
}

bool has_rule(const analysis::Diagnostics& diags, const std::string& rule) {
  for (const analysis::Diagnostic& d : diags.entries())
    if (d.rule == rule) return true;
  return false;
}

TEST(Lint, CleanDeckLintsClean) {
  const sweep::Deck deck = deck_with("");
  const analysis::Diagnostics diags = analysis::lint_deck(deck, final_stage());
  EXPECT_TRUE(diags.empty()) << diags.summary();
}

TEST(Lint, EveryLadderStageAcceptsTheBenchmarkDeck) {
  const sweep::Deck deck = sweep::parse_deck_string(R"(
it 50  jt 50  kt 50
dx 0.04  dy 0.04  dz 0.04
mk 10  mmi 3
sn 6  moments 6
iterations 12  fixup_from 10
material benchmark 1.0 0.5 0.2 0.05 source 1.0
)");
  for (const core::OptimizationStage stage : {
           core::OptimizationStage::kPpeXlc,
           core::OptimizationStage::kSpeInitial,
           core::OptimizationStage::kSpeBuffered,
           core::OptimizationStage::kSpeLsPoke,
           core::OptimizationStage::kFutureBigDma,
           core::OptimizationStage::kFutureDistributed,
       }) {
    core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
    cfg.sweep = deck.sweep;
    const analysis::Diagnostics diags = analysis::lint_deck(deck, cfg);
    EXPECT_TRUE(diags.empty())
        << core::stage_name(stage) << ":\n"
        << diags.summary();
  }
}

TEST(Lint, OversizedChunkBlowsLsBudget) {
  // A 4000-cell I axis makes one chunk's staging buffer alone exceed
  // 256 KB -- the paper's Section 2 budgeting failure mode. The
  // diagnostic must name the byte counts and the buffer count.
  const sweep::Deck deck = sweep::parse_deck_string(R"(
it 4000  jt 8  kt 8
dx 0.04  dy 0.04  dz 0.04
mk 8  mmi 3
sn 6  moments 6
iterations 2  fixup_from 1
material m 1.0 0.5 0.2 0.05 source 1.0
)");
  const analysis::Diagnostics diags = analysis::lint_deck(deck, final_stage());
  ASSERT_TRUE(has_rule(diags, "ls-budget")) << diags.summary();
  EXPECT_TRUE(diags.has_errors());
  for (const analysis::Diagnostic& d : diags.entries()) {
    if (d.rule != "ls-budget") continue;
    EXPECT_NE(d.message.find("staging buffer"), std::string::npos);
    EXPECT_NE(d.message.find("local store"), std::string::npos);
    EXPECT_NE(d.where.find("it 4000"), std::string::npos);
  }
}

TEST(Lint, BadBlockingFactorRejected) {
  // MK must divide KT; the linter reuses the sweep validator. The deck
  // parser catches this for files, but a programmatically built deck
  // (or a future parser change) must still fail lint, not simulation.
  sweep::Deck deck = deck_with("");
  deck.sweep.mk = 7;  // kt = 32
  const analysis::Diagnostics diags = analysis::lint_deck(deck, final_stage());
  ASSERT_TRUE(has_rule(diags, "blocking")) << diags.summary();
  for (const analysis::Diagnostic& d : diags.entries())
    if (d.rule == "blocking")
      EXPECT_NE(d.where.find("mk 7"), std::string::npos) << d.where;
}

TEST(Lint, TagBudgetBoundsBufferCount) {
  core::CellSweepConfig cfg = final_stage();
  cfg.buffers = 20;  // needs 40 tag groups; the CBEA has 32
  const analysis::Diagnostics diags =
      analysis::lint_deck(deck_with(""), cfg);
  EXPECT_TRUE(has_rule(diags, "tag-budget")) << diags.summary();
}

TEST(Lint, GranularityMustBeQuadwordMultiple) {
  core::CellSweepConfig cfg = final_stage();
  cfg.dma_granularity = 520;  // not a multiple of 16
  const analysis::Diagnostics diags =
      analysis::lint_deck(deck_with(""), cfg);
  EXPECT_TRUE(has_rule(diags, "dma-granularity")) << diags.summary();
}

TEST(Lint, LoadedDeckCarriesItsSource) {
  // load_deck stamps the path; string decks stay "<string>". The
  // deck_runner lint path prefixes findings with it.
  EXPECT_EQ(deck_with("").source, "<string>");
}

TEST(Lint, MomentDeckVerdictMatchesTheRunner) {
  for (const test_decks::MomentDeck& md : test_decks::kMomentDecks) {
    const sweep::Deck deck = sweep::parse_deck_string(md.text);
    core::CellSweepConfig cfg = final_stage();
    cfg.sweep = deck.sweep;
    const analysis::Diagnostics diags = analysis::lint_deck(deck, cfg);
    bool ran = true;
    try {
      core::CellSweep3D(deck.problem, cfg, deck.sn_order, deck.l_max(),
                        deck.nm_cap)
          .run(core::RunMode::kTraceDriven);
    } catch (const std::exception&) {
      ran = false;
    }
    EXPECT_EQ(!diags.has_errors(), ran) << md.name << ":\n"
                                        << diags.summary();
    EXPECT_EQ(ran, md.runs) << md.name;
  }
}

/// Records the DMA commands of the first chunk a pipeline streams.
class FirstChunkDmas : public cell::MachineObserver {
 public:
  void on_dma(int /*spe*/, const cell::DmaRequest& req, sim::Tick,
              const cell::DmaCompletion&, std::uint64_t token) override {
    if (token == 0) dmas.push_back(req);
  }
  std::vector<cell::DmaRequest> dmas;
};

/// What one runner did under one configuration.
struct RunOutcome {
  bool ls_overflow = false;
  bool dma_error = false;
  std::vector<cell::DmaRequest> dmas;  ///< first chunk's commands
};

/// The machine configurations of the agreement grid: every buffer
/// count, DMA-list switch, granularity, alignment and precision below.
std::vector<core::CellSweepConfig> agreement_configs() {
  std::vector<core::CellSweepConfig> out;
  for (const int buffers : {1, 2, 20})
    for (const bool lists : {true, false})
      for (const std::size_t gran : {512u, 4096u, 520u})
        for (const bool aligned : {true, false})
          for (const core::Precision prec :
               {core::Precision::kDouble, core::Precision::kSingle}) {
            core::CellSweepConfig cfg = final_stage();
            cfg.buffers = buffers;
            cfg.dma_lists = lists;
            cfg.dma_granularity = gran;
            cfg.aligned_rows = aligned;
            cfg.precision = prec;
            out.push_back(cfg);
          }
  return out;
}

/// Checks one (lint verdict, runner outcome) pair: ls-budget is reported
/// exactly when the runner's pipeline constructor overflows the local
/// store, a DMA the runner refuses was flagged by lint, and the
/// commands lint validates for one chunk are the ones the pipeline
/// submitted for its first chunk, field by field.
void expect_agreement(const analysis::Diagnostics& diags,
                      const core::CellSweepConfig& cfg,
                      const core::TransferPlan& plan, const RunOutcome& run,
                      const std::string& label) {
  EXPECT_EQ(has_rule(diags, "ls-budget"), run.ls_overflow)
      << label << ":\n"
      << diags.summary();
  if (run.dma_error) {
    EXPECT_TRUE(has_rule(diags, "tag-budget") || has_rule(diags, "dma-shape"))
        << label << ":\n"
        << diags.summary();
  }
  if (run.ls_overflow) return;
  const std::vector<core::ChunkDma> linted = core::chunk_dmas(cfg, plan);
  ASSERT_EQ(linted.size(), run.dmas.size()) << label;
  for (std::size_t i = 0; i < linted.size(); ++i) {
    const cell::DmaRequest& want = linted[i].req;
    const cell::DmaRequest& got = run.dmas[i];
    const std::string where = label + " " + linted[i].name;
    EXPECT_EQ(want.dir, got.dir) << where;
    EXPECT_EQ(want.alignment, got.alignment) << where;
    EXPECT_EQ(want.banks_touched, got.banks_touched) << where;
    EXPECT_EQ(want.total_bytes, got.total_bytes) << where;
    EXPECT_EQ(want.as_list, got.as_list) << where;
    EXPECT_EQ(want.element_bytes, got.element_bytes) << where;
  }
}

TEST(LintAgreement, SweepLintMatchesTheTimingEngine) {
  for (const int it : {8, 2000, 4000}) {
    const sweep::Deck deck = sweep::parse_deck_string(
        "it " + std::to_string(it) +
        "  jt 8  kt 8\ndx 0.04  dy 0.04  dz 0.04\nmk 4  mmi 3\n"
        "sn 6  moments 6\niterations 1  fixup_from 1\n"
        "material m 1.0 0.5 0.2 0.05 source 1.0\n");
    const sweep::Grid& grid = deck.problem.grid();
    const sweep::SnQuadrature quad(deck.sn_order);
    for (core::CellSweepConfig cfg : agreement_configs()) {
      cfg.sweep = deck.sweep;
      const analysis::Diagnostics diags = analysis::lint_deck(deck, cfg);
      FirstChunkDmas recorder;
      cfg.hazard = &recorder;
      RunOutcome run;
      try {
        core::TimingEngine engine(cfg, grid, deck.moments());
        // One full chunk: the first chunk of the first diagonal with at
        // least kBundleLines lines.
        bool fed = false;
        core::enumerate_sweep(grid, quad.angles_per_octant(), cfg.sweep,
                              false, [&](const sweep::DiagonalWork& w) {
                                if (fed || w.nlines < sweep::kBundleLines)
                                  return;
                                fed = true;
                                engine.on_diagonal(w);
                              });
      } catch (const cell::LocalStoreOverflow&) {
        run.ls_overflow = true;
      } catch (const cell::DmaError&) {
        run.dma_error = true;
      }
      run.dmas = recorder.dmas;
      const core::TransferPlan plan = core::plan_chunk(core::ChunkShape{
          sweep::kBundleLines, it, deck.moments(),
          core::bytes_per_real(cfg.precision), cfg.aligned_rows});
      expect_agreement(diags, cfg, plan, run,
                       "it " + std::to_string(it) + " buffers " +
                           std::to_string(cfg.buffers) + " gran " +
                           std::to_string(cfg.dma_granularity));
    }
  }
}

TEST(LintAgreement, StencilLintMatchesTheStencilRunner) {
  const char* const shapes[] = {
      "nx 16 ny 16 nz 16\nbx 4 by 4 bz 4\niterations 1\n",
      "nx 32 ny 32 nz 32\nbx 16 by 16 bz 16\niterations 1\n",
      "nx 32 ny 32 nz 32\nbx 32 by 32 bz 32\niterations 1\n",
      "nx 64 ny 8 nz 8\nbx 64 by 4 bz 4\niterations 1\n",
  };
  for (const char* text : shapes) {
    const stencil::StencilSpec spec = stencil::parse_spec_string(text);
    for (core::CellSweepConfig cfg : agreement_configs()) {
      const analysis::Diagnostics diags = analysis::lint_stencil(spec, cfg);
      FirstChunkDmas recorder;
      cfg.hazard = &recorder;
      RunOutcome run;
      try {
        stencil::CellStencil(spec, cfg).run(core::RunMode::kTraceDriven);
      } catch (const cell::LocalStoreOverflow&) {
        run.ls_overflow = true;
      } catch (const cell::DmaError&) {
        run.dma_error = true;
      }
      run.dmas = recorder.dmas;
      const core::TransferPlan plan = stencil::plan_block(
          spec, core::bytes_per_real(cfg.precision), cfg.aligned_rows);
      expect_agreement(diags, cfg, plan, run,
                       "bx " + std::to_string(spec.bx) + " buffers " +
                           std::to_string(cfg.buffers) + " gran " +
                           std::to_string(cfg.dma_granularity));
    }
  }
}

}  // namespace
}  // namespace cellsweep
