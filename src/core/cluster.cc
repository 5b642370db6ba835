#include "core/cluster.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "msg/cart_grid.h"
#include "sweep/plan.h"
#include "sweep/quadrature.h"

namespace cellsweep::core {
namespace {

/// Feeds every diagonal of one (octant, angle-block, K-block) block
/// into an engine.
void feed_block(TimingEngine& engine, const sweep::Grid& tile,
                const sweep::SweepConfig& cfg, int iq, int ab, int kb,
                bool fixup) {
  const int ndiags = sweep::ChunkPlan::diagonals_per_block(cfg, tile.jt);
  for (int d = 0; d < ndiags; ++d) {
    const int nlines = sweep::ChunkPlan::lines_on_diagonal(cfg, tile.jt, d);
    if (nlines > 0)
      engine.on_diagonal(sweep::DiagonalWork{iq, ab, kb, d, nlines, tile.it,
                                             fixup});
  }
}

/// Runs one chip in isolation over the whole iteration schedule.
double isolated_seconds(const sweep::Grid& grid, const CellSweepConfig& cfg,
                        int nm, int angles) {
  TimingEngine engine(cfg, grid, nm);
  const sweep::DiagonalObserver feed = [&](const sweep::DiagonalWork& w) {
    engine.on_diagonal(w);
  };
  for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter)
    enumerate_sweep(grid, angles, cfg.sweep,
                    iter >= cfg.sweep.fixup_from_iteration, feed);
  return engine.finish().seconds;
}

}  // namespace

ClusterReport simulate_cluster(const sweep::Grid& global,
                               const ClusterConfig& cluster) {
  const int px = cluster.px;
  const int py = cluster.py;
  if (px < 1 || py < 1)
    throw std::invalid_argument("simulate_cluster: grid must be >= 1x1");
  if (global.it % px != 0 || global.jt % py != 0)
    throw std::invalid_argument("simulate_cluster: px|it and py|jt required");

  const sweep::Grid tile{global.it / px, global.jt / py, global.kt,
                         global.dx, global.dy, global.dz};
  CellSweepConfig chip = cluster.chip;
  const sweep::SnQuadrature quad(6);
  const int angles = quad.angles_per_octant();
  chip.sweep.validate(tile.kt, angles);

  const int ranks = px * py;
  const msg::CartGrid2D cart(px, py);
  std::vector<std::unique_ptr<TimingEngine>> engines;
  engines.reserve(ranks);
  for (int r = 0; r < ranks; ++r)
    engines.push_back(std::make_unique<TimingEngine>(chip, tile, cluster.nm));

  // Wavefront rank order per octant: sorted by pipeline depth from the
  // octant's entry corner.
  const auto octants = sweep::all_octants();
  std::array<std::vector<int>, 8> order;
  for (int iq = 0; iq < 8; ++iq) {
    order[iq].resize(ranks);
    std::iota(order[iq].begin(), order[iq].end(), 0);
    const int cx = octants[iq].sx > 0 ? 0 : 1;
    const int cy = octants[iq].sy > 0 ? 0 : 1;
    std::stable_sort(order[iq].begin(), order[iq].end(), [&](int a, int b) {
      return cart.wave_depth(a, cx, cy) < cart.wave_depth(b, cx, cy);
    });
  }

  const std::size_t rb = bytes_per_real(chip.precision);
  const double bytes_i =
      static_cast<double>(chip.sweep.mmi) * chip.sweep.mk * tile.jt * rb;
  const double bytes_j =
      static_cast<double>(chip.sweep.mmi) * chip.sweep.mk * tile.it * rb;
  const sim::Tick latency = sim::ticks_from_seconds(cluster.link_latency_s);
  auto link_cost = [&](double bytes) {
    return latency + sim::ticks_for_bytes(bytes, cluster.link_bandwidth);
  };

  ClusterReport report;
  const int nkb = tile.kt / chip.sweep.mk;
  const int nab = angles / chip.sweep.mmi;
  std::vector<sim::Tick> arrival(ranks);

  for (int iter = 0; iter < chip.sweep.max_iterations; ++iter) {
    const bool fixup = iter >= chip.sweep.fixup_from_iteration;
    for (int iq = 0; iq < 8; ++iq) {
      const sweep::Octant oct = octants[iq];
      const msg::Direction down_i =
          oct.sx > 0 ? msg::Direction::kEast : msg::Direction::kWest;
      const msg::Direction down_j =
          oct.sy > 0 ? msg::Direction::kSouth : msg::Direction::kNorth;
      for (int ab = 0; ab < nab; ++ab) {
        for (int kb = 0; kb < nkb; ++kb) {
          // Messages only flow downstream within one block key, so a
          // per-key arrival scratch suffices.
          std::fill(arrival.begin(), arrival.end(), sim::Tick{0});
          for (int r : order[iq]) {
            TimingEngine& e = *engines[r];
            if (arrival[r] > 0) e.gate(arrival[r]);  // Figure 2's RECVs
            feed_block(e, tile, chip.sweep, iq, ab, kb, fixup);
            const sim::Tick done = e.horizon();
            // SENDs to the downstream wavefront neighbors.
            if (const int east = cart.neighbor(r, down_i); east >= 0) {
              arrival[east] =
                  std::max(arrival[east], done + link_cost(bytes_i));
              ++report.messages;
              report.message_bytes += bytes_i;
            }
            if (const int south = cart.neighbor(r, down_j); south >= 0) {
              arrival[south] =
                  std::max(arrival[south], done + link_cost(bytes_j));
              ++report.messages;
              report.message_bytes += bytes_j;
            }
          }
        }
      }
    }
  }

  report.rank_seconds.resize(ranks);
  for (int r = 0; r < ranks; ++r) {
    report.rank_seconds[r] = engines[r]->finish().seconds;
    report.seconds = std::max(report.seconds, report.rank_seconds[r]);
  }
  report.tile_seconds = isolated_seconds(tile, chip, cluster.nm, angles);
  report.wavefront_efficiency =
      report.seconds > 0 ? report.tile_seconds / report.seconds : 0.0;
  // Single chip on the global cube (skipped if the tile cannot fit the
  // local store at that width).
  try {
    report.speedup_vs_one_chip =
        isolated_seconds(global, chip, cluster.nm, angles) / report.seconds;
  } catch (const cell::LocalStoreOverflow&) {
    report.speedup_vs_one_chip = 0.0;
  }
  return report;
}

}  // namespace cellsweep::core
