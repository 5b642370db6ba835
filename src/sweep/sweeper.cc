#include "sweep/sweeper.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sweep/plan.h"

namespace cellsweep::sweep {
namespace {

// Octant index bit layout in all_octants(): bit 0 flips sx, bit 1
// flips sy, bit 2 flips sz (verified by a unit test).
constexpr int mirror_octant_i(int iq) { return iq ^ 1; }
constexpr int mirror_octant_j(int iq) { return iq ^ 2; }
constexpr int mirror_octant_k(int iq) { return iq ^ 4; }

}  // namespace

void SweepConfig::validate(int kt, int mm) const {
  if (mk < 1 || kt % mk != 0)
    throw std::invalid_argument("SweepConfig: MK must factor KT");
  if (mmi < 1 || mm % mmi != 0)
    throw std::invalid_argument("SweepConfig: MMI must factor the angle count");
  if (max_iterations < 1)
    throw std::invalid_argument("SweepConfig: need at least one iteration");
  if (fixup_from_iteration < 0)
    throw std::invalid_argument("SweepConfig: fixup_from_iteration >= 0");
  if (threads < 1)
    throw std::invalid_argument("SweepConfig: need at least one thread");
}

template <typename Real>
SweepState<Real>::SweepState(const Problem& problem, const SnQuadrature& quad,
                             int l_max, int nm_cap)
    : problem_(&problem),
      quad_(&quad),
      moments_(quad, l_max, nm_cap),
      sigt_(problem.grid()),
      qext_(problem.grid()),
      flux_(problem.grid(), moments_.nm()),
      src_(problem.grid(), moments_.nm()) {
  const Grid& g = problem.grid();
  const int mm = quad.angles_per_octant();
  const int nm = moments_.nm();

  // Per-cell cross sections and external source, padded-row layout.
  cell_material_.resize(g.cells());
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i) {
        const Material& mat = problem.material_of(i, j, k);
        sigt_.at(k, j, i) = static_cast<Real>(mat.sigma_t);
        qext_.at(k, j, i) = static_cast<Real>(mat.q_ext);
        cell_material_[g.index(i, j, k)] = problem.material_index(i, j, k);
      }

  // Per-material source-moment coefficients (2l+1) * sigma_s,l mapped
  // onto the moment index.
  sigma_s_.resize(problem.materials().size());
  for (std::size_t m = 0; m < problem.materials().size(); ++m) {
    const auto& mat = problem.materials()[m];
    sigma_s_[m].assign(nm, Real(0));
    for (int n = 0; n < nm; ++n) {
      const int l = moments_.moment_order(n);
      if (l < static_cast<int>(mat.sigma_s.size()))
        sigma_s_[m][n] =
            static_cast<Real>((2.0 * l + 1.0) * mat.sigma_s[l]);
    }
  }

  // Kernel constants per (octant, angle).
  const auto octants = all_octants();
  angle_consts_.resize(8 * static_cast<std::size_t>(mm));
  for (int iq = 0; iq < 8; ++iq) {
    const double* pn = moments_.pn(iq);
    for (int m = 0; m < mm; ++m) {
      const Ordinate& o = quad.octant_ordinates()[m];
      AngleConsts& c = angle_consts_[iq * mm + m];
      c.ci = static_cast<Real>(2.0 * o.mu / g.dx);
      c.cj = static_cast<Real>(2.0 * o.eta / g.dy);
      c.ck = static_cast<Real>(2.0 * o.xi / g.dz);
      c.pn_src.resize(nm);
      c.pn_acc.resize(nm);
      for (int n = 0; n < nm; ++n) {
        c.pn_src[n] = static_cast<Real>(pn[m * nm + n]);
        c.pn_acc[n] = static_cast<Real>(o.w * pn[m * nm + n]);
      }
      (void)octants;
    }
  }

  // Face arrays sized for the largest legal blocking (mk = kt, mmi = mm).
  const std::size_t it_pad = flux_.it_padded();
  phi_k_face_.assign(static_cast<std::size_t>(mm) * g.jt * it_pad, Real(0));
  phi_j_face_.assign(static_cast<std::size_t>(mm) * g.kt * it_pad, Real(0));
  phi_i_face_.assign(static_cast<std::size_t>(mm) * g.kt * g.jt, Real(0));

  reflective_ = problem.any_reflective();
  if (reflective_) {
    refl_i_.assign(2ull * 8 * mm * g.kt * g.jt, Real(0));
    refl_j_.assign(2ull * 8 * mm * g.kt * it_pad, Real(0));
    refl_k_.assign(2ull * 8 * mm * g.jt * it_pad, Real(0));
  }

  worker_stats_.resize(1);
}

template <typename Real>
void SweepState<Real>::build_source() {
  const Grid& g = problem_->grid();
  const int nm = moments_.nm();
  for (int n = 0; n < nm; ++n)
    for (int k = 0; k < g.kt; ++k)
      for (int j = 0; j < g.jt; ++j) {
        const Real* fl = flux_.line(n, k, j);
        Real* sl = src_.line(n, k, j);
        const Real* ql = qext_.line(k, j);
        const std::uint8_t* mat =
            cell_material_.data() + g.index(0, j, k);
        if (n == 0) {
          for (int i = 0; i < g.it; ++i)
            sl[i] = sigma_s_[mat[i]][0] * fl[i] + ql[i];
        } else {
          for (int i = 0; i < g.it; ++i)
            sl[i] = sigma_s_[mat[i]][n] * fl[i];
        }
      }
}

template <typename Real>
void SweepState<Real>::sweep_block(const SweepConfig& cfg, bool fixup, int iq,
                                   int ab, int kb,
                                   const DiagonalObserver& observer,
                                   SweepRunStats& stats) {
  const Grid& g = problem_->grid();
  const Octant oct = all_octants()[iq];
  const int mm = quad_->angles_per_octant();
  const int it_pad = flux_.it_padded();
  const std::int64_t mstride = flux_.moment_stride();
  const BlockCtx ctx{iq, ab, kb, cfg.mmi, cfg.mk, g.jt, g.it};

  // Block inflows: I (one scalar per line) and J (one row per (m,kk)).
  if (boundary_ != nullptr) {
    boundary_->fetch_i_inflow(ctx, phi_i_face_.data());
    boundary_->fetch_j_inflow(ctx, phi_j_face_.data(), it_pad);
  } else {
    std::fill_n(phi_i_face_.data(),
                static_cast<std::size_t>(cfg.mmi) * cfg.mk * g.jt, Real(0));
    std::fill_n(phi_j_face_.data(),
                static_cast<std::size_t>(cfg.mmi) * cfg.mk * it_pad, Real(0));
    if (reflective_) {
      const int face_i = oct.sx > 0 ? kFaceWest : kFaceEast;
      if (problem_->boundary(face_i) == FaceBc::kReflective) {
        const int src_iq = mirror_octant_i(iq);
        const int side = oct.sx > 0 ? 0 : 1;
        for (int mh = 0; mh < cfg.mmi; ++mh) {
          const int m = ab * cfg.mmi + mh;
          for (int kk = 0; kk < cfg.mk; ++kk) {
            const int kl = kb * cfg.mk + kk;
            const int k = oct.sz > 0 ? kl : g.kt - 1 - kl;
            for (int jj = 0; jj < g.jt; ++jj) {
              const int j = oct.sy > 0 ? jj : g.jt - 1 - jj;
              phi_i_face_[(static_cast<std::size_t>(mh) * cfg.mk + kk) *
                              g.jt + jj] =
                  refl_i_[((static_cast<std::size_t>(side) * 8 + src_iq) *
                               mm + m) * (g.kt * g.jt) + k * g.jt + j];
            }
          }
        }
      }
      const int face_j = oct.sy > 0 ? kFaceNorth : kFaceSouth;
      if (problem_->boundary(face_j) == FaceBc::kReflective) {
        const int src_iq = mirror_octant_j(iq);
        const int side = oct.sy > 0 ? 0 : 1;
        for (int mh = 0; mh < cfg.mmi; ++mh) {
          const int m = ab * cfg.mmi + mh;
          for (int kk = 0; kk < cfg.mk; ++kk) {
            const int kl = kb * cfg.mk + kk;
            const int k = oct.sz > 0 ? kl : g.kt - 1 - kl;
            std::copy_n(
                refl_j_.data() +
                    ((static_cast<std::size_t>(side) * 8 + src_iq) * mm + m) *
                        (g.kt * it_pad) +
                    static_cast<std::size_t>(k) * it_pad,
                it_pad,
                phi_j_face_.data() +
                    (static_cast<std::size_t>(mh) * cfg.mk + kk) * it_pad);
          }
        }
      }
    }
  }

  const int ndiags = ChunkPlan::diagonals_per_block(cfg, g.jt);

  for (int d = 0; d < ndiags; ++d) {
    const ChunkPlan plan(cfg, g.jt, g.it, d, fixup);
    if (plan.empty()) continue;

    // Materialize the plan's line coordinates into kernel arguments.
    // Every line writes disjoint flux rows and face entries (distinct
    // (mh, kk) pairs, hence distinct j and jj), so the chunks below may
    // run concurrently.
    diag_args_.resize(plan.nlines());
    for (int l = 0; l < plan.nlines(); ++l) {
      const LineCoord& lc = plan.lines()[l];
      const int m = ab * cfg.mmi + lc.mh;
      const int j = oct.sy > 0 ? lc.jj : g.jt - 1 - lc.jj;
      const int kl = kb * cfg.mk + lc.kk;  // logical plane along sweep
      const int k = oct.sz > 0 ? kl : g.kt - 1 - kl;
      const AngleConsts& ac = angle_consts_[iq * mm + m];

      LineArgs<Real>& a = diag_args_[l];
      a.it = g.it;
      a.dir = oct.sx;
      a.sigt = sigt_.line(k, j);
      a.src = src_.line(0, k, j);
      a.flux = flux_.line(0, k, j);
      a.mstride = mstride;
      a.pn_src = ac.pn_src.data();
      a.pn_acc = ac.pn_acc.data();
      a.nm = moments_.nm();
      a.ci = ac.ci;
      a.cj = ac.cj;
      a.ck = ac.ck;
      a.phi_j = phi_j_face_.data() +
                (static_cast<std::size_t>(lc.mh) * cfg.mk + lc.kk) * it_pad;
      a.phi_k = phi_k_face_.data() +
                (static_cast<std::size_t>(lc.mh) * g.jt + j) * it_pad;
      a.phi_i = phi_i_face_.data() +
                (static_cast<std::size_t>(lc.mh) * cfg.mk + lc.kk) * g.jt +
                lc.jj;
    }

    const auto run_chunk = [&](int c, int worker) {
      const ChunkDesc& ch = plan.chunks()[c];
      sweep_chunk(&diag_args_[ch.first_line], ch.nlines, fixup,
                  scratch_[worker], &worker_stats_[worker]);
    };
    const int nchunks = static_cast<int>(plan.chunks().size());
    if (active_pool_) {
      active_pool_->parallel_for(nchunks, run_chunk);
    } else {
      for (int c = 0; c < nchunks; ++c) run_chunk(c, 0);
    }

    stats.chunks += nchunks;
    stats.lines += plan.nlines();
    if (observer) {
      observer(DiagonalWork{iq, ab, kb, d, plan.nlines(), g.it, fixup});
    }
  }

  // Block outflows.
  if (boundary_ != nullptr) {
    boundary_->emit_i_outflow(ctx, phi_i_face_.data());
    boundary_->emit_j_outflow(ctx, phi_j_face_.data(), it_pad);
    return;
  }
  const int face_i_out = oct.sx > 0 ? kFaceEast : kFaceWest;
  if (reflective_ && problem_->boundary(face_i_out) == FaceBc::kReflective) {
    // Store the I-outflow for the mirror octant to consume.
    const int side = oct.sx > 0 ? 1 : 0;
    for (int mh = 0; mh < cfg.mmi; ++mh) {
      const int m = ab * cfg.mmi + mh;
      for (int kk = 0; kk < cfg.mk; ++kk) {
        const int kl = kb * cfg.mk + kk;
        const int k = oct.sz > 0 ? kl : g.kt - 1 - kl;
        for (int jj = 0; jj < g.jt; ++jj) {
          const int j = oct.sy > 0 ? jj : g.jt - 1 - jj;
          refl_i_[((static_cast<std::size_t>(side) * 8 + iq) * mm + m) *
                      (g.kt * g.jt) + k * g.jt + j] =
              phi_i_face_[(static_cast<std::size_t>(mh) * cfg.mk + kk) *
                              g.jt + jj];
        }
      }
    }
  } else {
    // Vacuum: tally I leakage out of the domain face.
    const double face_i = g.dy * g.dz;
    double leak_i = 0.0;
    for (int mh = 0; mh < cfg.mmi; ++mh) {
      const Ordinate& o = quad_->octant_ordinates()[ab * cfg.mmi + mh];
      double sum_i = 0.0;
      for (int kk = 0; kk < cfg.mk; ++kk)
        for (int jj = 0; jj < g.jt; ++jj)
          sum_i += static_cast<double>(
              phi_i_face_[(static_cast<std::size_t>(mh) * cfg.mk + kk) * g.jt +
                          jj]);
      leak_i += o.w * o.mu * face_i * sum_i;
    }
    if (oct.sx > 0) leakage_.east += leak_i; else leakage_.west += leak_i;
  }

  const int face_j_out = oct.sy > 0 ? kFaceSouth : kFaceNorth;
  if (reflective_ && problem_->boundary(face_j_out) == FaceBc::kReflective) {
    const int side = oct.sy > 0 ? 1 : 0;
    for (int mh = 0; mh < cfg.mmi; ++mh) {
      const int m = ab * cfg.mmi + mh;
      for (int kk = 0; kk < cfg.mk; ++kk) {
        const int kl = kb * cfg.mk + kk;
        const int k = oct.sz > 0 ? kl : g.kt - 1 - kl;
        std::copy_n(phi_j_face_.data() +
                        (static_cast<std::size_t>(mh) * cfg.mk + kk) * it_pad,
                    it_pad,
                    refl_j_.data() +
                        ((static_cast<std::size_t>(side) * 8 + iq) * mm + m) *
                            (g.kt * it_pad) +
                        static_cast<std::size_t>(k) * it_pad);
      }
    }
  } else {
    const double face_j = g.dx * g.dz;
    double leak_j = 0.0;
    for (int mh = 0; mh < cfg.mmi; ++mh) {
      const Ordinate& o = quad_->octant_ordinates()[ab * cfg.mmi + mh];
      double sum_j = 0.0;
      for (int kk = 0; kk < cfg.mk; ++kk) {
        const Real* row = phi_j_face_.data() +
                          (static_cast<std::size_t>(mh) * cfg.mk + kk) * it_pad;
        for (int i = 0; i < g.it; ++i) sum_j += static_cast<double>(row[i]);
      }
      leak_j += o.w * o.eta * face_j * sum_j;
    }
    if (oct.sy > 0) leakage_.south += leak_j; else leakage_.north += leak_j;
  }
}

template <typename Real>
void SweepState<Real>::tally_k_leakage(int iq, int ab) {
  // Called after the last K-block of one (octant, angle-block): the
  // K-face array holds the domain-exit flux. Only meaningful for the
  // vacuum boundary (K is never decomposed).
  const Grid& g = problem_->grid();
  const Octant oct = all_octants()[iq];
  const int it_pad = flux_.it_padded();
  const double face_k = g.dx * g.dy;
  double leak = 0.0;
  // ab * mmi is only valid with the current config's mmi; the caller
  // passes mh-resolved angles via this loop instead.
  for (int mh = 0; mh < current_mmi_; ++mh) {
    const Ordinate& o = quad_->octant_ordinates()[ab * current_mmi_ + mh];
    double sum = 0.0;
    for (int j = 0; j < g.jt; ++j) {
      const Real* row = phi_k_face_.data() +
                        (static_cast<std::size_t>(mh) * g.jt + j) * it_pad;
      for (int i = 0; i < g.it; ++i) sum += static_cast<double>(row[i]);
    }
    leak += o.w * o.xi * face_k * sum;
  }
  if (oct.sz > 0) leakage_.top += leak; else leakage_.bottom += leak;
}

template <typename Real>
SweepRunStats SweepState<Real>::sweep(const SweepConfig& cfg, bool fixup,
                                      const DiagonalObserver& observer) {
  const Grid& g = problem_->grid();
  const int mm = quad_->angles_per_octant();
  cfg.validate(g.kt, mm);
  current_mmi_ = cfg.mmi;

  // Host executor: an injected shared pool wins (its width sets the
  // worker count); otherwise one owned pool sized by cfg.threads, kept
  // across sweeps and rebuilt only when the thread count changes. One
  // stats slot per worker either way.
  int threads = cfg.threads;
  if (cfg.pool != nullptr) {
    threads = cfg.pool->size();
    active_pool_ = threads > 1 ? cfg.pool : nullptr;
  } else {
    if (threads == 1) {
      pool_.reset();
    } else if (!pool_ || pool_->size() != threads) {
      pool_ = std::make_unique<util::ThreadPool>(threads);
    }
    active_pool_ = pool_.get();
  }
  worker_stats_.assign(threads, KernelStats{});
  if (scratch_.size() != static_cast<std::size_t>(threads))
    scratch_.assign(threads, BundleScratch<Real>(g.it));

  flux_.fill(Real(0));
  SweepRunStats stats;
  const int it_pad = flux_.it_padded();
  const int nkb = g.kt / cfg.mk;
  const int nab = mm / cfg.mmi;

  if (reflective_ && boundary_ != nullptr)
    throw std::logic_error(
        "SweepState: reflective boundaries require the built-in (serial) "
        "boundary handling");

  for (int iq = 0; iq < 8; ++iq) {
    const Octant oct = all_octants()[iq];
    for (int ab = 0; ab < nab; ++ab) {
      // K faces at the entry boundary of this octant's sweep: vacuum or
      // the mirror octant's stored outflow.
      const int face_k_in = oct.sz > 0 ? kFaceBottom : kFaceTop;
      if (reflective_ &&
          problem_->boundary(face_k_in) == FaceBc::kReflective) {
        const int src_iq = mirror_octant_k(iq);
        const int side = oct.sz > 0 ? 0 : 1;
        const int mm_all = quad_->angles_per_octant();
        for (int mh = 0; mh < cfg.mmi; ++mh) {
          const int m = ab * cfg.mmi + mh;
          for (int j = 0; j < g.jt; ++j)
            std::copy_n(refl_k_.data() +
                            ((static_cast<std::size_t>(side) * 8 + src_iq) *
                                 mm_all + m) * (g.jt * it_pad) +
                            static_cast<std::size_t>(j) * it_pad,
                        it_pad,
                        phi_k_face_.data() +
                            (static_cast<std::size_t>(mh) * g.jt + j) *
                                it_pad);
        }
      } else {
        std::fill_n(phi_k_face_.data(),
                    static_cast<std::size_t>(cfg.mmi) * g.jt * it_pad,
                    Real(0));
      }

      for (int kb = 0; kb < nkb; ++kb)
        sweep_block(cfg, fixup, iq, ab, kb, observer, stats);

      // K exit face: store for the mirror octant, or tally leakage.
      // K is never decomposed, so this is always handled here (the MPI
      // boundary only exchanges I/J faces).
      const int face_k_out = oct.sz > 0 ? kFaceTop : kFaceBottom;
      if (reflective_ &&
          problem_->boundary(face_k_out) == FaceBc::kReflective) {
        const int side = oct.sz > 0 ? 1 : 0;
        const int mm_all = quad_->angles_per_octant();
        for (int mh = 0; mh < cfg.mmi; ++mh) {
          const int m = ab * cfg.mmi + mh;
          for (int j = 0; j < g.jt; ++j)
            std::copy_n(phi_k_face_.data() +
                            (static_cast<std::size_t>(mh) * g.jt + j) *
                                it_pad,
                        it_pad,
                        refl_k_.data() +
                            ((static_cast<std::size_t>(side) * 8 + iq) *
                                 mm_all + m) * (g.jt * it_pad) +
                            static_cast<std::size_t>(j) * it_pad);
        }
      } else {
        tally_k_leakage(iq, ab);
      }
    }
  }

  // Fold the per-worker kernel counters (fixed order, so totals are
  // deterministic regardless of the parallel schedule).
  for (const KernelStats& ks : worker_stats_) {
    stats.cells += ks.cells;
    stats.fixup_cells += ks.fixups_applied;
  }
  return stats;
}

template <typename Real>
double SweepState<Real>::absorption_rate() const {
  const Grid& g = problem_->grid();
  double total = 0.0;
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j) {
      const Real* fl = flux_.line(0, k, j);
      for (int i = 0; i < g.it; ++i) {
        const Material& mat = problem_->material_of(i, j, k);
        total += (mat.sigma_t - mat.sigma_s[0]) *
                 static_cast<double>(fl[i]);
      }
    }
  return total * g.cell_volume();
}

template <typename Real>
SolveResult solve_source_iteration(SweepState<Real>& state,
                                   const SweepConfig& cfg,
                                   const DiagonalObserver& observer) {
  const Grid& g = state.problem().grid();
  MomentField<Real> previous(g, state.nm());
  SolveResult result;
  double prev_change = 0.0;

  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    // Snapshot for the convergence metric.
    previous = state.flux();
    state.build_source();
    state.reset_leakage();
    const bool fixup = iter >= cfg.fixup_from_iteration;
    const SweepRunStats s = state.sweep(cfg, fixup, observer);
    result.totals.lines += s.lines;
    result.totals.chunks += s.chunks;
    result.totals.cells += s.cells;
    result.totals.fixup_cells += s.fixup_cells;
    ++result.iterations;
    result.final_change = state.flux_change(previous);
    if (cfg.epsilon > 0.0 && result.final_change < cfg.epsilon) {
      result.converged = true;
      break;
    }

    // Error-mode acceleration: every third iteration (so the two
    // change norms feeding the ratio are both un-extrapolated sweeps),
    // estimate the dominant mode's spectral radius and extrapolate it
    // away. Effective when source iteration is slow (rho -> c as the
    // scattering ratio c -> 1).
    if (cfg.accelerate && iter % 3 == 2 && prev_change > 0.0) {
      const double rho = result.final_change / prev_change;
      if (rho > 0.2 && rho < 0.995) {
        const Real factor = static_cast<Real>(rho / (1.0 - rho));
        state.flux().extrapolate_from(previous, factor);
      }
    }
    prev_change = result.final_change;
  }
  return result;
}

template class SweepState<double>;
template class SweepState<float>;
template SolveResult solve_source_iteration<double>(SweepState<double>&,
                                                    const SweepConfig&,
                                                    const DiagonalObserver&);
template SolveResult solve_source_iteration<float>(SweepState<float>&,
                                                   const SweepConfig&,
                                                   const DiagonalObserver&);

}  // namespace cellsweep::sweep
