// Inner Sn solve kernels: one I-line recursion per angle.
//
// This is the computational core the paper spends Section 5 optimizing
// (its Figure 8). For each cell along an I-line, with three known
// inflows (I, J, K faces), the diamond-difference balance equation
// yields the cell-center flux and three outflows:
//
//   phi  = (q + ci*phi_i + cj*phi_j + ck*phi_k) / (sigt + ci + cj + ck)
//   out_d = 2*phi - in_d                 with  c_d = 2*|mu_d| / delta_d
//
// q is assembled from the source moments (q = sum_n pn[n]*Src[n], the
// scalar form of Figure 6) and the cell flux is accumulated back into
// the flux moments (Flux[n] += w*pn[n]*phi, Figure 6 verbatim).
//
// If an outflow goes negative in an optically thick cell, the standard
// set-to-zero fixup re-solves the balance with that face's outflow
// pinned to zero ("do_fixups" in the paper's pseudo-code).
//
// Two host kernels compute the same bits:
//  * sweep_line_scalar solves one I-line (Figure 8). It is the
//    reference the tests and the micro-bench compare against.
//  * sweep_chunk solves one chunk of up to four I-lines as the paper's
//    four "logical threads" (Figure 7) on 16-byte host SIMD vectors:
//    source assembly and flux accumulation run along i inside each
//    line, and the i-recursion packs lanes across lines. It is the
//    kernel of every functional solve (SweepState::sweep_block).
// Every lane performs the scalar kernel's operations in the same order,
// and cs_sweep builds with -ffp-contract=off, so the two are bit-identical
// in both precisions (tests/kernel_test.cc). The SPU-intrinsic bundle
// kernel in kernel_simd.h is the same algorithm again, run only to record
// the SPU instruction trace the timing model prices.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "util/aligned.h"

namespace cellsweep::sweep {

/// Maximum I-lines per SPE work chunk ("chunks of four iterations",
/// paper Section 6).
inline constexpr int kBundleLines = 4;

/// Inputs/outputs of one I-line solve for one angle.
template <typename Real>
struct LineArgs {
  int it = 0;    ///< cells along the line
  int dir = +1;  ///< +1: ascending i, -1: descending (octant sx)

  const Real* sigt = nullptr;  ///< per-cell total cross section line
  const Real* src = nullptr;   ///< source moments base (+ n*mstride per moment)
  Real* flux = nullptr;        ///< flux moments base (+ n*mstride)
  std::int64_t mstride = 0;    ///< stride between moments

  const Real* pn_src = nullptr;  ///< nm entries: R_n(angle)
  const Real* pn_acc = nullptr;  ///< nm entries: w * R_n(angle)
  int nm = 1;

  Real ci = Real(0);  ///< 2|mu| / dx
  Real cj = Real(0);  ///< 2|eta| / dy
  Real ck = Real(0);  ///< 2|xi| / dz

  Real* phi_j = nullptr;  ///< J-face inflow line (in) / outflow (out)
  Real* phi_k = nullptr;  ///< K-face inflow line (in) / outflow (out)
  Real* phi_i = nullptr;  ///< I-face inflow scalar (in) / outflow (out)
};

/// Statistics a kernel reports back (used by tests and the §6 audit).
struct KernelStats {
  std::uint64_t cells = 0;
  std::uint64_t fixups_applied = 0;  ///< cells that needed >= 1 face fixed
};

/// Solves one cell given its three inflows; shared by both kernels'
/// fixup path. Returns the cell flux and updates the in/out faces.
/// Marked always-inline-able: header-only on purpose.
template <typename Real>
struct CellSolve {
  Real phi;    ///< cell-center angular flux
  Real out_i;  ///< I outflow
  Real out_j;  ///< J outflow
  Real out_k;  ///< K outflow
  bool fixed;  ///< true if any face was fixed up
};

/// Performs the diamond solve with optional set-to-zero fixup.
template <typename Real>
CellSolve<Real> solve_cell(Real q, Real sigt, Real ci, Real cj, Real ck,
                           Real in_i, Real in_j, Real in_k, bool fixup) {
  const Real num = q + ci * in_i + cj * in_j + ck * in_k;
  const Real den = sigt + ci + cj + ck;
  Real phi = num / den;
  Real oi = Real(2) * phi - in_i;
  Real oj = Real(2) * phi - in_j;
  Real ok = Real(2) * phi - in_k;

  CellSolve<Real> r{phi, oi, oj, ok, false};
  if (!fixup || (oi >= Real(0) && oj >= Real(0) && ok >= Real(0))) return r;

  // Set-to-zero fixup: pin each newly negative outflow to zero and
  // re-solve the balance. A fixed face contributes (c/2)*in to the
  // numerator and leaves the denominator; at most three rounds since
  // each round fixes at least one additional face.
  bool fi = false, fj = false, fk = false;
  for (int round = 0; round < 3; ++round) {
    fi = fi || oi < Real(0);
    fj = fj || oj < Real(0);
    fk = fk || ok < Real(0);
    Real n2 = q;
    Real d2 = sigt;
    if (fi) n2 += Real(0.5) * ci * in_i; else { n2 += ci * in_i; d2 += ci; }
    if (fj) n2 += Real(0.5) * cj * in_j; else { n2 += cj * in_j; d2 += cj; }
    if (fk) n2 += Real(0.5) * ck * in_k; else { n2 += ck * in_k; d2 += ck; }
    phi = n2 / d2;
    oi = fi ? Real(0) : Real(2) * phi - in_i;
    oj = fj ? Real(0) : Real(2) * phi - in_j;
    ok = fk ? Real(0) : Real(2) * phi - in_k;
    if (oi >= Real(0) && oj >= Real(0) && ok >= Real(0)) break;
  }
  r.phi = phi;
  r.out_i = oi;
  r.out_j = oj;
  r.out_k = ok;
  r.fixed = true;
  return r;
}

/// Scalar I-line kernel (the paper's Figure 8 in C++).
template <typename Real>
void sweep_line_scalar(const LineArgs<Real>& a, bool fixup,
                       KernelStats* stats = nullptr) {
  Real in_i = *a.phi_i;
  const int begin = a.dir > 0 ? 0 : a.it - 1;
  const int end = a.dir > 0 ? a.it : -1;
  for (int i = begin; i != end; i += a.dir) {
    // Assemble the per-angle source from the moments (Figure 6, scalar).
    Real q = Real(0);
    for (int n = 0; n < a.nm; ++n)
      q += a.pn_src[n] * a.src[static_cast<std::int64_t>(n) * a.mstride + i];

    const CellSolve<Real> c = solve_cell(q, a.sigt[i], a.ci, a.cj, a.ck,
                                         in_i, a.phi_j[i], a.phi_k[i], fixup);
    in_i = c.out_i;
    a.phi_j[i] = c.out_j;
    a.phi_k[i] = c.out_k;

    // Accumulate flux moments (Figure 6 verbatim).
    for (int n = 0; n < a.nm; ++n)
      a.flux[static_cast<std::int64_t>(n) * a.mstride + i] +=
          a.pn_acc[n] * c.phi;

    if (stats) {
      ++stats->cells;
      if (c.fixed) ++stats->fixups_applied;
    }
  }
  *a.phi_i = in_i;
}

/// Reusable scratch of one chunk: the per-line source q and cell flux
/// phi (the local-store Phi / q lines of an SPE).
template <typename Real>
struct BundleScratch {
  explicit BundleScratch(int max_it) {
    const std::size_t n = util::padded_extent<Real>(max_it);
    for (auto& line : q) line.assign(n, Real(0));
    for (auto& line : phi) line.assign(n, Real(0));
  }
  std::array<util::AlignedVector<Real>, kBundleLines> q;
  std::array<util::AlignedVector<Real>, kBundleLines> phi;
};

/// Host SIMD shape per precision: 16-byte GCC/Clang vector extensions
/// (SSE2 on x86-64, NEON on AArch64), the width of an SPU register.
/// Doubles cover the four lines as two 2-lane chains, floats as one
/// 4-lane chain.
template <typename Real>
struct HostSimd {
  typedef Real Vec __attribute__((vector_size(16)));
  static constexpr int kLanes = 16 / static_cast<int>(sizeof(Real));
  static constexpr int kChains = kBundleLines / kLanes;
};

namespace detail_chunk {

/// Requests the (64-byte) cache lines of one line's nm rows, base +
/// n * mstride.
template <typename Real>
inline void prefetch_rows(const Real* base, std::int64_t mstride, int nm,
                          int it) {
  for (int n = 0; n < nm; ++n)
    for (int i = 0; i < it; i += 64 / static_cast<int>(sizeof(Real)))
      __builtin_prefetch(base + static_cast<std::int64_t>(n) * mstride + i);
}

/// True if every lane of a 16-byte comparison mask is set.
template <typename Mask>
inline bool all_lanes(const Mask& m) {
  std::uint64_t w[2];
  static_assert(sizeof m == sizeof w);
  std::memcpy(w, &m, sizeof w);
  return (w[0] & w[1]) == ~std::uint64_t{0};
}

/// y[i] = y[i] + a * x[i] for i in [0, n): whole vectors along i (loaded
/// unaligned: rows need not be padded), then the scalar tail -- per
/// element the scalar kernel's operation.
template <typename Vec, typename Real>
inline void axpy(Real* y, Real a, const Real* x, int n) {
  constexpr int kLanes = static_cast<int>(sizeof(Vec) / sizeof(Real));
  int i = 0;
#pragma GCC unroll 4
  for (; i + kLanes <= n; i += kLanes) {
    Vec vy, vx;
    std::memcpy(&vy, y + i, sizeof vy);
    std::memcpy(&vx, x + i, sizeof vx);
    vy = vy + a * vx;
    std::memcpy(y + i, &vy, sizeof vy);
  }
  for (; i < n; ++i) y[i] = y[i] + a * x[i];
}

}  // namespace detail_chunk

/// Chunk kernel: solves 1..4 I-lines (one ChunkDesc) as four logical
/// threads, bit-identical to running sweep_line_scalar on each line.
/// All lines must share length, direction and moment count; they may
/// differ in everything else (angle, cross sections, faces). Lanes past
/// @p nlines compute on dummy data and are never written back.
template <typename Real>
void sweep_chunk(const LineArgs<Real>* lines, int nlines, bool fixup,
                 BundleScratch<Real>& scratch, KernelStats* stats = nullptr) {
  using Vec = typename HostSimd<Real>::Vec;
  constexpr int kLanes = HostSimd<Real>::kLanes;
  constexpr int kChains = HostSimd<Real>::kChains;
  using detail_chunk::axpy;

  if (nlines < 1 || nlines > kBundleLines)
    throw std::invalid_argument("sweep_chunk: 1..4 lines per chunk");
  const int it = lines[0].it;
  const int dir = lines[0].dir;
  const int nm = lines[0].nm;
  for (int l = 1; l < nlines; ++l)
    if (lines[l].it != it || lines[l].dir != dir || lines[l].nm != nm)
      throw std::invalid_argument("sweep_chunk: chunk lines must share shape");
  if (scratch.q[0].size() < static_cast<std::size_t>(it))
    throw std::invalid_argument("sweep_chunk: scratch shorter than the lines");

  // A line's nm source and flux rows are separate streams of a few
  // cache lines each, too short for the hardware prefetcher: request
  // the source rows now and the flux rows while the recursion runs.
  for (int l = 0; l < nlines; ++l)
    detail_chunk::prefetch_rows(lines[l].src, lines[l].mstride, nm, it);

  // ---- Phase 1: q[i] = sum_n pn_src[n] * src_n[i], along i per line ----
  for (int l = 0; l < nlines; ++l) {
    const LineArgs<Real>& a = lines[l];
    Real* q = scratch.q[l].data();
    std::fill_n(q, it, Real(0));
    for (int n = 0; n < nm; ++n)
      axpy<Vec>(q, a.pn_src[n],
                a.src + static_cast<std::int64_t>(n) * a.mstride, it);
  }

  for (int l = 0; l < nlines; ++l)
    detail_chunk::prefetch_rows(lines[l].flux, lines[l].mstride, nm, it);

  // ---- Phase 2: the diamond recursion, packed across lines ----
  // Lane l of chain c is line x = c * kLanes + l. A lane past nlines
  // reads line 0's inputs (so it stays finite) and writes its outflows
  // into its own unused scratch phi line.
  const Real* sigt[kBundleLines];
  const Real* q[kBundleLines];
  const Real* in_j[kBundleLines];
  const Real* in_k[kBundleLines];
  Real* out_j[kBundleLines];
  Real* out_k[kBundleLines];
  Real* phi[kBundleLines];
  Vec ci[kChains], cj[kChains], ck[kChains], in_i[kChains];
  for (int x = 0; x < kBundleLines; ++x) {
    const int src = x < nlines ? x : 0;
    const LineArgs<Real>& a = lines[src];
    sigt[x] = a.sigt;
    q[x] = scratch.q[src].data();
    in_j[x] = a.phi_j;
    in_k[x] = a.phi_k;
    phi[x] = scratch.phi[x].data();
    out_j[x] = x < nlines ? a.phi_j : phi[x];
    out_k[x] = x < nlines ? a.phi_k : phi[x];
    ci[x / kLanes][x % kLanes] = a.ci;
    cj[x / kLanes][x % kLanes] = a.cj;
    ck[x / kLanes][x % kLanes] = a.ck;
    in_i[x / kLanes][x % kLanes] = *a.phi_i;
  }

  // The chain and lane loops are unrolled so every lane index is a
  // constant and the vectors stay in registers.
  for (int s = 0; s < it; ++s) {
    const int i = dir > 0 ? s : it - 1 - s;
#pragma GCC unroll 4
    for (int c = 0; c < kChains; ++c) {
      Vec sg, qv, ij, ik;
#pragma GCC unroll 4
      for (int l = 0; l < kLanes; ++l) {
        const int x = c * kLanes + l;
        sg[l] = sigt[x][i];
        qv[l] = q[x][i];
        ij[l] = in_j[x][i];
        ik[l] = in_k[x][i];
      }
      // The scalar kernel's operations, in its order (see solve_cell).
      const Vec num = qv + ci[c] * in_i[c] + cj[c] * ij + ck[c] * ik;
      const Vec den = sg + ci[c] + cj[c] + ck[c];
      Vec ph = num / den;
      Vec oi = Real(2) * ph - in_i[c];
      Vec oj = Real(2) * ph - ij;
      Vec ok = Real(2) * ph - ik;

      // Lanes with a negative outflow re-solve with solve_cell, whose
      // first step is the arithmetic above.
      if (fixup && !detail_chunk::all_lanes((oi >= Real(0)) & (oj >= Real(0)) &
                                            (ok >= Real(0)))) {
#pragma GCC unroll 4
        for (int l = 0; l < kLanes; ++l) {
          const int x = c * kLanes + l;
          if (x >= nlines || (oi[l] >= Real(0) && oj[l] >= Real(0) &&
                              ok[l] >= Real(0)))
            continue;
          const LineArgs<Real>& a = lines[x];
          const CellSolve<Real> f = solve_cell(qv[l], sg[l], a.ci, a.cj, a.ck,
                                               in_i[c][l], ij[l], ik[l], true);
          ph[l] = f.phi;
          oi[l] = f.out_i;
          oj[l] = f.out_j;
          ok[l] = f.out_k;
          if (stats) ++stats->fixups_applied;
        }
      }

      in_i[c] = oi;
#pragma GCC unroll 4
      for (int l = 0; l < kLanes; ++l) {
        const int x = c * kLanes + l;
        out_j[x][i] = oj[l];
        out_k[x][i] = ok[l];
        phi[x][i] = ph[l];
      }
    }
  }
  for (int x = 0; x < nlines; ++x)
    *lines[x].phi_i = in_i[x / kLanes][x % kLanes];

  // ---- Phase 3: Flux[n][i] += pn_acc[n] * phi[i], along i per line ----
  for (int l = 0; l < nlines; ++l) {
    const LineArgs<Real>& a = lines[l];
    for (int n = 0; n < nm; ++n)
      axpy<Vec>(a.flux + static_cast<std::int64_t>(n) * a.mstride,
                a.pn_acc[n], scratch.phi[l].data(), it);
  }

  if (stats) stats->cells += static_cast<std::uint64_t>(nlines) * it;
}

/// Flop accounting for one cell-angle solve, following the paper's
/// counting (madd = 2 flops, divide = 1): used by the Section 6
/// compute-bound audit.
constexpr std::uint64_t flops_per_cell_solve(int nm, bool fixup) {
  // source: nm madds; balance: 3 madds + 3 adds + 1 div + ...;
  // outflows: 3 (2*phi - in); accumulate: nm madds + 1 mul (w*phi is
  // folded into pn_acc, so just nm madds).
  const std::uint64_t base = 2ULL * nm  // source madds
                             + 6        // numerator madds
                             + 3        // denominator adds
                             + 1        // divide
                             + 6        // three outflow fms
                             + 2ULL * nm;  // accumulation madds
  // The fixup test itself costs three compares; count the occasional
  // re-solve as amortized two extra flops.
  return fixup ? base + 5 : base;
}

}  // namespace cellsweep::sweep
