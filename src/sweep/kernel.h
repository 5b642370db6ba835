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
// sweep_line_scalar below is the kernel that computes all physics: the
// functional solve runs it for every I-line, whichever kernel the timing
// model prices. The SIMD bundle kernel in kernel_simd.h implements the
// same math as four "logical threads" over spu:: intrinsics (Figure 7);
// it is run only to record the SPU instruction trace of a SIMD chunk,
// and tests/kernel_test.cc pins it bit-equal to this kernel.
#pragma once

#include <cstdint>

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
