// Tests for the Sn solve kernels: per-cell physics properties of the
// diamond-difference solve, fixup behavior, and bit-equality of the
// host chunk kernel and the SPU-intrinsic SIMD bundle kernel (both
// Figure 7) with the scalar line kernel (Figure 8).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sweep/kernel.h"
#include "sweep/kernel_simd.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace cellsweep::sweep {
namespace {

// ---------------------------------------------------------------------------
// solve_cell: per-cell physics
// ---------------------------------------------------------------------------

TEST(SolveCell, SatisfiesBalanceEquation) {
  // sigt*phi + sum_d (c_d/2)(out_d - in_d) = q  (diamond difference).
  const double q = 2.0, sigt = 1.5, ci = 3.0, cj = 4.0, ck = 5.0;
  const double ii = 0.7, ij = 0.3, ik = 0.9;
  const auto r = solve_cell(q, sigt, ci, cj, ck, ii, ij, ik, false);
  const double balance = sigt * r.phi + 0.5 * ci * (r.out_i - ii) +
                         0.5 * cj * (r.out_j - ij) + 0.5 * ck * (r.out_k - ik);
  EXPECT_NEAR(balance, q, 1e-12);
}

TEST(SolveCell, DiamondRelationHolds) {
  const auto r = solve_cell(1.0, 1.0, 2.0, 2.0, 2.0, 0.5, 0.25, 0.75, false);
  EXPECT_NEAR(r.out_i, 2 * r.phi - 0.5, 1e-15);
  EXPECT_NEAR(r.out_j, 2 * r.phi - 0.25, 1e-15);
  EXPECT_NEAR(r.out_k, 2 * r.phi - 0.75, 1e-15);
  EXPECT_FALSE(r.fixed);
}

TEST(SolveCell, PositiveInputsPositiveFlux) {
  util::SplitMix64 rng(11);
  for (int t = 0; t < 200; ++t) {
    const double q = rng.next_double(0.0, 10.0);
    const double sigt = rng.next_double(0.1, 10.0);
    const double c = rng.next_double(0.5, 20.0);
    const auto r = solve_cell(q, sigt, c, c, c, rng.next_double(),
                              rng.next_double(), rng.next_double(), false);
    EXPECT_GT(r.phi, 0.0);
  }
}

TEST(SolveCell, FixupZeroesNegativeOutflows) {
  // Optically thick cell, strong inflow, no source: diamond goes
  // negative; the fixup must clamp outflows at zero.
  const auto raw = solve_cell(0.0, 50.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0, false);
  ASSERT_LT(raw.out_i, 0.0);
  const auto fixed = solve_cell(0.0, 50.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0, true);
  EXPECT_TRUE(fixed.fixed);
  EXPECT_GE(fixed.out_i, 0.0);
  EXPECT_GE(fixed.out_j, 0.0);
  EXPECT_GE(fixed.out_k, 0.0);
  EXPECT_GE(fixed.phi, 0.0);
}

TEST(SolveCell, FixupPreservesBalanceWithZeroedFaces) {
  // With a face pinned to zero outflow, the balance still holds with
  // the half-inflow convention.
  const double q = 0.0, sigt = 50.0, c = 4.0, in = 1.0;
  const auto r = solve_cell(q, sigt, c, c, c, in, in, in, true);
  const double balance = sigt * r.phi + 0.5 * c * (r.out_i - in) +
                         0.5 * c * (r.out_j - in) + 0.5 * c * (r.out_k - in);
  EXPECT_NEAR(balance, q, 1e-12);
}

TEST(SolveCell, FixupNoOpWhenAllPositive) {
  const auto a = solve_cell(1.0, 1.0, 2.0, 2.0, 2.0, 0.1, 0.1, 0.1, false);
  const auto b = solve_cell(1.0, 1.0, 2.0, 2.0, 2.0, 0.1, 0.1, 0.1, true);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.out_i, b.out_i);
  EXPECT_FALSE(b.fixed);
}

TEST(SolveCell, SinglePrecisionVariantWorks) {
  const auto r =
      solve_cell<float>(1.f, 1.f, 2.f, 2.f, 2.f, 0.5f, 0.25f, 0.75f, false);
  EXPECT_GT(r.phi, 0.f);
  EXPECT_NEAR(r.out_i, 2 * r.phi - 0.5f, 1e-6);
}

// ---------------------------------------------------------------------------
// Line kernels: scalar vs chunk and SIMD bundle, parameterized over shapes
// ---------------------------------------------------------------------------

template <typename Real>
struct LineProblem {
  LineProblem(int nlines, int it, int nm, bool thick, std::uint64_t seed)
      : nlines_(nlines), it_(it), nm_(nm) {
    util::SplitMix64 rng(seed);
    const std::size_t pad = util::padded_extent<Real>(it);
    src.assign(static_cast<std::size_t>(nm) * pad, Real(0));
    for (auto& x : src) x = static_cast<Real>(rng.next_double(0.0, 2.0));
    sigt.assign(pad, Real(1));
    for (int i = 0; i < it; ++i)
      sigt[i] = static_cast<Real>(
          thick ? rng.next_double(20.0, 60.0) : rng.next_double(0.5, 2.0));
    pn_src.resize(nm);
    pn_acc.resize(nm);
    for (int n = 0; n < nm; ++n) {
      // Nonnegative coefficients keep q >= 0, so the thin-cell cases
      // genuinely exercise the no-fixup path.
      pn_src[n] = static_cast<Real>(rng.next_double(0.0, 1.0));
      pn_acc[n] = static_cast<Real>(rng.next_double(0.0, 0.2));
    }
    pn_src[0] = Real(1);
    for (int l = 0; l < nlines; ++l) {
      flux[l].assign(static_cast<std::size_t>(nm) * pad, Real(0));
      phi_j[l].assign(pad, Real(0));
      phi_k[l].assign(pad, Real(0));
      for (int i = 0; i < it; ++i) {
        phi_j[l][i] = static_cast<Real>(rng.next_double(0.0, thick ? 5.0 : 1.0));
        phi_k[l][i] = static_cast<Real>(rng.next_double(0.0, thick ? 5.0 : 1.0));
      }
      phi_i[l] = static_cast<Real>(rng.next_double(0.0, 1.0));
      ci[l] = static_cast<Real>(rng.next_double(1.0, 10.0));
      cj[l] = static_cast<Real>(rng.next_double(1.0, 10.0));
      ck[l] = static_cast<Real>(rng.next_double(1.0, 10.0));
    }
  }

  LineArgs<Real> args(int l, int dir) {
    LineArgs<Real> a;
    a.it = it_;
    a.dir = dir;
    a.sigt = sigt.data();
    a.src = src.data();
    a.flux = flux[l].data();
    a.mstride = static_cast<std::int64_t>(util::padded_extent<Real>(it_));
    a.pn_src = pn_src.data();
    a.pn_acc = pn_acc.data();
    a.nm = nm_;
    a.ci = ci[l];
    a.cj = cj[l];
    a.ck = ck[l];
    a.phi_j = phi_j[l].data();
    a.phi_k = phi_k[l].data();
    a.phi_i = &phi_i[l];
    return a;
  }

  int nlines_, it_, nm_;
  util::AlignedVector<Real> src, sigt;
  std::vector<Real> pn_src, pn_acc;
  util::AlignedVector<Real> flux[kBundleLines], phi_j[kBundleLines],
      phi_k[kBundleLines];
  Real phi_i[kBundleLines];
  Real ci[kBundleLines], cj[kBundleLines], ck[kBundleLines];
};

/// Runs the same lines through sweep_line_scalar (one line at a time)
/// and through @p kernel (all lines at once) on two identical problems,
/// each first passed to @p edit if given, and requires every output bit
/// and both KernelStats counts to match.
template <typename Real, typename Kernel>
void expect_bit_equal_to_scalar(int nlines, int it, int nm, bool thick,
                                int dir, std::uint64_t seed, Kernel kernel,
                                void (*edit)(LineProblem<Real>&) = nullptr) {
  LineProblem<Real> scalar_prob(nlines, it, nm, thick, seed);
  LineProblem<Real> prob(nlines, it, nm, thick, seed);
  if (edit) {
    edit(scalar_prob);
    edit(prob);
  }

  KernelStats s1, s2;
  for (int l = 0; l < nlines; ++l) {
    LineArgs<Real> a = scalar_prob.args(l, dir);
    sweep_line_scalar(a, thick, &s1);
  }
  std::vector<LineArgs<Real>> lines;
  for (int l = 0; l < nlines; ++l) lines.push_back(prob.args(l, dir));
  kernel(lines.data(), nlines, thick, &s2);

  const std::size_t pad = util::padded_extent<Real>(it);
  for (int l = 0; l < nlines; ++l) {
    for (int n = 0; n < nm; ++n)
      for (int i = 0; i < it; ++i) {
        const std::size_t idx = static_cast<std::size_t>(n) * pad + i;
        ASSERT_EQ(scalar_prob.flux[l][idx], prob.flux[l][idx])
            << "line " << l << " moment " << n << " cell " << i;
      }
    for (int i = 0; i < it; ++i) {
      ASSERT_EQ(scalar_prob.phi_j[l][i], prob.phi_j[l][i])
          << "line " << l << " cell " << i;
      ASSERT_EQ(scalar_prob.phi_k[l][i], prob.phi_k[l][i])
          << "line " << l << " cell " << i;
    }
    ASSERT_EQ(scalar_prob.phi_i[l], prob.phi_i[l]) << "line " << l;
  }
  EXPECT_EQ(s1.cells, s2.cells);
  EXPECT_EQ(s1.fixups_applied, s2.fixups_applied);
}

template <typename Real>
void run_bundle(const LineArgs<Real>* lines, int nlines, bool fixup,
                KernelStats* stats) {
  BundleScratch<Real> scratch(lines[0].it);
  sweep_bundle_simd(lines, nlines, fixup, scratch, stats);
}

template <typename Real>
void run_chunk(const LineArgs<Real>* lines, int nlines, bool fixup,
               KernelStats* stats) {
  BundleScratch<Real> scratch(lines[0].it);
  sweep_chunk(lines, nlines, fixup, scratch, stats);
}

// (nlines, it, nm, fixup&thick, dir)
using ShapeParam = std::tuple<int, int, int, bool, int>;

class KernelEquivalence : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KernelEquivalence, SimdBundleBitEqualsScalarDouble) {
  const auto [nlines, it, nm, thick, dir] = GetParam();
  expect_bit_equal_to_scalar<double>(nlines, it, nm, thick, dir, 99,
                                     run_bundle<double>);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),   // nlines
                       ::testing::Values(1, 7, 50),     // it
                       ::testing::Values(1, 6, 9, 16),  // nm
                       ::testing::Bool(),               // thick/fixup
                       ::testing::Values(+1, -1)));     // direction

class KernelEquivalenceSp : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KernelEquivalenceSp, SimdBundleBitEqualsScalarSingle) {
  const auto [nlines, it, nm, thick, dir] = GetParam();
  expect_bit_equal_to_scalar<float>(nlines, it, nm, thick, dir, 7,
                                    run_bundle<float>);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelEquivalenceSp,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Values(5, 50),
                       ::testing::Values(6), ::testing::Bool(),
                       ::testing::Values(+1, -1)));

// The host chunk kernel computes every functional solve, so it is
// checked on line lengths that leave partial vectors (it % 2, it % 4),
// every chunk width, both directions and the moment counts in use.
class ChunkEquivalence : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ChunkEquivalence, ChunkBitEqualsScalarDouble) {
  const auto [nlines, it, nm, thick, dir] = GetParam();
  expect_bit_equal_to_scalar<double>(nlines, it, nm, thick, dir, 41,
                                     run_chunk<double>);
}

TEST_P(ChunkEquivalence, ChunkBitEqualsScalarSingle) {
  const auto [nlines, it, nm, thick, dir] = GetParam();
  expect_bit_equal_to_scalar<float>(nlines, it, nm, thick, dir, 43,
                                    run_chunk<float>);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),          // nlines
                       ::testing::Values(1, 2, 3, 5, 50, 67),  // it
                       ::testing::Values(1, 6, 16),            // nm
                       ::testing::Bool(),                      // thick/fixup
                       ::testing::Values(+1, -1)));            // direction

/// Mixed thin and thick cells: with per-line inflows and angles, each
/// line needs fixups on its own subset of cells.
void mixed_thickness(LineProblem<double>& prob) {
  util::SplitMix64 rng(5);
  for (int i = 0; i < prob.it_; ++i)
    prob.sigt[i] = rng.next_double(1.0, 30.0);
}

TEST(ChunkKernel, LanesFixUpOnDifferentCells) {
  // Lanes of one vector take the scalar re-solve on different cells,
  // and the chunk and SPU bundle kernels still match the scalar kernel
  // bit for bit. (The thick LineProblem fixes up nearly every cell, so
  // the shape sweeps above seldom mix the two paths in one vector.)
  LineProblem<double> prob(4, 50, 6, /*thick=*/true, 41);
  mixed_thickness(prob);
  std::uint64_t fixups[4];
  for (int l = 0; l < 4; ++l) {
    KernelStats st;
    LineArgs<double> a = prob.args(l, +1);
    sweep_line_scalar(a, true, &st);
    fixups[l] = st.fixups_applied;
    EXPECT_GT(fixups[l], 0u) << "line " << l;
    EXPECT_LT(fixups[l], 50u) << "line " << l;
  }
  EXPECT_TRUE(fixups[0] != fixups[1] || fixups[0] != fixups[2] ||
              fixups[0] != fixups[3]);
  expect_bit_equal_to_scalar<double>(4, 50, 6, true, +1, 41,
                                     run_chunk<double>, mixed_thickness);
  expect_bit_equal_to_scalar<double>(4, 50, 6, true, -1, 41,
                                     run_bundle<double>, mixed_thickness);
}

TEST(ChunkKernel, ChunkValidatesShape) {
  LineProblem<double> prob(2, 10, 6, false, 5);
  BundleScratch<double> scratch(10);
  LineArgs<double> ok[2] = {prob.args(0, +1), prob.args(1, +1)};
  EXPECT_THROW(sweep_chunk(ok, 0, false, scratch), std::invalid_argument);
  EXPECT_THROW(sweep_chunk(ok, 5, false, scratch), std::invalid_argument);

  LineArgs<double> bad_dir[2] = {prob.args(0, +1), prob.args(1, -1)};
  EXPECT_THROW(sweep_chunk(bad_dir, 2, false, scratch), std::invalid_argument);
  LineArgs<double> bad_it[2] = {prob.args(0, +1), prob.args(1, +1)};
  bad_it[1].it = 9;
  EXPECT_THROW(sweep_chunk(bad_it, 2, false, scratch), std::invalid_argument);
  LineArgs<double> bad_nm[2] = {prob.args(0, +1), prob.args(1, +1)};
  bad_nm[1].nm = 5;
  EXPECT_THROW(sweep_chunk(bad_nm, 2, false, scratch), std::invalid_argument);
}

TEST(Kernel, FixupsReportedInThickCells) {
  LineProblem<double> prob(1, 20, 6, /*thick=*/true, 3);
  KernelStats stats;
  LineArgs<double> a = prob.args(0, +1);
  sweep_line_scalar(a, true, &stats);
  EXPECT_EQ(stats.cells, 20u);
  EXPECT_GT(stats.fixups_applied, 0u);
}

TEST(Kernel, NoFixupsInThinCells) {
  LineProblem<double> prob(1, 20, 6, /*thick=*/false, 3);
  KernelStats stats;
  LineArgs<double> a = prob.args(0, +1);
  sweep_line_scalar(a, true, &stats);
  EXPECT_EQ(stats.fixups_applied, 0u);
}

TEST(Kernel, BundleValidatesShape) {
  LineProblem<double> prob(2, 10, 6, false, 5);
  LineArgs<double> bundle[2] = {prob.args(0, +1), prob.args(1, -1)};
  BundleScratch<double> scratch(10);
  EXPECT_THROW(sweep_bundle_simd(bundle, 2, false, scratch, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sweep_bundle_simd(bundle, 0, false, scratch, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sweep_bundle_simd(bundle, 5, false, scratch, nullptr),
               std::invalid_argument);
}

TEST(Kernel, FlopAccountingFormula) {
  EXPECT_EQ(flops_per_cell_solve(6, false), 2u * 6 + 6 + 3 + 1 + 6 + 2 * 6);
  EXPECT_EQ(flops_per_cell_solve(6, true), flops_per_cell_solve(6, false) + 5);
  EXPECT_GT(flops_per_cell_solve(9, false), flops_per_cell_solve(6, false));
}

}  // namespace
}  // namespace cellsweep::sweep
