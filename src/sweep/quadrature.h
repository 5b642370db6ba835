// Discrete-ordinates (Sn) angular quadrature.
//
// Sweep3D models particle movement along a finite number of beams: six
// angles per octant, eight octants (paper, Section 3). Six angles per
// octant is exactly the level-symmetric S6 set, N(N+2)/8 = 6. This
// module provides level-symmetric LQn sets for S2..S8 plus the octant
// bookkeeping (sweep direction signs and corner ordering) that the
// wavefront algorithm needs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace cellsweep::sweep {

/// One discrete direction in the first octant (all cosines positive).
struct Ordinate {
  double mu;   ///< direction cosine along I
  double eta;  ///< direction cosine along J
  double xi;   ///< direction cosine along K
  double w;    ///< quadrature weight (per-octant weights sum to 1/8)
};

/// Sweep direction signs of one octant.
struct Octant {
  int sx;  ///< +1: sweep i ascending (west->east), -1: descending
  int sy;  ///< +1: sweep j ascending (north->south in Fig. 1 terms)
  int sz;  ///< +1: sweep k ascending
};

/// The eight octants in Sweep3D's iq order (jq/kq/iq nesting flattened;
/// any fixed order is valid since octant sweeps are sequential).
std::array<Octant, 8> all_octants();

/// Level-symmetric quadrature over the unit sphere.
class SnQuadrature {
 public:
  /// Builds the LQn set of order @p n (2, 4, 6 or 8). Sweep3D's six
  /// angles per octant correspond to n = 6.
  explicit SnQuadrature(int n = 6);

  int order() const noexcept { return order_; }

  /// Ordinates of the first octant; other octants mirror the cosines
  /// with the octant signs. Sweep3D calls this count "6" (mm).
  const std::vector<Ordinate>& octant_ordinates() const noexcept {
    return ordinates_;
  }
  int angles_per_octant() const noexcept {
    return static_cast<int>(ordinates_.size());
  }

  /// Total directions over the sphere (8 x angles_per_octant).
  int total_angles() const noexcept { return 8 * angles_per_octant(); }

  /// Sum of weights over the full sphere (normalized to 1, so the
  /// scalar flux is a plain weighted sum of angular fluxes).
  double total_weight() const noexcept;

 private:
  int order_;
  std::vector<Ordinate> ordinates_;
};

/// Number of flux moments the benchmark deck carries: P2 scattering
/// with the azimuthal l=2 cross terms truncated (1 + 3 + 2 = 6). This
/// reproduces the original input's working-set size -- with six moment
/// rows per line the 50-cubed problem streams the paper's ~17.6 GB.
/// The truncated operator is still symmetric positive semidefinite, so
/// source iteration converges exactly as with the full set.
inline constexpr int kBenchmarkMoments = 6;

/// Spherical-harmonics coefficient table for the scattering source.
//
// Sweep3D keeps `nm` flux moments and expands the per-angle source as
//   q_m = sum_n pn[m][n] * Src[n]        (Figure 6's pn array)
// and accumulates moments as
//   Flux[n] += pn[m][n] * w[m] * Phi     (Figure 6's loop).
// Full P_l scattering needs nm = (l_max+1)^2 real moments (supported
// through P3 / nm = 16); an nm_cap keeps only the first nm_cap basis
// functions (the kernel sum_n R_n R_n' of a truncated basis is still
// PSD).
class MomentTable {
 public:
  /// @p l_max: highest Legendre order kept (0..3; P2 -> nm = 9).
  /// @p nm_cap: if nonzero, keep only the first nm_cap moments.
  MomentTable(const SnQuadrature& quad, int l_max, int nm_cap = 0);

  /// Moments a table of (@p l_max, @p nm_cap) carries, without building
  /// it. Throws std::invalid_argument exactly when the constructor
  /// would.
  static int count(int l_max, int nm_cap);

  int nm() const noexcept { return nm_; }
  int l_max() const noexcept { return l_max_; }

  /// pn[m*nm + n]: real spherical harmonic n evaluated at ordinate m of
  /// octant @p octant (0..7).
  const double* pn(int octant) const noexcept {
    return pn_[octant].data();
  }

  /// Legendre order l(n) of moment n (0 for the scalar flux moment).
  int moment_order(int n) const noexcept { return l_of_n_[n]; }

 private:
  int nm_;
  int l_max_;
  int mm_;
  std::array<std::vector<double>, 8> pn_;
  std::vector<int> l_of_n_;
};

}  // namespace cellsweep::sweep
