#include "sweep/quadrature.h"

#include <cmath>
#include <stdexcept>

namespace cellsweep::sweep {
namespace {

/// Level-symmetric LQn cosine levels and point weights, from the
/// standard tables (Lewis & Miller). Point weights are normalized so
/// each octant sums to 1; the constructor rescales to 1/8 per octant.
struct LqnLevel {
  double mu;
};

void build_s2(std::vector<Ordinate>& out) {
  const double m = 1.0 / std::sqrt(3.0);
  out.push_back(Ordinate{m, m, m, 1.0});
}

void build_s4(std::vector<Ordinate>& out) {
  const double m1 = 0.3500212;
  const double m2 = 0.8688903;
  const double w = 1.0 / 3.0;
  out.push_back(Ordinate{m1, m1, m2, w});
  out.push_back(Ordinate{m1, m2, m1, w});
  out.push_back(Ordinate{m2, m1, m1, w});
}

void build_s6(std::vector<Ordinate>& out) {
  const double m1 = 0.2666355;
  const double m2 = 0.6815076;
  const double m3 = 0.9261808;
  const double w1 = 0.1761263;  // permutations of (1,1,3)
  const double w2 = 0.1572071;  // permutations of (1,2,2)
  out.push_back(Ordinate{m1, m1, m3, w1});
  out.push_back(Ordinate{m1, m3, m1, w1});
  out.push_back(Ordinate{m3, m1, m1, w1});
  out.push_back(Ordinate{m1, m2, m2, w2});
  out.push_back(Ordinate{m2, m1, m2, w2});
  out.push_back(Ordinate{m2, m2, m1, w2});
}

void build_s8(std::vector<Ordinate>& out) {
  const double m1 = 0.2182179;
  const double m2 = 0.5773503;
  const double m3 = 0.7867958;
  const double m4 = 0.9511897;
  const double w1 = 0.1209877;  // (1,1,4)
  const double w2 = 0.0907407;  // (1,2,3)
  const double w3 = 0.0925926;  // (2,2,2)
  out.push_back(Ordinate{m1, m1, m4, w1});
  out.push_back(Ordinate{m1, m4, m1, w1});
  out.push_back(Ordinate{m4, m1, m1, w1});
  out.push_back(Ordinate{m1, m2, m3, w2});
  out.push_back(Ordinate{m1, m3, m2, w2});
  out.push_back(Ordinate{m2, m1, m3, w2});
  out.push_back(Ordinate{m3, m1, m2, w2});
  out.push_back(Ordinate{m2, m3, m1, w2});
  out.push_back(Ordinate{m3, m2, m1, w2});
  out.push_back(Ordinate{m2, m2, m2, w3});
}

}  // namespace

std::array<Octant, 8> all_octants() {
  // Sweep order follows Sweep3D's octant loop: each octant starts the
  // wave at a different corner of the process grid.
  return {{
      {+1, +1, +1},
      {-1, +1, +1},
      {+1, -1, +1},
      {-1, -1, +1},
      {+1, +1, -1},
      {-1, +1, -1},
      {+1, -1, -1},
      {-1, -1, -1},
  }};
}

SnQuadrature::SnQuadrature(int n) : order_(n) {
  switch (n) {
    case 2: build_s2(ordinates_); break;
    case 4: build_s4(ordinates_); break;
    case 6: build_s6(ordinates_); break;
    case 8: build_s8(ordinates_); break;
    default:
      throw std::invalid_argument(
          "SnQuadrature: only S2, S4, S6, S8 level-symmetric sets");
  }
  // Normalize octant weights to sum to exactly 1/8 so the full-sphere
  // weight is 1 (scalar flux = plain weighted sum).
  double sum = 0.0;
  for (const auto& o : ordinates_) sum += o.w;
  for (auto& o : ordinates_) o.w *= 0.125 / sum;
}

double SnQuadrature::total_weight() const noexcept {
  double sum = 0.0;
  for (const auto& o : ordinates_) sum += o.w;
  return 8.0 * sum;
}

int MomentTable::count(int l_max, int nm_cap) {
  if (l_max < 0 || l_max > 3)
    throw std::invalid_argument("MomentTable: l_max must be 0..3");
  const int full = (l_max + 1) * (l_max + 1);
  if (nm_cap < 0 || nm_cap > full)
    throw std::invalid_argument("MomentTable: nm_cap out of range");
  return nm_cap > 0 ? nm_cap : full;
}

MomentTable::MomentTable(const SnQuadrature& quad, int l_max, int nm_cap)
    : nm_(count(l_max, nm_cap)),
      l_max_(l_max),
      mm_(quad.angles_per_octant()) {
  l_of_n_.resize(nm_);
  l_of_n_[0] = 0;
  for (int n = 1; n < nm_ && n < 4; ++n) l_of_n_[n] = 1;
  for (int n = 4; n < nm_ && n < 9; ++n) l_of_n_[n] = 2;
  for (int n = 9; n < nm_; ++n) l_of_n_[n] = 3;

  const auto octants = all_octants();
  const double s3 = std::sqrt(3.0);
  for (int iq = 0; iq < 8; ++iq) {
    auto& table = pn_[iq];
    table.resize(static_cast<std::size_t>(mm_) * nm_);
    for (int m = 0; m < mm_; ++m) {
      const Ordinate& o = quad.octant_ordinates()[m];
      const double mu = octants[iq].sx * o.mu;
      const double eta = octants[iq].sy * o.eta;
      const double xi = octants[iq].sz * o.xi;
      double* row = table.data() + static_cast<std::size_t>(m) * nm_;
      // Real basis satisfying the addition theorem
      //   P_l(O . O') = sum_{n in l} R_n(O) R_n(O'),
      // so the scattering source is q_m = sum_n (2 l_n + 1) sigma_{s,l}
      // R_n(m) phi_n with full-sphere weight normalization 1.
      // Racah-normalized real spherical harmonics through l = 3: each
      // l-band satisfies the addition theorem
      //   sum_{n in l} R_n(O) R_n(O') = P_l(O . O')
      // (verified by parameterized tests), so the scattering source
      // q_m = sum_n (2l_n+1) sigma_l R_n phi_n is exact anisotropic
      // P_l scattering under the full-sphere weight normalization 1.
      const double s15 = std::sqrt(15.0);
      const double basis[16] = {
          1.0,
          mu,
          eta,
          xi,
          0.5 * (3.0 * xi * xi - 1.0),
          s3 * mu * xi,
          s3 * eta * xi,
          0.5 * s3 * (mu * mu - eta * eta),
          s3 * mu * eta,
          0.5 * xi * (5.0 * xi * xi - 3.0),
          std::sqrt(3.0 / 8.0) * mu * (5.0 * xi * xi - 1.0),
          std::sqrt(3.0 / 8.0) * eta * (5.0 * xi * xi - 1.0),
          0.5 * s15 * xi * (mu * mu - eta * eta),
          s15 * mu * eta * xi,
          std::sqrt(5.0 / 8.0) * mu * (mu * mu - 3.0 * eta * eta),
          std::sqrt(5.0 / 8.0) * eta * (3.0 * mu * mu - eta * eta)};
      for (int n = 0; n < nm_; ++n) row[n] = basis[n];
    }
  }
}

}  // namespace cellsweep::sweep
