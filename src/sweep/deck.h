// Input decks: run problems from text files, like the original
// Sweep3D's `input` deck (it/jt/kt, mk, mmi, convergence control,
// cross sections). The format is line-oriented `key value...` with `#`
// comments:
//
//   it 50            jt 50           kt 50
//   dx 0.04          dy 0.04         dz 0.04
//   mk 10            mmi 3
//   sn 6             moments 6
//   iterations 12    fixup_from 10   epsilon 0
//   material shield 8.0 0.4 0.0 source 0.0
//   region 1 12 20 0 32 0 32        # material-index box [i0,i1)x[j0,j1)x[k0,k1)
//   bc west reflective
//
// The first `material` line is material 0 and fills the whole domain;
// `region` lines overwrite boxes with later materials.
#pragma once

#include <algorithm>
#include <iosfwd>
#include <memory>
#include <string>

#include "sweep/problem.h"
#include "sweep/sweeper.h"

namespace cellsweep::sweep {

/// Everything a deck specifies.
struct Deck {
  Problem problem;
  SweepConfig sweep;
  int sn_order = 6;
  int nm_cap = kBenchmarkMoments;
  /// Where the deck came from ("<string>" unless loaded from a file);
  /// diagnostics (e.g. the deck linter) prefix findings with it.
  std::string source = "<string>";

  /// Scattering order of the deck's moment table: the benchmark's P2,
  /// raised to P3 (the table's highest) when a material scatters beyond
  /// P2. Rows depend only on the moment index, so the order decides
  /// only which moment counts are legal. Runners, linters and the solve
  /// server all take l_max from here.
  int l_max() const noexcept {
    return std::clamp(problem.max_scattering_order(), 2, 3);
  }
  /// Flux moments the runners carry; throws std::invalid_argument when
  /// the deck asks for more than the table holds.
  int moments() const { return MomentTable::count(l_max(), nm_cap); }
};

/// Thrown with a line number and description on malformed decks.
class DeckError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a deck from a stream.
Deck parse_deck(std::istream& in);

/// Parses a deck from a string (convenience for tests).
Deck parse_deck_string(const std::string& text);

/// Loads a deck file; throws DeckError if unreadable.
Deck load_deck(const std::string& path);

}  // namespace cellsweep::sweep
