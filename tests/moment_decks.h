// Decks whose moment count depends on the scattering order of their
// moment table: the lint verdict, a direct run and server admission
// must all agree on them (the order comes from sweep::Deck::l_max).
#pragma once

namespace cellsweep::test_decks {

struct MomentDeck {
  const char* name;
  const char* text;
  bool runs;  ///< the table can be built, so every path accepts it
};

inline constexpr MomentDeck kMomentDecks[] = {
    // P3 scattering with 12 of its 16 moments.
    {"p3", "it 8  jt 8  kt 8\ndx 0.04  dy 0.04  dz 0.04\nmk 4  mmi 3\n"
           "sn 6  moments 12\niterations 2  fixup_from 1\n"
           "material m 1.0 0.5 0.1 0.05 0.02 source 1.0\n",
     true},
    // P4 scattering: beyond the table's P3, truncated to 6 moments.
    {"p4", "it 8  jt 8  kt 8\ndx 0.04  dy 0.04  dz 0.04\nmk 4  mmi 3\n"
           "sn 6  moments 6\niterations 2  fixup_from 1\n"
           "material m 1.0 0.5 0.1 0.05 0.02 0.01 source 1.0\n",
     true},
    // P2 scattering asking for 12 moments; a P2 table holds 9.
    {"p2-moments-12",
     "it 8  jt 8  kt 8\ndx 0.04  dy 0.04  dz 0.04\nmk 4  mmi 3\n"
     "sn 6  moments 12\niterations 2  fixup_from 1\n"
     "material m 1.0 0.5 0.2 0.05 source 1.0\n",
     false},
};

}  // namespace cellsweep::test_decks
