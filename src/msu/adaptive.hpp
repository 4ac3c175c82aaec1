// Adaptive ramp scheduling: decide the flip code without simulating the
// full I_REFP staircase.
//
// The conversion step of the flow is a monotone threshold search: OUT flips
// at the first ramp level whose reference current exceeds what the sense
// transistor (biased by the charge-shared V_GS) can sink. The scheduler
// pauses the cell's transient after step 4 (charge sharing done, ramp not
// yet started) and then continues it one ramp level at a time, stopping at
// the level where OUT crosses. Because the staircase code is
// path-dependent — the sense node integrates charge during sub-threshold
// dwells, so a cell's flip depends on the levels it ramped through — a
// probe cannot hold a level in isolation: only the genuine staircase is
// ever simulated. The predicate "has OUT flipped by the end of ramp level
// k" is then bracket-searched against the known flip time; a search
// simulating lazily would have stopped at the same level, so the probe
// count is the same. The total transient cost is the ramp prefix up to the
// flip instead of the whole staircase, and the flip time feeds the same
// decode as the exhaustive path — codes are bit-identical by construction.
//
// Whenever the scheme cannot be trusted (the cell needed the recovery
// ladder, fault injection is armed, OUT is already high before the ramp, a
// ramp segment fails to converge, or the probe budget runs out), extraction
// falls back to the exhaustive linear ramp — the legacy path, bit-for-bit —
// so adaptive scheduling never changes a code.
#pragma once

#include <functional>
#include <string>

namespace ecms::msu {

struct AdaptiveOptions {
  bool enabled = false;
  /// Probe budget of the code search before giving up and falling back to
  /// the full ramp. Probes answered from the already-simulated trajectory
  /// are free but still count toward this budget.
  int max_probes = 12;
};

/// What the scheduler did for one cell.
struct AdaptiveReport {
  bool attempted = false;  ///< adaptive scheduling was enabled for this cell
  bool used = false;       ///< the code came from the probe search
  bool fell_back = false;  ///< the exhaustive ramp decided the code instead
  std::string fallback_reason;
  int probes = 0;  ///< probe-search queries
  int guess = -1;  ///< model-predicted code seeding the search (-1: none)
};

/// Binary-searches the smallest ramp level k in [1, steps] for which
/// `probe(k)` is true, seeded by `guess` (a predicted code, i.e. predicted
/// threshold level guess+1; pass -1 for no prediction). Returns the level
/// minus one (so `steps` when no level satisfies the predicate), or -1 if
/// `max_probes` probes were spent before the bracket closed. `probe` must
/// be monotone: false below the threshold level, true at and above it. Each
/// level is probed at most once. With an exact or off-by-one guess the
/// search closes in two to three probes; an unseeded search costs
/// ceil(log2(steps + 1)).
int schedule_ramp_search(int steps, int guess, int max_probes,
                         const std::function<bool(int)>& probe,
                         int* probes_used = nullptr);

}  // namespace ecms::msu
