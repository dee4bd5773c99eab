// Counters for the dynamic-graph subsystem (src/dyn/).
//
// Lives in obs (not dyn) for the same reason MatchStats does: the serve
// layer reports these on its STATS line and must be able to name the type
// without depending on the subsystem that fills it. Plain fields, no
// atomics — DynamicGraph mutates them under its own mutex and hands out
// copies, so readers never see torn values. `epoch` is DynamicGraph's epoch
// counter itself, so a copy's epoch always agrees with its folds and
// compactions.

#ifndef CFL_OBS_DYN_COUNTERS_H_
#define CFL_OBS_DYN_COUNTERS_H_

#include <cstdint>

namespace cfl::obs {

struct DynCounters {
  // Lifetime totals.
  uint64_t epoch = 0;            // the current epoch: folds + compactions
  uint64_t folds = 0;            // deltas folded into a fresh snapshot
  uint64_t compactions = 0;      // from-scratch rebuilds installed
  uint64_t compactions_abandoned = 0;  // rebuilt, but the epoch moved on
  uint64_t epochs_retired = 0;   // superseded snapshots freed by their
                                 // last reader

  uint64_t vertices_added = 0;
  uint64_t vertices_removed = 0;
  uint64_t edges_added = 0;
  uint64_t edges_removed = 0;

  // Gauge sampled when the snapshot of counters is taken.
  uint64_t live_epochs = 0;      // current + superseded still referenced
};

}  // namespace cfl::obs

#endif  // CFL_OBS_DYN_COUNTERS_H_
