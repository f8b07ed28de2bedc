// PARTIAL-INDIVIDUAL-FAULTS decision solver — the paper's Algorithm 2.
//
// Layered breadth-first search over timesteps: layer t holds every reachable
// (cache, positions, fetch) state together with the Pareto frontier of
// per-core fault vectors that reach it by time t.  Vectors exceeding the
// bounds are pruned immediately (they can never recover — faults are
// monotone), dominated vectors are dropped (the paper's pair lists, with
// dominance pruning added), and the search succeeds as soon as a state
// survives at the deadline, or every sequence finishes within bounds before
// it.  Worst case matches Theorem 7's O(n^{K+2p+1} (tau+1)^{p+1}).
//
// Fault accounting matches RunStats::faults_before: a fault counts against
// time t iff its request was issued at a step strictly before t.
//
// Restriction (documented in DESIGN.md): the search explores honest
// schedules (evict exactly one page per fault, only when the cache is
// full).  Theorem 4 justifies this for total faults; the paper leaves the
// dishonest-PIF question open.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "offline/checkpoint.hpp"
#include "offline/instance.hpp"
#include "offline/spill_arena.hpp"
#include "offline/state_space.hpp"

namespace mcp {

struct PifOptions {
  VictimRule victim_rule = VictimRule::kAllPages;
  /// Abort (throw ModelError) if a layer ever holds more than this many
  /// (state, vector) pairs; 0 = no limit.
  std::size_t max_layer_width = 0;
  /// Retain parent chains and, on a feasible instance, produce a witness
  /// eviction schedule replayable through the simulator (costs memory
  /// proportional to deadline x layer width).
  bool build_schedule = false;
  /// Search implementation.  kPacked runs the layered DP over interned
  /// bitset states; kReference is the retained unordered_map
  /// implementation.
  OfflineEngine engine = OfflineEngine::kPacked;
  /// Interner pre-sizing hint: expected distinct states of the solve
  /// (0 = a small default).  Right-sizing it eliminates the early
  /// arena/table doubling churn inside guarded hot loops.
  std::size_t expected_states = 0;
  /// Spill budget (packed engine): makes the interner arena file-backed and
  /// moves finished schedule-mode layer history into a spill file, so the
  /// DP can exceed RAM.
  StorageBudget storage;
  /// Layer-boundary checkpointing (packed engine); resume produces results
  /// bit-equal to an uninterrupted solve.
  CheckpointOptions checkpoint;
  /// Allocation sentry (DESIGN.md §10, packed engine only): arm an
  /// AllocGuard over every DP layer with index >= this value (0 = disabled).
  /// Enforces the §9 steady-state claim: past warm-up, a layer allocates
  /// only at the declared amortized growth points (interner arena/table,
  /// layer/front recycling pools) — anything else, e.g. a reintroduced
  /// per-emission temporary, throws ModelError.
  Time alloc_guard_after_layer = 0;
};

struct PifResult {
  bool feasible = false;
  std::size_t states_expanded = 0;
  std::size_t peak_layer_width = 0;  ///< max (state, vector) pairs in a layer
  Time decided_at = 0;               ///< layer at which the answer was fixed
  /// Witness schedule (one entry per fault, in the global fault order the
  /// simulator charges them) — only when feasible and
  /// PifOptions::build_schedule.  It covers the faults up to the decision
  /// point; behaviour after the deadline is immaterial to PIF, so
  /// verification replays it with an LRU fallback for the remainder (see
  /// verify_pif_witness).
  std::vector<PageId> schedule;
  /// Storage accounting (packed engine): interner high-water resident bytes
  /// plus the layer-history log, and cumulative bytes written to spill
  /// files (0 without a StorageBudget).
  std::size_t peak_bytes_in_ram = 0;
  std::size_t bytes_spilled = 0;
  /// True when the solve continued from PifOptions::checkpoint.
  bool resumed = false;
};

/// Replays `schedule` (LRU after it is exhausted) on the instance and
/// returns whether the per-core bounds hold at the deadline.
[[nodiscard]] bool verify_pif_witness(const PifInstance& instance,
                                      const std::vector<PageId>& schedule);

/// Decides the PIF instance exactly (within honest schedules).
[[nodiscard]] PifResult solve_pif(const PifInstance& instance,
                                  const PifOptions& options = {});

}  // namespace mcp
