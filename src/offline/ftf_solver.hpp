// Optimal FINAL-TOTAL-FAULTS solver — the paper's Algorithm 1.
//
// The paper fills a (p+1)-dimensional table over (cache configuration,
// position vector); we run the equivalent search as Dijkstra over the
// TransitionSystem (cost = faults per step), which visits only *reachable*
// configurations — typically a tiny fraction of the full table — while
// computing the same optimum.  Complexity is the paper's
// O(n^{K+p} (tau+1)^p) in the worst case (Theorem 6): polynomial in the
// sequence length for constant K and p, exponential in K and p.
//
// With VictimRule::kFitfPerSequence the search only ever evicts, within the
// chosen core, the page requested furthest in that core's future — by
// Theorem 5 this restriction preserves optimality on disjoint inputs, and
// experiment E11 verifies the two searches agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "offline/checkpoint.hpp"
#include "offline/instance.hpp"
#include "offline/spill_arena.hpp"
#include "offline/state_space.hpp"

namespace mcp {

struct FtfOptions {
  VictimRule victim_rule = VictimRule::kAllPages;
  /// Reconstruct an optimal eviction schedule (costs parent-pointer memory).
  bool build_schedule = false;
  /// Abort (throw ModelError) after storing this many states; 0 = no limit.
  std::size_t max_states = 0;
  /// Search implementation.  kPacked runs Dial's bucket-queue shortest path
  /// over interned bitset states (edge weights are 0..p faults per step, so
  /// distances are dense); kReference is the retained binary-heap Dijkstra
  /// over OfflineState nodes.  Both compute the same optimum.
  OfflineEngine engine = OfflineEngine::kPacked;
  /// No effect: the packed engine expands serially.  Kept only because the
  /// perfbench offline workload still sets it.
  std::size_t workers = 0;
  /// Interner pre-sizing hint: expected distinct states of the solve
  /// (0 = a small default).  Right-sizing it eliminates the early
  /// arena/table doubling churn inside guarded hot loops.
  std::size_t expected_states = 0;
  /// Spill budget for the interner arena (packed engine).  Active budgets
  /// make the state store file-backed — "instance too big" becomes
  /// "instance takes longer".
  StorageBudget storage;
  /// Bucket-boundary checkpointing (packed engine); resume produces results
  /// bit-equal to an uninterrupted solve.
  CheckpointOptions checkpoint;
  /// Allocation sentry (DESIGN.md §10, packed engine only): arm an
  /// AllocGuard over every state expansion after the first (the first call
  /// warms the step scratch).  Enforces the §9 claim that the packed
  /// expansion kernel is allocation-free: only the relaxation sink's
  /// declared amortized growth (interner arena/table, distance/bucket
  /// arrays) may allocate; anything inside the kernel throws ModelError.
  bool alloc_guard = false;
};

// Design note: cache-superset dominance pruning (drop a state whose cache
// is a subset of an already-relaxed state at the same positions) was
// prototyped and measured to be vacuous here: under honest transitions the
// fault distance equals the cache fill level until saturation, so two
// states sharing positions either have incomparable caches or equal ones.
// The experiment lives in the git history; the searches stay paper-literal.

struct FtfResult {
  Count min_faults = 0;
  /// One entry per fault of the optimal schedule, in the global order the
  /// simulator charges faults (step by step, core order within a step):
  /// the victim evicted for that fault, or kInvalidPage if none was needed.
  /// Empty unless FtfOptions::build_schedule.
  std::vector<PageId> schedule;
  std::size_t states_expanded = 0;
  std::size_t states_stored = 0;
  /// Storage accounting (packed engine): logical state-arena bytes (the
  /// spillable quantity — states * stride words; what a StorageBudget is
  /// sized against), interner high-water resident bytes (arena segments +
  /// hashes + table), and cumulative bytes written back to the spill file
  /// (0 without a StorageBudget).
  std::size_t arena_bytes = 0;
  std::size_t peak_bytes_in_ram = 0;
  std::size_t bytes_spilled = 0;
  /// Always 0: the packed engine has no parallel expansion.  Kept only
  /// because the perfbench offline workload still reads them.
  std::uint64_t expand_wall_ns = 0;
  std::uint64_t expand_busy_ns = 0;
  /// True when the solve continued from FtfOptions::checkpoint.
  bool resumed = false;
};

/// Minimum total faults to serve the instance (exact).
[[nodiscard]] FtfResult solve_ftf(const OfflineInstance& instance,
                                  const FtfOptions& options = {});

}  // namespace mcp
