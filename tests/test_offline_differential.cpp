// Differential tests pinning the packed offline engines (packed_space.hpp,
// OfflineEngine::kPacked) to the retained reference implementations: both
// solvers run on a seeded grid over p x K x tau x victim rule, and every
// observable the two engines share must agree.  Schedules themselves may
// differ (the bucket queue and the binary heap break ties differently), so
// schedule agreement is checked semantically — replay through the simulator
// must charge exactly min_faults either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/packed_space.hpp"
#include "offline/packed_state.hpp"
#include "offline/pif_solver.hpp"
#include "offline/replay.hpp"
#include "offline/state_space.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;

OfflineInstance make_instance(RequestSet rs, std::size_t k, Time tau) {
  OfflineInstance inst;
  inst.requests = std::move(rs);
  inst.cache_size = k;
  inst.tau = tau;
  return inst;
}

constexpr std::size_t kCores[] = {1, 2, 3};
constexpr std::size_t kCacheSizes[] = {2, 3, 4, 5};
constexpr Time kTaus[] = {1, 2, 5};
constexpr VictimRule kRules[] = {VictimRule::kAllPages,
                                 VictimRule::kFitfPerSequence};

// ---------------------------------------------------------------------------
// Building blocks: interner, pack/unpack, expansion.
// ---------------------------------------------------------------------------

TEST(StateInterner, DedupesAndRoundTrips) {
  StateInterner interner(3);
  const std::uint64_t a[3] = {1, 2, 3};
  const std::uint64_t b[3] = {1, 2, 4};

  const auto [ida, fresh_a] = interner.intern(a);
  EXPECT_TRUE(fresh_a);
  const auto [idb, fresh_b] = interner.intern(b);
  EXPECT_TRUE(fresh_b);
  EXPECT_NE(ida, idb);

  const auto [ida2, fresh_a2] = interner.intern(a);
  EXPECT_FALSE(fresh_a2);
  EXPECT_EQ(ida, ida2);
  EXPECT_EQ(interner.size(), 2u);

  EXPECT_TRUE(std::equal(a, a + 3, interner.state(ida)));
  EXPECT_TRUE(std::equal(b, b + 3, interner.state(idb)));
}

TEST(StateInterner, SurvivesTableGrowth) {
  StateInterner interner(1);
  std::vector<std::uint32_t> ids;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    ids.push_back(interner.intern(&v).first);
  }
  EXPECT_EQ(interner.size(), 1000u);
  for (std::uint64_t v = 0; v < 1000; ++v) {
    EXPECT_EQ(interner.intern(&v).first, ids[v]) << "v=" << v;
    EXPECT_EQ(*interner.state(ids[v]), v) << "v=" << v;
  }
}

TEST(PackedTransitionSystem, PackUnpackRoundTripsReachableStates) {
  Rng rng(777);
  const RequestSet rs = random_disjoint_workload(rng, 3, 3, 6);
  const OfflineInstance inst = make_instance(rs, 3, 2);
  const TransitionSystem ref(inst, VictimRule::kAllPages);
  const PackedTransitionSystem packed(inst, VictimRule::kAllPages);

  std::vector<std::uint64_t> words(packed.state_words());
  // Walk a few expansion levels, round-tripping every state encountered.
  std::vector<OfflineState> frontier = {ref.initial()};
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<OfflineState> next;
    for (const OfflineState& state : frontier) {
      packed.pack(state, words.data());
      EXPECT_EQ(packed.unpack(words.data()), state);
      EXPECT_EQ(ref.is_terminal(state), packed.is_terminal(words.data()));
      ref.expand(state, [&next](StepOutcome&& outcome) {
        next.push_back(std::move(outcome.next));
      });
    }
    frontier = std::move(next);
  }
}

TEST(PackedTransitionSystem, ExpansionMatchesReferenceBranchForBranch) {
  Rng rng(4242);
  for (VictimRule rule : kRules) {
    for (int trial = 0; trial < 6; ++trial) {
      const RequestSet rs = random_disjoint_workload(rng, 2, 3, 5);
      const OfflineInstance inst = make_instance(rs, 2 + rng.below(2), 1);
      const TransitionSystem ref(inst, rule);
      const PackedTransitionSystem packed(inst, rule);
      PackedTransitionSystem::StepScratch scratch;
      std::vector<std::uint64_t> words(packed.state_words());

      std::vector<OfflineState> frontier = {ref.initial()};
      for (int depth = 0; depth < 4 && !frontier.empty(); ++depth) {
        std::vector<OfflineState> next;
        for (const OfflineState& state : frontier) {
          if (ref.is_terminal(state)) continue;
          std::vector<StepOutcome> ref_out;
          ref.expand(state, [&ref_out](StepOutcome&& outcome) {
            ref_out.push_back(std::move(outcome));
          });

          packed.pack(state, words.data());
          std::size_t i = 0;
          packed.expand(words.data(), scratch,
                        [&](const PackedOutcome& outcome) {
            ASSERT_LT(i, ref_out.size());
            // Same emission order: cores in logical order, victims in
            // ascending page order.
            EXPECT_EQ(packed.unpack(outcome.next), ref_out[i].next);
            EXPECT_EQ(outcome.faulted_cores, ref_out[i].faulted_cores);
            EXPECT_TRUE(std::equal(outcome.evictions.begin(),
                                   outcome.evictions.end(),
                                   ref_out[i].evictions.begin(),
                                   ref_out[i].evictions.end()));
            ++i;
          });
          EXPECT_EQ(i, ref_out.size());
          for (StepOutcome& outcome : ref_out) {
            next.push_back(std::move(outcome.next));
          }
        }
        frontier = std::move(next);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Solver grids: packed vs reference on seeded instances.
// ---------------------------------------------------------------------------

TEST(OfflineDifferential, FtfGridAgreesAcrossEngines) {
  Rng rng(20260807);
  for (std::size_t p : kCores) {
    for (std::size_t k : kCacheSizes) {
      for (Time tau : kTaus) {
        for (VictimRule rule : kRules) {
          const RequestSet rs = random_disjoint_workload(rng, p, 3, 6);
          const OfflineInstance inst = make_instance(rs, k, tau);
          ASSERT_TRUE(PackedTransitionSystem::supports(inst));

          FtfOptions packed_opts;
          packed_opts.victim_rule = rule;
          packed_opts.build_schedule = true;
          FtfOptions ref_opts = packed_opts;
          ref_opts.engine = OfflineEngine::kReference;

          if (k < p) {
            // With fewer cells than cores every first-step branch dies (all
            // cells are locked by in-flight fetches when the last core
            // faults): no terminal is reachable.  Both engines must agree on
            // that verdict too.
            EXPECT_THROW((void)solve_ftf(inst, packed_opts), ModelError);
            EXPECT_THROW((void)solve_ftf(inst, ref_opts), ModelError);
            continue;
          }

          const FtfResult packed = solve_ftf(inst, packed_opts);
          const FtfResult ref = solve_ftf(inst, ref_opts);
          const auto label = [&] {
            return ::testing::Message()
                   << "p=" << p << " k=" << k << " tau=" << tau
                   << " rule=" << (rule == VictimRule::kAllPages ? "all" : "fitf");
          };
          EXPECT_EQ(packed.min_faults, ref.min_faults) << label();
          // Schedules may differ (tie-breaking), but both must replay to the
          // optimum.
          EXPECT_EQ(replay_schedule(inst, packed.schedule).total_faults(),
                    packed.min_faults)
              << label();
          EXPECT_EQ(replay_schedule(inst, ref.schedule).total_faults(),
                    ref.min_faults)
              << label();
        }
      }
    }
  }
}

TEST(OfflineDifferential, PifGridAgreesAcrossEngines) {
  Rng rng(1337);
  int feasible_seen = 0;
  int infeasible_seen = 0;
  for (std::size_t p : kCores) {
    for (std::size_t k : kCacheSizes) {
      for (Time tau : kTaus) {
        for (VictimRule rule : kRules) {
          const RequestSet rs = random_disjoint_workload(rng, p, 3, 6);
          PifInstance inst;
          inst.base = make_instance(rs, k, tau);
          inst.deadline = 4 + rng.below(12);
          for (std::size_t j = 0; j < p; ++j) {
            inst.bounds.push_back(rng.below(5));
          }
          ASSERT_TRUE(PackedTransitionSystem::supports(inst.base));

          PifOptions packed_opts;
          packed_opts.victim_rule = rule;
          packed_opts.build_schedule = true;
          PifOptions ref_opts = packed_opts;
          ref_opts.engine = OfflineEngine::kReference;

          const PifResult packed = solve_pif(inst, packed_opts);
          const PifResult ref = solve_pif(inst, ref_opts);
          const auto label = [&] {
            return ::testing::Message()
                   << "p=" << p << " k=" << k << " tau=" << tau
                   << " rule=" << (rule == VictimRule::kAllPages ? "all" : "fitf")
                   << " deadline=" << inst.deadline;
          };
          EXPECT_EQ(packed.feasible, ref.feasible) << label();
          EXPECT_EQ(packed.decided_at, ref.decided_at) << label();
          // Pareto fronts are sets of minimal vectors — identical between
          // engines regardless of insertion order — so widths match too.
          EXPECT_EQ(packed.peak_layer_width, ref.peak_layer_width) << label();
          EXPECT_EQ(packed.states_expanded, ref.states_expanded) << label();
          if (packed.feasible) {
            ++feasible_seen;
            EXPECT_TRUE(verify_pif_witness(inst, packed.schedule)) << label();
            EXPECT_TRUE(verify_pif_witness(inst, ref.schedule)) << label();
          } else {
            ++infeasible_seen;
          }
        }
      }
    }
  }
  // The grid must exercise both verdicts or it proves too little.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
}

TEST(OfflineDifferential, FtfStateLimitAbortsAtExactCounters) {
  // The max_states abort fires before the first expansion that finds the
  // interner past the limit, so its counters are a pure function of the
  // instance: a repeat solve reports the same ones, the stored count is
  // just past the limit, and the expanded count stops short of a full solve.
  Rng rng(8181);
  const RequestSet rs = random_disjoint_workload(rng, 2, 3, 8);
  const OfflineInstance inst = make_instance(rs, 3, 2);
  const FtfResult full = solve_ftf(inst);
  FtfOptions opts;
  opts.max_states = 40;
  ASSERT_GT(full.states_stored, opts.max_states);

  const auto abort_counters = [&]() -> std::string {
    try {
      (void)solve_ftf(inst, opts);
    } catch (const ModelError& e) {
      const std::string what = e.what();
      // Counters come before the memory-story fields.
      return what.substr(0, what.find(", arena_bytes="));
    }
    ADD_FAILURE() << "expected ModelError";
    return {};
  };
  const std::string head = abort_counters();
  EXPECT_EQ(abort_counters(), head);

  const auto counter = [&head](const std::string& key) -> std::size_t {
    const std::size_t at = head.find(key + "=");
    if (at == std::string::npos) {
      ADD_FAILURE() << "missing " << key << " in: " << head;
      return 0;
    }
    return std::stoul(head.substr(at + key.size() + 1));
  };
  const std::size_t expanded = counter("states_expanded");
  const std::size_t stored = counter("states_stored");
  EXPECT_GT(stored, opts.max_states) << head;
  EXPECT_LE(stored, full.states_stored) << head;
  EXPECT_GT(expanded, 0u) << head;
  EXPECT_LT(expanded, full.states_expanded) << head;
}

TEST(OfflineDifferential, FtfStateLimitReportsCounters) {
  Rng rng(5150);
  const RequestSet rs = random_disjoint_workload(rng, 2, 3, 8);
  const OfflineInstance inst = make_instance(rs, 2, 2);
  for (OfflineEngine engine : {OfflineEngine::kPacked, OfflineEngine::kReference}) {
    FtfOptions opts;
    opts.engine = engine;
    opts.max_states = 5;
    try {
      (void)solve_ftf(inst, opts);
      FAIL() << "expected ModelError";
    } catch (const ModelError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("states_expanded="), std::string::npos) << what;
      EXPECT_NE(what.find("states_stored="), std::string::npos) << what;
      if (engine == OfflineEngine::kPacked) {
        // The packed engine knows its memory story: the abort message alone
        // must be enough to size the retry (budget, reserve hint, or limit).
        EXPECT_NE(what.find("arena_bytes="), std::string::npos) << what;
        EXPECT_NE(what.find("peak_bytes_in_ram="), std::string::npos) << what;
        EXPECT_NE(what.find("table_load_factor="), std::string::npos) << what;
        EXPECT_NE(what.find("bytes_spilled="), std::string::npos) << what;
      }
    }
  }
}

TEST(OfflineDifferential, UnsupportedInstanceFallsBackToReference) {
  // 140 distinct pages blow the 128-page packed universe; the packed engine
  // must silently fall back rather than fail.
  RequestSequence seq;
  for (PageId page = 0; page < 140; ++page) seq.push_back(page);
  RequestSet rs;
  rs.add_sequence(std::move(seq));
  const OfflineInstance inst = make_instance(std::move(rs), 2, 1);
  ASSERT_FALSE(PackedTransitionSystem::supports(inst));
  const FtfResult result = solve_ftf(inst);  // default engine = kPacked
  EXPECT_EQ(result.min_faults, 140u);        // cold faults only
}

}  // namespace
}  // namespace mcp
