#include "offline/ftf_solver.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>

#include "core/error.hpp"
#include "core/sentry.hpp"
#include "offline/packed_space.hpp"
#include "offline/packed_state.hpp"

namespace mcp {

namespace {

[[noreturn]] void throw_state_limit(std::size_t expanded, std::size_t stored) {
  throw ModelError("solve_ftf: state limit exceeded (states_expanded=" +
                   std::to_string(expanded) +
                   ", states_stored=" + std::to_string(stored) + ")");
}

/// Packed-engine variant: the interner knows its memory story, so capacity
/// failures are diagnosable from the message alone.
[[noreturn]] void throw_state_limit(std::size_t expanded,
                                    const StateInterner& interner) {
  std::ostringstream os;
  os << "solve_ftf: state limit exceeded (states_expanded=" << expanded
     << ", states_stored=" << interner.size()
     << ", arena_bytes=" << interner.arena_bytes()
     << ", peak_bytes_in_ram=" << interner.peak_bytes_in_ram()
     << ", table_load_factor=" << std::fixed << std::setprecision(3)
     << interner.load_factor() << ", bytes_spilled=" << interner.bytes_spilled()
     << ")";
  throw ModelError(os.str());
}

// ---------------------------------------------------------------------------
// Reference engine: binary-heap Dijkstra over heap-backed OfflineState nodes
// keyed in an unordered_map.  Retained as the differential-testing oracle for
// the packed engine below.
// ---------------------------------------------------------------------------

struct NodeInfo {
  Count dist = 0;
  // Parent pointer for schedule reconstruction (only when requested).
  const OfflineState* parent = nullptr;
  std::vector<PageId> step_evictions;
};

struct QueueEntry {
  Count dist;
  const OfflineState* state;
  bool operator>(const QueueEntry& other) const { return dist > other.dist; }
};

FtfResult solve_ftf_reference(const OfflineInstance& instance,
                              const FtfOptions& options) {
  const TransitionSystem system(instance, options.victim_rule);

  // Node ownership: the map's keys are the canonical state objects; queue
  // entries and parent pointers reference them (stable across rehashing —
  // unordered_map never moves its nodes).
  std::unordered_map<OfflineState, NodeInfo, OfflineStateHash> nodes;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;

  const OfflineState start = system.initial();
  nodes.emplace(start, NodeInfo{});
  queue.push(QueueEntry{0, &nodes.find(start)->first});

  FtfResult result;
  const OfflineState* goal = nullptr;

  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    const auto it = nodes.find(*top.state);
    MCP_ASSERT(it != nodes.end());
    if (top.dist > it->second.dist) continue;  // stale entry
    if (system.is_terminal(*top.state)) {
      goal = top.state;
      result.min_faults = top.dist;
      break;
    }
    if (options.max_states != 0 && nodes.size() > options.max_states) {
      throw_state_limit(result.states_expanded, nodes.size());
    }
    ++result.states_expanded;

    system.expand(*top.state, [&](StepOutcome&& outcome) {
      const Count dist = top.dist + outcome.fault_count();
      auto [node_it, inserted] = nodes.try_emplace(std::move(outcome.next));
      if (!inserted && node_it->second.dist <= dist) return;
      node_it->second.dist = dist;
      if (options.build_schedule) {
        node_it->second.parent = top.state;
        node_it->second.step_evictions = std::move(outcome.evictions);
      }
      queue.push(QueueEntry{dist, &node_it->first});
    });
  }

  MCP_REQUIRE(goal != nullptr, "solve_ftf: no terminal state reachable");
  result.states_stored = nodes.size();

  if (options.build_schedule) {
    // Walk parents back to the start, collecting per-step eviction lists;
    // flatten in forward order.  Entries are per *fault*; steps without
    // faults contributed empty lists.
    std::vector<const std::vector<PageId>*> steps;
    for (const OfflineState* cur = goal; cur != nullptr;) {
      const NodeInfo& info = nodes.find(*cur)->second;
      if (info.parent == nullptr) break;
      steps.push_back(&info.step_evictions);
      cur = info.parent;
    }
    std::reverse(steps.begin(), steps.end());
    for (const auto* step : steps) {
      result.schedule.insert(result.schedule.end(), step->begin(), step->end());
    }
    MCP_ASSERT(result.schedule.size() == result.min_faults);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Packed engine: Dial's algorithm (bucket queue) over interned packed ids.
// One timestep costs 0..p faults, so distances are dense small integers and
// buckets replace the binary heap: O(1) push, monotone non-decreasing pops.
// All per-node metadata is flat vectors indexed by interned id.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kUnreached = 0xFFFFFFFFu;

/// Fingerprint binding a checkpoint to (instance, trajectory-affecting
/// options).  Storage budget and sentry knobs are deliberately excluded:
/// they do not change any solve result.
std::uint64_t ftf_fingerprint(const OfflineInstance& instance,
                              const FtfOptions& options) {
  std::uint64_t h = checkpoint::fingerprint(instance);
  h = checkpoint::fold(h, static_cast<std::uint64_t>(options.victim_rule));
  h = checkpoint::fold(h, options.build_schedule ? 1 : 0);
  h = checkpoint::fold(h, options.max_states);
  return checkpoint::fold(h, checkpoint::kKindFtf);
}

// Checkpoint section tags (FTF).
constexpr std::uint32_t kSecScalars = 1;
constexpr std::uint32_t kSecArena = 2;
constexpr std::uint32_t kSecHashes = 3;
constexpr std::uint32_t kSecDist = 4;
constexpr std::uint32_t kSecBuckets = 5;
constexpr std::uint32_t kSecParent = 6;
constexpr std::uint32_t kSecEvictOff = 7;
constexpr std::uint32_t kSecEvictLen = 8;
constexpr std::uint32_t kSecEvictPool = 9;

FtfResult solve_ftf_packed(const OfflineInstance& instance,
                           const FtfOptions& options) {
  const PackedTransitionSystem system(instance, options.victim_rule);
  const std::size_t stride = system.state_words();
  const bool schedule = options.build_schedule;

  StateInterner interner(stride, options.storage);
  interner.reserve(
      options.expected_states != 0 ? options.expected_states : 4096);
  PackedTransitionSystem::StepScratch scratch;

  std::vector<std::uint32_t> dist;      // id -> best known distance
  std::vector<std::uint32_t> parent;    // id -> predecessor id (schedule mode)
  std::vector<std::uint32_t> evict_off; // id -> offset into evict_pool
  std::vector<std::uint16_t> evict_len; // id -> eviction count of best step
  std::vector<PageId> evict_pool;       // append-only flat eviction storage
  std::vector<std::vector<std::uint32_t>> buckets;

  FtfResult result;
  std::uint32_t goal = StateInterner::kNoState;
  std::uint32_t start_bucket = 0;
  const std::uint64_t fp = ftf_fingerprint(instance, options);

  if (options.checkpoint.resume) {
    // Rebuild every structure from the snapshot.  Re-interning the blocks in
    // id order reproduces the ids exactly; the hash table's internal layout
    // after the rebuild is irrelevant to any observable result.
    const checkpoint::Reader reader(options.checkpoint.path,
                                    checkpoint::kKindFtf, fp);
    const std::vector<std::uint64_t>& scalars = reader.section(kSecScalars);
    if (scalars.size() != 3)
      throw InputError("checkpoint '" + options.checkpoint.path +
                       "': malformed scalar section");
    start_bucket = static_cast<std::uint32_t>(scalars[0]);
    result.states_expanded = static_cast<std::size_t>(scalars[1]);
    const std::size_t count = static_cast<std::size_t>(scalars[2]);
    const std::vector<std::uint64_t>& arena = reader.section(kSecArena);
    const std::vector<std::uint64_t>& hashes = reader.section(kSecHashes);
    if (arena.size() != count * stride || hashes.size() != count)
      throw InputError("checkpoint '" + options.checkpoint.path +
                       "': arena sections disagree with the state count");
    interner.reserve(count);
    for (std::size_t id = 0; id < count; ++id) {
      const auto [nid, inserted] =
          interner.intern_hashed(arena.data() + id * stride, hashes[id]);
      if (!inserted || nid != id)
        throw InputError("checkpoint '" + options.checkpoint.path +
                         "': duplicate state in arena section");
    }
    reader.section_u32(kSecDist, dist);
    if (dist.size() != count)
      throw InputError("checkpoint '" + options.checkpoint.path +
                       "': distance array disagrees with the state count");
    std::vector<std::uint32_t> flat;
    reader.section_u32(kSecBuckets, flat);
    std::size_t pos = 0;
    const auto next_flat = [&]() -> std::uint32_t {
      if (pos >= flat.size())
        throw InputError("checkpoint '" + options.checkpoint.path +
                         "': truncated bucket section");
      return flat[pos++];
    };
    const std::uint32_t num_buckets = next_flat();
    buckets.resize(num_buckets);
    for (std::uint32_t b = 0; b < num_buckets; ++b) {
      const std::uint32_t len = next_flat();
      buckets[b].reserve(len);
      for (std::uint32_t i = 0; i < len; ++i) {
        const std::uint32_t id = next_flat();
        if (id >= count)
          throw InputError("checkpoint '" + options.checkpoint.path +
                           "': bucket entry out of range");
        buckets[b].push_back(id);
      }
    }
    if (schedule) {
      reader.section_u32(kSecParent, parent);
      reader.section_u32(kSecEvictOff, evict_off);
      std::vector<std::uint32_t> wide_len;
      reader.section_u32(kSecEvictLen, wide_len);
      reader.section_u32(kSecEvictPool, evict_pool);
      if (parent.size() != count || evict_off.size() != count ||
          wide_len.size() != count)
        throw InputError("checkpoint '" + options.checkpoint.path +
                         "': schedule sections disagree with the state count");
      evict_len.resize(count);
      for (std::size_t id = 0; id < count; ++id)
        evict_len[id] = static_cast<std::uint16_t>(wide_len[id]);
    }
    result.resumed = true;
  } else {
    std::vector<std::uint64_t> start(stride);
    system.initial(start.data());
    interner.intern(start.data());
    dist.push_back(0);
    if (schedule) {
      parent.push_back(StateInterner::kNoState);
      evict_off.push_back(0);
      evict_len.push_back(0);
    }
    buckets.emplace_back();
    buckets[0].push_back(0);
  }

  // Entries still queued.  Checkpoints are cut at bucket boundaries, with
  // every settled bucket already cleared, so the sum over the live buckets
  // is exact on both fresh and resumed solves.
  std::size_t pending = 0;
  for (const std::vector<std::uint32_t>& bucket : buckets)
    pending += bucket.size();

  std::uint32_t checkpoints_written = 0;

  for (std::uint32_t d = start_bucket;
       pending > 0 && goal == StateInterner::kNoState; ++d) {
    MCP_ASSERT(d < buckets.size());
    // Zero-fault self-distance steps append to buckets[d] mid-iteration:
    // index, don't iterate.
    for (std::size_t i = 0; i < buckets[d].size(); ++i) {
      const std::uint32_t id = buckets[d][i];
      --pending;
      if (dist[id] != d) continue;  // stale entry
      if (system.is_terminal(interner.state(id))) {
        goal = id;
        result.min_faults = d;
        break;
      }
      if (options.max_states != 0 && interner.size() > options.max_states) {
        throw_state_limit(result.states_expanded, interner);
      }
      ++result.states_expanded;

      // Allocation sentry (FtfOptions::alloc_guard): every expansion after
      // the first (which warms the step scratch) runs guarded — only the
      // relaxation sink below, a declared amortized growth point, may
      // allocate; an allocation inside the expansion kernel itself throws.
      std::optional<AllocGuard> expand_guard;
      if (options.alloc_guard && result.states_expanded > 1) {
        expand_guard.emplace("ftf expansion kernel");
      }

      system.expand(interner.state(id), scratch,
                    [&](const PackedOutcome& outcome) {
        // Declared growth: the relaxation sink's flat arrays (interner
        // arena/table via intern(), distance/parent/eviction arrays,
        // bucket queue) all grow amortized as new states are discovered.
        AllocAllow allow;
        const std::uint32_t nd =
            d + static_cast<std::uint32_t>(outcome.fault_count());
        const auto [nid, inserted] = interner.intern(outcome.next);
        if (inserted) {
          dist.push_back(kUnreached);
          if (schedule) {
            parent.push_back(StateInterner::kNoState);
            evict_off.push_back(0);
            evict_len.push_back(0);
          }
        }
        if (dist[nid] <= nd) return;
        dist[nid] = nd;
        if (schedule) {
          parent[nid] = id;
          evict_off[nid] = static_cast<std::uint32_t>(evict_pool.size());
          evict_len[nid] = static_cast<std::uint16_t>(outcome.evictions.size());
          evict_pool.insert(evict_pool.end(), outcome.evictions.begin(),
                            outcome.evictions.end());
        }
        if (nd >= buckets.size()) buckets.resize(nd + 1);
        buckets[nd].push_back(nid);
        ++pending;
      });
    }

    // Bucket d is settled: no relaxation can ever target it again (nd >= d),
    // so its queue storage is dead — free it now, keeping the live-bucket
    // suffix as the only queue memory (the Dial queue's settled prefix is
    // the first thing to go under memory pressure).
    std::vector<std::uint32_t>().swap(buckets[d]);

    if (goal == StateInterner::kNoState && pending > 0 &&
        options.checkpoint.enabled() &&
        (d + 1) % std::max<std::uint32_t>(options.checkpoint.every, 1) == 0) {
      checkpoint::Writer writer(checkpoint::kKindFtf, fp);
      const std::size_t count = interner.size();
      const std::vector<std::uint64_t> scalars = {
          d + 1, result.states_expanded, count};
      writer.section(kSecScalars, scalars);
      std::vector<std::uint64_t> arena;
      arena.reserve(count * stride);
      std::vector<std::uint64_t> hashes;
      hashes.reserve(count);
      for (std::uint32_t id = 0; id < count; ++id) {
        const std::uint64_t* words = interner.state(id);
        arena.insert(arena.end(), words, words + stride);
        hashes.push_back(interner.stored_hash(id));
      }
      writer.section(kSecArena, arena);
      writer.section(kSecHashes, hashes);
      writer.section(kSecDist, checkpoint::pack_u32(dist));
      std::vector<std::uint32_t> flat;
      flat.push_back(static_cast<std::uint32_t>(buckets.size()));
      for (const std::vector<std::uint32_t>& bucket : buckets) {
        flat.push_back(static_cast<std::uint32_t>(bucket.size()));
        flat.insert(flat.end(), bucket.begin(), bucket.end());
      }
      writer.section(kSecBuckets, checkpoint::pack_u32(flat));
      if (schedule) {
        writer.section(kSecParent, checkpoint::pack_u32(parent));
        writer.section(kSecEvictOff, checkpoint::pack_u32(evict_off));
        std::vector<std::uint32_t> wide_len(evict_len.begin(),
                                            evict_len.end());
        writer.section(kSecEvictLen, checkpoint::pack_u32(wide_len));
        writer.section(kSecEvictPool, checkpoint::pack_u32(evict_pool));
      }
      writer.write(options.checkpoint.path);
      ++checkpoints_written;
      if (options.checkpoint.halt_after_checkpoints != 0 &&
          checkpoints_written >= options.checkpoint.halt_after_checkpoints) {
        throw SolveInterrupted(
            "solve_ftf: halted by test hook after " +
            std::to_string(checkpoints_written) + " checkpoints");
      }
    }
  }

  MCP_REQUIRE(goal != StateInterner::kNoState,
              "solve_ftf: no terminal state reachable");
  result.states_stored = interner.size();
  result.arena_bytes = interner.arena_bytes();
  result.peak_bytes_in_ram = interner.peak_bytes_in_ram();
  result.bytes_spilled = interner.bytes_spilled();
  // Checked builds: the interner is structurally sound after the search.
  MCP_CHECKED_ONLY(interner.validate());

  if (schedule) {
    // Walk parent ids back to the start; flatten per-step eviction spans in
    // forward order.
    std::vector<std::uint32_t> chain;
    for (std::uint32_t cur = goal; parent[cur] != StateInterner::kNoState;
         cur = parent[cur]) {
      chain.push_back(cur);
    }
    std::reverse(chain.begin(), chain.end());
    for (std::uint32_t cur : chain) {
      const PageId* first = evict_pool.data() + evict_off[cur];
      result.schedule.insert(result.schedule.end(), first,
                             first + evict_len[cur]);
    }
    MCP_ASSERT(result.schedule.size() == result.min_faults);
  }
  return result;
}

}  // namespace

FtfResult solve_ftf(const OfflineInstance& instance, const FtfOptions& options) {
  if (options.engine == OfflineEngine::kPacked &&
      PackedTransitionSystem::supports(instance)) {
    return solve_ftf_packed(instance, options);
  }
  return solve_ftf_reference(instance, options);
}

}  // namespace mcp
