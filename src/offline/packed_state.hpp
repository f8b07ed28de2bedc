// Interned packed states for the offline search engine.
//
// The offline searches (ftf_solver, pif_solver) explore state spaces whose
// nodes were heap-heavy `OfflineState` objects — three vectors per node,
// hashed field by field, owned by `unordered_map` nodes.  The packed engine
// instead encodes a state as a fixed-width block of `uint64_t` words (cache
// bitset + one `uint32_t` per core, see packed_space.hpp for the layout) and
// interns every block in a StateInterner: an arena of contiguous blocks
// addressed by dense `uint32_t` ids, deduplicated through an open-addressing
// hash table.  Search structures (distances, parents, bucket queues, layer
// fronts) become flat arrays indexed by id instead of pointer-chasing maps.
//
// The arena is a `SpillArena` (spill_arena.hpp): segmented, so block
// pointers are stable across interns, and — given a `StorageBudget` —
// file-backed, so the state store can exceed RAM (cold segments written
// back and reloaded on demand).  The hash table and per-id hashes always
// stay in RAM; only the state words spill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/sentry.hpp"
#include "offline/spill_arena.hpp"

namespace mcp {

namespace detail {

/// splitmix64 finalizer — cheap, well-mixed, stable across platforms.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

struct InternerTestAccess;  // corruption-injection backdoor (tests only)

/// Arena-backed deduplicating store of fixed-stride `uint64_t` blocks.
///
/// Ids are dense (0, 1, 2, ... in first-interned order), so per-state search
/// metadata lives in plain vectors indexed by id.  Pointers returned by
/// state() are stable across intern() calls (segmented arena) — but under a
/// StorageBudget a later state()/intern() may evict the segment, so spilling
/// callers still copy words out before touching other blocks.
class StateInterner {
 public:
  static constexpr std::uint32_t kNoState = 0xFFFFFFFFu;

  /// `stride`: words per state (PackedTransitionSystem::state_words()).
  /// An active `budget` makes the arena file-backed (see SpillArena).
  explicit StateInterner(std::size_t stride, StorageBudget budget = {});

  /// Hash of a `stride`-word block — the function intern() uses.
  [[nodiscard]] static std::uint64_t hash_words(const std::uint64_t* words,
                                                std::size_t stride) noexcept {
    std::uint64_t h = 0x12345678abcdef01ULL;
    for (std::size_t w = 0; w < stride; ++w) h = detail::mix64(h ^ words[w]);
    return h;
  }

  /// Interns the `stride()`-word block at `words`; returns (id, inserted).
  /// Header-inline: this is the innermost call of both offline solvers (once
  /// per emitted outcome), and inlining it into the emission lambdas is worth
  /// several percent of total solve time.
  std::pair<std::uint32_t, bool> intern(const std::uint64_t* words) {
    return intern_hashed(words, hash_words(words, stride_));
  }

  /// intern() with a caller-supplied hash_words() result — checkpoint
  /// resume re-interns each block with its stored hash.
  std::pair<std::uint32_t, bool> intern_hashed(const std::uint64_t* words,
                                               std::uint64_t hash) {
    // Resize before probing so the insert below always finds a free slot.
    if (static_cast<std::size_t>(count_) * 10 >= table_.size() * 7) {
      grow_table();
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(hash) & mask;
    while (table_[slot] != kNoState) {
      if (hashes_[table_[slot]] == hash && block_equal(table_[slot], words)) {
        return {table_[slot], false};
      }
      slot = (slot + 1) & mask;
    }
    return insert_new(words, hash, slot);
  }

  /// The interned block of `id` — stable across interns; under a budget,
  /// valid until the next state()/intern() touches a different segment.
  [[nodiscard]] const std::uint64_t* state(std::uint32_t id) const noexcept {
    return arena_.block(id);
  }

  /// The stored hash_words() value of `id` (checkpoint serialization).
  [[nodiscard]] std::uint64_t stored_hash(std::uint32_t id) const noexcept {
    return hashes_[id];
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

  /// Pre-sizes arena and table for `states` states (optional).  Wired from
  /// FtfOptions/PifOptions::expected_states: eliminates the early
  /// table-doubling churn in guarded hot loops.
  void reserve(std::size_t states);

  // -- capacity accounting (max_states diagnostics, BENCH_OFFLINE series) --

  /// Logical state bytes (count * stride * 8), spilled or not.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return static_cast<std::size_t>(count_) * stride_ * sizeof(std::uint64_t);
  }
  /// Resident bytes: arena segments in RAM plus hashes plus table.
  [[nodiscard]] std::size_t bytes_in_ram() const noexcept {
    return arena_.bytes_in_ram() + hashes_.capacity() * sizeof(std::uint64_t) +
           table_.capacity() * sizeof(std::uint32_t);
  }
  /// High-water mark of the arena's resident bytes plus side arrays.
  [[nodiscard]] std::size_t peak_bytes_in_ram() const noexcept {
    return arena_.peak_bytes_in_ram() +
           hashes_.capacity() * sizeof(std::uint64_t) +
           table_.capacity() * sizeof(std::uint32_t);
  }
  /// Cumulative bytes the arena wrote back to its spill file.
  [[nodiscard]] std::size_t bytes_spilled() const noexcept {
    return arena_.bytes_spilled();
  }
  [[nodiscard]] bool spilling() const noexcept { return arena_.spilling(); }
  /// Open-addressing load factor (count / table slots).
  [[nodiscard]] double load_factor() const noexcept {
    return static_cast<double>(count_) / static_cast<double>(table_.size());
  }

  /// Deep structural invariant check (the checked-build validator, DESIGN.md
  /// §10): live-id density (arena/hash-array sizes match count), stored-hash
  /// consistency (every per-id hash re-derives from its block), table
  /// integrity (every live id claims exactly one slot), no duplicate packed
  /// states (every id's probe chain finds the id itself first), and the
  /// arena's own segment/header validation.  Throws ModelError naming the
  /// violated invariant.  O(states · stride); invoked at solver boundaries
  /// under MCP_CHECKED and callable directly from tests in any build.
  void validate() const;

 private:
  friend struct InternerTestAccess;  ///< corruption injection (test_sentry)
  [[nodiscard]] std::uint64_t hash_block(
      const std::uint64_t* words) const noexcept {
    return hash_words(words, stride_);
  }
  [[nodiscard]] bool block_equal(std::uint32_t id,
                                 const std::uint64_t* words) const noexcept {
    return std::memcmp(state(id), words, stride_ * sizeof(std::uint64_t)) == 0;
  }
  /// Cold path of intern(): append to the arena and claim `slot`.
  std::pair<std::uint32_t, bool> insert_new(const std::uint64_t* words,
                                            std::uint64_t hash,
                                            std::size_t slot);
  void rehash(std::size_t target);
  void grow_table();

  std::size_t stride_;
  SpillArena arena_;                   ///< count_ blocks of stride_ words
  std::vector<std::uint64_t> hashes_;  ///< per-id hash (cheap table growth)
  std::vector<std::uint32_t> table_;   ///< open addressing; power-of-two size
  std::uint32_t count_ = 0;
};

}  // namespace mcp
