// Checkpoint/resume for the packed offline solvers.
//
// Both packed searches advance through well-defined serial boundaries — the
// FTF Dial queue settles one fault-distance bucket at a time, the PIF DP one
// timestep layer at a time — and the solver state at such a boundary is a
// pure function of (instance, options, boundary index).  A checkpoint is
// therefore a full snapshot at a boundary: the interner contents, the per-id
// search arrays, and the live frontier.
// Resuming replays nothing; it rebuilds the structures and continues from
// the next boundary, producing results bit-equal to an uninterrupted solve.
//
// File format (everything `uint64_t` words, little-endian on disk as
// written by the host):
//
//   [0] magic   [1] version<<32 | kind   [2] fingerprint
//   then sections: { tag, word_count, words... } repeated
//   [last] checksum — mix64 fold of every preceding word
//
// The fingerprint folds the instance and the trajectory-affecting options
// (victim rule, schedule building, state limits); resuming against a
// different instance or incompatible options fails with InputError, as do
// truncated, corrupted, or wrong-kind files.  Writes are atomic
// (`path.tmp` + rename), so a solve killed mid-checkpoint leaves the
// previous checkpoint intact — the invariant a SIGKILL'd solve relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "offline/instance.hpp"

namespace mcp {

/// Thrown by the `halt_after_checkpoints` test hook once the requested
/// number of checkpoints has been written — a deterministic stand-in for
/// SIGKILL that lets in-process tests exercise every resume boundary.
class SolveInterrupted : public std::runtime_error {
 public:
  explicit SolveInterrupted(const std::string& what)
      : std::runtime_error(what) {}
};

/// Checkpointing knobs shared by FtfOptions/PifOptions.
struct CheckpointOptions {
  /// Checkpoint file; "" disables checkpointing entirely.
  std::string path;
  /// Snapshot every N settled boundaries (buckets for FTF, layers for PIF).
  std::uint32_t every = 1;
  /// Load `path` at solve start and continue from its boundary.
  bool resume = false;
  /// Test hook: throw SolveInterrupted after writing this many checkpoints
  /// (0 = never) — the in-process equivalent of killing the solve.
  std::uint32_t halt_after_checkpoints = 0;

  [[nodiscard]] bool enabled() const noexcept { return !path.empty(); }
};

namespace checkpoint {

constexpr std::uint32_t kKindFtf = 1;
constexpr std::uint32_t kKindPif = 2;

/// One mix64 step of the fingerprint/checksum chain.
[[nodiscard]] std::uint64_t fold(std::uint64_t h, std::uint64_t word) noexcept;

/// Fingerprint of the shared instance data (requests, K, tau).  Solvers
/// fold their trajectory-affecting options on top.
[[nodiscard]] std::uint64_t fingerprint(const OfflineInstance& instance);
/// Instance fingerprint plus deadline and per-core bounds.
[[nodiscard]] std::uint64_t fingerprint(const PifInstance& instance);

/// Packs a `uint32_t` array into words: word 0 = element count, then two
/// elements per word.  The inverse of unpack_u32.
[[nodiscard]] std::vector<std::uint64_t> pack_u32(const std::uint32_t* data,
                                                  std::size_t count);
[[nodiscard]] std::vector<std::uint64_t> pack_u32(
    const std::vector<std::uint32_t>& values);
void unpack_u32(const std::vector<std::uint64_t>& words,
                std::vector<std::uint32_t>& out);

/// Accumulates sections and writes them atomically.  One-shot: build,
/// write(), discard.
class Writer {
 public:
  Writer(std::uint32_t kind, std::uint64_t fingerprint);

  /// Appends section `tag` (tags must be unique per file; enforced by the
  /// reader).  `count` may be zero.
  void section(std::uint32_t tag, const std::uint64_t* words,
               std::size_t count);
  void section(std::uint32_t tag, const std::vector<std::uint64_t>& words) {
    section(tag, words.data(), words.size());
  }

  /// Seals the checksum and writes `path` atomically via `path.tmp` +
  /// fsync + rename.  Throws InputError on I/O failure.
  void write(const std::string& path) const;

 private:
  std::vector<std::uint64_t> words_;
};

/// Loads and validates a checkpoint file.  The constructor throws
/// InputError — never UB — on a missing/truncated/corrupted file, a magic,
/// version, or kind mismatch, or a fingerprint that does not match the
/// (instance, options) being resumed.
class Reader {
 public:
  Reader(const std::string& path, std::uint32_t kind,
         std::uint64_t fingerprint);

  [[nodiscard]] bool has(std::uint32_t tag) const noexcept;
  /// The words of section `tag`; InputError if absent.
  [[nodiscard]] const std::vector<std::uint64_t>& section(
      std::uint32_t tag) const;
  /// section() + unpack_u32.
  void section_u32(std::uint32_t tag, std::vector<std::uint32_t>& out) const;

 private:
  std::string path_;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> sections_;
};

}  // namespace checkpoint

}  // namespace mcp
