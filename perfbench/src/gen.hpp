// The benchmark's seeded input generator.  It deliberately does not use
// src/workload (nor the library's RNG), so a change to the code under test
// cannot change what the benchmark feeds it: the same seed gives the same
// traces on every commit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/request.hpp"

namespace perfbench::gen {

/// SplitMix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform in [0, 1).
  double unit() noexcept;
  /// An independent stream keyed by `salt`.
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept;

 private:
  std::uint64_t state_;
};

enum class Pattern {
  kLoop,        ///< cyclic scan over a permutation of the pages
  kWorkingSet,  ///< uniform within a window that jumps every phase
  kZipf,        ///< Zipf(0.9) popularity over a permutation of the pages
  kScan,        ///< uniform hot set broken by sequential cold scans
  kUniform,     ///< uniform over all pages
};

/// One core's sequence of `length` requests over `pages` distinct page ids
/// starting at `base`.
[[nodiscard]] std::vector<mcp::PageId> sequence(Rng& rng, Pattern pattern,
                                                mcp::PageId base,
                                                std::size_t pages,
                                                std::size_t length);

/// A disjoint request set: core j draws from pages
/// [j * pages_per_core, (j + 1) * pages_per_core).
[[nodiscard]] mcp::RequestSet request_set(Rng& rng, Pattern pattern,
                                          std::size_t cores,
                                          std::size_t pages_per_core,
                                          std::size_t length);

/// The same instance under new names: permutes each core's page ids within
/// its own range.  Fault counts and optimal costs are unchanged, and the
/// offline state spaces keep their size up to tie-breaking among equal-cost
/// states, so seeds vary the input of the offline solves without varying
/// their amount of work much.
[[nodiscard]] mcp::RequestSet relabel(const mcp::RequestSet& base, Rng& rng,
                                      std::size_t pages_per_core);

}  // namespace perfbench::gen
