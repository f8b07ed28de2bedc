// Reference computations the benchmark checks outputs against.  They are
// written from the model's definitions (docs/MODEL.md), share no code with
// the library's policies, simulators or searches, favour plainness over
// speed, and run only outside the timed regions.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace perfbench::ref {

enum class Policy { kLru, kFifo };

/// One core served alone with `k` cells (k >= 1): fault count, the issue
/// time of each fault, and the completion time n + tau * f - 1 (a request
/// issued at t finishes at t on a hit, t + tau on a fault, and the next
/// request issues one step after that).
struct CoreRun {
  mcp::Count faults = 0;
  mcp::Time completion = 0;
  std::vector<mcp::Time> fault_issue_times;
};
[[nodiscard]] CoreRun single_core(std::span<const mcp::PageId> seq,
                                  std::size_t k, mcp::Time tau, Policy policy);

/// Distinct pages of `seq`: its cold misses under any policy.
[[nodiscard]] mcp::Count cold_misses(std::span<const mcp::PageId> seq);

/// LRU fault curve from stack distances: curve[k] = faults of `seq` alone
/// with k cells, k = 0..max_k (curve[0] = |seq|).
[[nodiscard]] std::vector<mcp::Count> lru_curve(
    std::span<const mcp::PageId> seq, std::size_t max_k);

/// Calls fn(parts) for every composition of `total` into `parts_count`
/// parts, each >= 1, in lexicographic order.
void for_each_composition(
    std::size_t total, std::size_t parts_count,
    const std::function<void(const std::vector<std::size_t>&)>& fn);

/// min over compositions of K into p parts (each >= 1) of
/// sum_j curves[j][k_j].
[[nodiscard]] mcp::Count best_composition(
    const std::vector<std::vector<mcp::Count>>& curves, std::size_t cache_size);

}  // namespace perfbench::ref
