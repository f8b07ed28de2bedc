#include "reference.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>

namespace perfbench::ref {

CoreRun single_core(std::span<const mcp::PageId> seq, std::size_t k,
                    mcp::Time tau, Policy policy) {
  if (k == 0) throw std::invalid_argument("single_core: k must be >= 1");
  // Front = next victim.  LRU moves a hit page to the back; FIFO does not.
  std::deque<mcp::PageId> cache;
  CoreRun run;
  mcp::Time t = 0;
  for (const mcp::PageId page : seq) {
    const auto it = std::find(cache.begin(), cache.end(), page);
    const bool hit = it != cache.end();
    if (hit) {
      if (policy == Policy::kLru) {
        cache.erase(it);
        cache.push_back(page);
      }
    } else {
      if (cache.size() == k) cache.pop_front();
      cache.push_back(page);
      ++run.faults;
      run.fault_issue_times.push_back(t);
    }
    run.completion = hit ? t : t + tau;
    t = run.completion + 1;
  }
  return run;
}

mcp::Count cold_misses(std::span<const mcp::PageId> seq) {
  return std::set<mcp::PageId>(seq.begin(), seq.end()).size();
}

std::vector<mcp::Count> lru_curve(std::span<const mcp::PageId> seq,
                                  std::size_t max_k) {
  // A request hits with k cells iff its LRU stack depth (1-based) is <= k.
  std::vector<mcp::Count> hits_at_depth(max_k + 2, 0);
  std::vector<mcp::PageId> stack;  // most recent first
  for (const mcp::PageId page : seq) {
    const auto it = std::find(stack.begin(), stack.end(), page);
    if (it != stack.end()) {
      const auto depth = static_cast<std::size_t>(it - stack.begin()) + 1;
      if (depth <= max_k) ++hits_at_depth[depth];
      stack.erase(it);
    }
    stack.insert(stack.begin(), page);
  }
  std::vector<mcp::Count> curve(max_k + 1, 0);
  mcp::Count hits = 0;
  for (std::size_t k = 0; k <= max_k; ++k) {
    hits += hits_at_depth[k];
    curve[k] = seq.size() - hits;
  }
  return curve;
}

namespace {

void compose(std::vector<std::size_t>& parts, std::size_t j, std::size_t left,
             const std::function<void(const std::vector<std::size_t>&)>& fn) {
  if (j + 1 == parts.size()) {
    parts[j] = left;
    fn(parts);
    return;
  }
  // Leave at least one cell for each later part.
  const std::size_t later = parts.size() - 1 - j;
  for (std::size_t k = 1; k + later <= left; ++k) {
    parts[j] = k;
    compose(parts, j + 1, left - k, fn);
  }
}

}  // namespace

void for_each_composition(
    std::size_t total, std::size_t parts_count,
    const std::function<void(const std::vector<std::size_t>&)>& fn) {
  if (parts_count == 0 || total < parts_count) return;
  std::vector<std::size_t> parts(parts_count, 0);
  compose(parts, 0, total, fn);
}

mcp::Count best_composition(const std::vector<std::vector<mcp::Count>>& curves,
                            std::size_t cache_size) {
  mcp::Count best = std::numeric_limits<mcp::Count>::max();
  for_each_composition(cache_size, curves.size(),
                       [&](const std::vector<std::size_t>& parts) {
                         mcp::Count sum = 0;
                         for (std::size_t j = 0; j < parts.size(); ++j) {
                           sum += curves[j][parts[j]];
                         }
                         best = std::min(best, sum);
                       });
  return best;
}

}  // namespace perfbench::ref
