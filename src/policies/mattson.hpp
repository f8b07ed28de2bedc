// Single-pass LRU fault curves via Mattson's stack-distance algorithm.
//
// LRU has the inclusion (stack) property: the content of an LRU cache of k
// cells is always a subset of the content of an LRU cache of k+1 cells on
// the same sequence.  A request therefore hits at capacity k exactly when
// its *stack distance* — the number of distinct pages referenced since the
// previous request to the same page, inclusive — is at most k.  One pass
// that computes every request's stack distance yields the whole fault curve
// f(k) for k = 0..K at once, instead of K independent simulations.
//
// Two scans compute the distances.  Both are allocation-free once set up.
//
//  * Move-to-front keeps the D most recently used pages in an array, most
//    recent first, where D = min(max_k + 1, max page id + 1).  A request
//    found at index i has stack distance i + 1, and one not found misses at
//    every tracked capacity, so this is exact for the curve.  It costs
//    O(D) per request with a tiny constant.
//  * A Fenwick tree over access positions marks each page's most recent
//    access and counts the distinct pages between two accesses in
//    O(log n), for O(n log n) per sequence whatever the depth.
//
// lru_fault_curve picks move-to-front when D <= kMoveToFrontMaxDepth and
// the Fenwick scan otherwise; stack_distances always uses the Fenwick scan,
// since it reports every distance.  This is the engine behind the fast path
// of policy_fault_curves() for LRU (see partition_search.cpp) and behind
// mcpd's curve and partition queries.
#pragma once

#include <cstddef>
#include <vector>

#include "core/request.hpp"
#include "core/types.hpp"

namespace mcp {

/// Deepest stack (D above) that lru_fault_curve scans by move-to-front.
/// Measured in a Release build on a 4-vCPU Xeon host, p = 8 cores of 4096
/// uniform requests each: move-to-front costs 10-31 ns per request up to
/// depth 64 against 33-41 for the Fenwick scan, breaks even near depth 96
/// and costs 67-202 ns at depth 256-1024.
inline constexpr std::size_t kMoveToFrontMaxDepth = 64;

/// Full LRU fault curve of `seq` served alone: returns `curve` with
/// curve[k] = faults of single-core LRU at capacity k, for k = 0..max_k.
/// curve[0] = seq.size() (the k = 0 limit, matching
/// single_core_policy_faults); for k >= the number of distinct pages the
/// value is the cold-miss count.  Agrees with
/// single_core_policy_faults(seq, k, LRU) for every k — the per-k run is
/// kept as the test oracle.
[[nodiscard]] std::vector<Count> lru_fault_curve(const RequestSequence& seq,
                                                 std::size_t max_k);

/// Per-core LRU fault curves of a whole request set: curves[j] is
/// lru_fault_curve(requests.sequence(j), max_k).  Cores are scanned in
/// chunks of 8 per pool task, so a set of at most 8 cores (and, through
/// parallel_for's small-range rule, up to 24) runs on the caller's thread.
[[nodiscard]] std::vector<std::vector<Count>> lru_fault_curve_batch(
    const RequestSet& requests, std::size_t max_k);

/// All requests' stack distances in sequence order: 0 for a first (cold)
/// access, otherwise the number of distinct pages touched since the
/// previous access to the same page (inclusive — a repeat of the
/// immediately preceding request has distance 1).  Exposed for tests and
/// locality diagnostics.
[[nodiscard]] std::vector<std::size_t> stack_distances(
    const RequestSequence& seq);

}  // namespace mcp
