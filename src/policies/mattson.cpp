#include "policies/mattson.hpp"

#include <algorithm>

#include "core/parallel.hpp"
#include "core/sentry.hpp"

namespace mcp {

namespace {

// Fenwick tree over 1-based access positions; tree[i] counts positions in
// i's range that still hold some page's most recent access.
class PositionTree {
 public:
  explicit PositionTree(std::size_t n) : tree_(n + 1, 0), n_(n) {}

  void mark(std::size_t pos) {
    for (; pos <= n_; pos += lowbit(pos)) ++tree_[pos];
  }
  void unmark(std::size_t pos) {
    for (; pos <= n_; pos += lowbit(pos)) --tree_[pos];
  }
  /// Number of marked positions in [1, pos].
  [[nodiscard]] std::size_t prefix(std::size_t pos) const {
    std::size_t sum = 0;
    for (; pos > 0; pos -= lowbit(pos)) sum += tree_[pos];
    return sum;
  }

 private:
  static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

  std::vector<std::uint32_t> tree_;
  std::size_t n_;
};

PageId max_page_of(const RequestSequence& seq) {
  PageId max_page = 0;
  for (const PageId page : seq) max_page = std::max(max_page, page);
  return max_page;
}

// Single pass over `seq`, calling on_cold() for first accesses and
// on_reuse(d) with the stack distance d >= 1 for repeats.  O(n log n).
template <typename OnCold, typename OnReuse>
void scan_stack_distances(const RequestSequence& seq, PageId max_page,
                          OnCold on_cold, OnReuse on_reuse) {
  const std::size_t n = seq.size();
  PositionTree marks(n);
  // The page->position map is presized from the sequence's max page id, so
  // the scan below never grows it — which lets the allocation sentry hold
  // the kernel to the §8 allocation-free claim.  The callbacks inherit the
  // guard: both callers append into exactly-reserved storage or bump
  // counters.
  std::vector<std::size_t> last_pos(n == 0 ? 1 : std::size_t{max_page} + 1,
                                    0);  // page -> 1-based position, 0 = unseen
  AllocGuard guard("mattson stack-distance scan");
  for (std::size_t i = 1; i <= n; ++i) {
    const PageId page = seq[i - 1];
    const std::size_t prev = last_pos[page];
    if (prev == 0) {
      on_cold();
    } else {
      // Distinct pages since the previous access to `page`: the still-marked
      // positions strictly between prev and i, plus `page` itself.
      on_reuse(marks.prefix(i - 1) - marks.prefix(prev) + 1);
      marks.unmark(prev);
    }
    marks.mark(i);
    last_pos[page] = i;
  }
}

/// Move-to-front scan: keeps the `depth` most recently used pages, most
/// recent first.  A request found at index i has stack distance i + 1 and
/// bumps hist[i + 1]; a request not found is cold or deeper than `depth`,
/// and no histogram bucket below depth + 1 counts it.  O(n * depth).
void scan_move_to_front(const RequestSequence& seq, std::size_t depth,
                        std::vector<Count>& hist) {
  std::vector<PageId> stack(depth);
  std::size_t size = 0;
  AllocGuard guard("mattson move-to-front scan");
  for (const PageId page : seq) {
    // Shift the stack down one slot until `page` turns up, carrying each
    // displaced entry; `page` ends at the top either way.
    PageId carry = page;
    std::size_t i = 0;
    for (; i < size; ++i) {
      std::swap(stack[i], carry);
      if (carry == page) break;
    }
    if (i < size) {
      ++hist[i + 1];
    } else if (size < depth) {
      stack[size++] = carry;
    }
  }
}

/// Lanes per pool task in lru_fault_curve_batch: enough to amortize the
/// dispatch, few enough that large-p sets still spread across workers.
constexpr std::size_t kMattsonChunkLanes = 8;

}  // namespace

std::vector<Count> lru_fault_curve(const RequestSequence& seq,
                                   std::size_t max_k) {
  // hist[d] = reuses at stack distance d; distances beyond max_k are
  // bucketed at max_k + 1 (they miss at every tracked capacity).
  std::vector<Count> hist(max_k + 2, 0);
  const PageId max_page = max_page_of(seq);
  // No reuse is deeper than the number of distinct pages, at most
  // max_page + 1, and every depth past max_k lands in the same bucket.
  const std::size_t depth =
      std::min(max_k + 1, seq.empty() ? 0 : std::size_t{max_page} + 1);
  if (depth <= kMoveToFrontMaxDepth) {
    scan_move_to_front(seq, depth, hist);
  } else {
    scan_stack_distances(
        seq, max_page, [] {},
        [&hist, max_k](std::size_t d) { ++hist[std::min(d, max_k + 1)]; });
  }

  // f(k) = requests that are not reuses at distance <= k: every request
  // misses at k = 0, and each step up in k turns hist[k] misses into hits.
  std::vector<Count> curve(max_k + 1, 0);
  Count misses = seq.size();
  for (std::size_t k = 0; k <= max_k; ++k) {
    misses -= hist[k];
    curve[k] = misses;
  }
  return curve;
}

std::vector<std::vector<Count>> lru_fault_curve_batch(
    const RequestSet& requests, std::size_t max_k) {
  const std::size_t p = requests.num_cores();
  std::vector<std::vector<Count>> curves(p);
  if (p == 0) return curves;
  const std::size_t chunks =
      (p + kMattsonChunkLanes - 1) / kMattsonChunkLanes;
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t first = c * kMattsonChunkLanes;
    const std::size_t last = std::min(p, first + kMattsonChunkLanes);
    for (std::size_t j = first; j < last; ++j) {
      curves[j] = lru_fault_curve(requests.sequence(static_cast<CoreId>(j)),
                                  max_k);
    }
  });
  return curves;
}

std::vector<std::size_t> stack_distances(const RequestSequence& seq) {
  std::vector<std::size_t> out;
  out.reserve(seq.size());
  scan_stack_distances(
      seq, max_page_of(seq), [&out] { out.push_back(0); },
      [&out](std::size_t d) { out.push_back(d); });
  return out;
}

}  // namespace mcp
