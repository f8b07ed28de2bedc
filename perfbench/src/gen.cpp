#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench::gen {

std::uint64_t Rng::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::unit() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng Rng::fork(std::uint64_t salt) noexcept {
  Rng child(state_ ^ (salt * 0xD1B54A32D192ED03ULL));
  child.next();
  return child;
}

namespace {

std::vector<mcp::PageId> permutation(Rng& rng, mcp::PageId base,
                                     std::size_t pages) {
  std::vector<mcp::PageId> perm(pages);
  std::iota(perm.begin(), perm.end(), base);
  for (std::size_t i = pages; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  return perm;
}

}  // namespace

std::vector<mcp::PageId> sequence(Rng& rng, Pattern pattern,
                                  mcp::PageId base, std::size_t pages,
                                  std::size_t length) {
  const std::vector<mcp::PageId> perm = permutation(rng, base, pages);
  std::vector<mcp::PageId> out;
  out.reserve(length);
  switch (pattern) {
    case Pattern::kLoop:
      for (std::size_t i = 0; i < length; ++i) out.push_back(perm[i % pages]);
      break;
    case Pattern::kUniform:
      for (std::size_t i = 0; i < length; ++i) {
        out.push_back(perm[rng.below(pages)]);
      }
      break;
    case Pattern::kWorkingSet: {
      // A window of a quarter of the pages (at least 2) jumps to a random
      // offset every 256 requests.
      const std::size_t window = std::max<std::size_t>(2, pages / 4);
      std::size_t start = 0;
      for (std::size_t i = 0; i < length; ++i) {
        if (i % 256 == 0) start = rng.below(pages);
        out.push_back(perm[(start + rng.below(window)) % pages]);
      }
      break;
    }
    case Pattern::kZipf: {
      std::vector<double> cdf(pages);
      double total = 0.0;
      for (std::size_t r = 0; r < pages; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
        cdf[r] = total;
      }
      for (std::size_t i = 0; i < length; ++i) {
        const double u = rng.unit() * total;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const auto rank = static_cast<std::size_t>(it - cdf.begin());
        out.push_back(perm[std::min(rank, pages - 1)]);
      }
      break;
    }
    case Pattern::kScan: {
      // Hot quarter of the pages, uniform; one request in 64 starts a
      // sequential scan of 16 cold pages.
      const std::size_t hot = std::max<std::size_t>(1, pages / 4);
      const std::size_t cold = pages - hot;
      std::size_t cursor = 0;
      while (out.size() < length) {
        if (cold > 0 && rng.below(64) == 0) {
          for (std::size_t s = 0; s < 16 && out.size() < length; ++s) {
            out.push_back(perm[hot + cursor]);
            cursor = (cursor + 1) % cold;
          }
        } else {
          out.push_back(perm[rng.below(hot)]);
        }
      }
      break;
    }
  }
  return out;
}

mcp::RequestSet request_set(Rng& rng, Pattern pattern, std::size_t cores,
                            std::size_t pages_per_core, std::size_t length) {
  mcp::RequestSet set;
  for (std::size_t j = 0; j < cores; ++j) {
    set.add_sequence(mcp::RequestSequence(
        sequence(rng, pattern, static_cast<mcp::PageId>(j * pages_per_core),
                 pages_per_core, length)));
  }
  return set;
}

mcp::RequestSet relabel(const mcp::RequestSet& base, Rng& rng,
                        std::size_t pages_per_core) {
  mcp::RequestSet out;
  for (std::size_t j = 0; j < base.num_cores(); ++j) {
    const auto first = static_cast<mcp::PageId>(j * pages_per_core);
    const std::vector<mcp::PageId> names =
        permutation(rng, first, pages_per_core);
    std::vector<mcp::PageId> pages;
    for (const mcp::PageId page :
         base.sequence(static_cast<mcp::CoreId>(j))) {
      pages.push_back(names[page - first]);
    }
    out.add_sequence(mcp::RequestSequence(std::move(pages)));
  }
  return out;
}

}  // namespace perfbench::gen
