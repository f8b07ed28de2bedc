#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench::trace {
namespace {

struct Record {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open.
  std::uint32_t parent = kNoSpan;
  std::uint32_t thread = 0;
};

std::vector<Record> g_records;
std::atomic<std::uint32_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint32_t> g_threads{0};
bool g_enabled = false;
std::chrono::steady_clock::time_point g_origin;

thread_local std::uint32_t t_current = kNoSpan;
thread_local std::uint32_t t_thread = kNoSpan;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

std::size_t used() noexcept {
  return std::min<std::size_t>(g_next.load(std::memory_order_acquire),
                               g_records.size());
}

/// Self time of every closed span: duration minus the union of its
/// children's intervals clipped to it.
std::vector<std::int64_t> self_ns() {
  const std::size_t n = used();
  std::vector<std::vector<std::uint32_t>> children(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t parent = g_records[i].parent;
    if (parent != kNoSpan && parent < n) children[parent].push_back(i);
  }
  std::vector<std::int64_t> self(n, 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = g_records[i];
    if (r.end_ns < 0) continue;
    spans.clear();
    for (const std::uint32_t c : children[i]) {
      const Record& child = g_records[c];
      if (child.end_ns < 0) continue;
      const std::int64_t lo = std::max(child.start_ns, r.start_ns);
      const std::int64_t hi = std::min(child.end_ns, r.end_ns);
      if (hi > lo) spans.emplace_back(lo, hi);
    }
    std::sort(spans.begin(), spans.end());
    std::int64_t covered = 0;
    std::int64_t reach = r.start_ns;
    for (const auto& [lo, hi] : spans) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (r.end_ns - r.start_ns) - covered;
  }
  return self;
}

}  // namespace

void enable(std::size_t capacity) {
  g_records.assign(capacity, Record{});
  g_next.store(0, std::memory_order_relaxed);
  g_origin = std::chrono::steady_clock::now();
  g_enabled = true;
}

bool enabled() noexcept { return g_enabled; }

std::uint32_t open(const char* name, std::uint64_t id,
                   std::uint32_t parent) noexcept {
  if (!g_enabled) return kNoSpan;
  if (t_thread == kNoSpan) {
    t_thread = g_threads.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint32_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= g_records.size()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return kNoSpan;
  }
  Record& r = g_records[slot];
  r.name = name;
  r.id = id;
  r.parent = parent;
  r.thread = t_thread;
  r.start_ns = now_ns();
  return slot;
}

void close(std::uint32_t span) noexcept {
  if (span != kNoSpan) g_records[span].end_ns = now_ns();
}

Span::Span(const char* name, std::uint64_t id, std::uint32_t parent) noexcept {
  if (!g_enabled) return;
  index_ = open(name, id, parent != kNoSpan ? parent : t_current);
  if (index_ == kNoSpan) return;
  saved_ = t_current;
  t_current = index_;
}

Span::~Span() {
  if (index_ == kNoSpan) return;
  close(index_);
  t_current = saved_;
}

std::vector<LayerRow> layer_table() {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Record& r = g_records[i];
    if (r.end_ns < 0) continue;
    LayerRow& row = rows[r.name];
    row.name = r.name;
    row.calls += 1;
    row.total_ms += static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
    row.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

double total_ms(const std::string& name) {
  double total = 0.0;
  const std::size_t n = used();
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = g_records[i];
    if (r.end_ns >= 0 && name == r.name) {
      total += static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
    }
  }
  return total;
}

std::uint64_t dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::size_t recorded() noexcept { return used(); }

void write_chrome_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::size_t n = used();
  bool first = true;
  char buf[512];
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = g_records[i];
    if (r.end_ns < 0) continue;
    const std::string name = r.name;
    const std::string layer = name.substr(0, name.find('.'));
    const long long parent = r.parent == kNoSpan ? -1 : r.parent;
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"span\":%zu,\"parent\":%lld,\"id\":%llu}}",
                  first ? "" : ",", name.c_str(), layer.c_str(),
                  static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3, r.thread,
                  i, parent, static_cast<unsigned long long>(r.id));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench::trace
