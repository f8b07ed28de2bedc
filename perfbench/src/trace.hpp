// Span recorder of traced runs.  Spans are recorded from the benchmark's
// own code around its calls into each library layer (nothing under src/ is
// instrumented).  Storage is one array allocated before the timed region;
// a span claims its slot with one atomic increment, so recording never
// allocates.  Untraced runs construct spans that do nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

inline constexpr std::uint32_t kNoSpan = UINT32_MAX;

/// Allocates room for `capacity` spans and turns recording on.
void enable(std::size_t capacity);
[[nodiscard]] bool enabled() noexcept;

/// One timed interval.  `name` must be a string literal (stored by pointer);
/// its prefix before the first '.' names the layer.  `id` is the session or
/// instance the work belongs to.  The parent is the thread's innermost open
/// span unless given, which is how work handed to another thread keeps its
/// caller as parent.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0,
                std::uint32_t parent = kNoSpan) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

 private:
  std::uint32_t index_ = kNoSpan;
  std::uint32_t saved_ = kNoSpan;
};

/// Opens a span that is not tied to a scope (a session in flight while its
/// client serves others); close() ends it.  It does not become the thread's
/// current span, so children name it as their parent explicitly.
[[nodiscard]] std::uint32_t open(const char* name, std::uint64_t id,
                                 std::uint32_t parent = kNoSpan) noexcept;
void close(std::uint32_t span) noexcept;

struct LayerRow {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< Span time not covered by child spans.
};

/// Per-name calls, total and self time of every recorded span, sorted by
/// name.  Call only after every recording thread has been joined.
[[nodiscard]] std::vector<LayerRow> layer_table();
/// Summed duration of the spans called `name`, ms.
[[nodiscard]] double total_ms(const std::string& name);
/// Spans that did not fit the preallocated array.
[[nodiscard]] std::uint64_t dropped() noexcept;
[[nodiscard]] std::size_t recorded() noexcept;

/// Writes every span as Chrome trace-event JSON ("X" complete events).
void write_chrome_json(const std::string& path);

}  // namespace perfbench::trace
