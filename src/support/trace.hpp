// Scoped timing and tracing: one RAII span that times a scope, adds the
// elapsed milliseconds to the field it fills, and — when a collector is
// installed — records the same interval as a Chrome trace-event ('X') span
// (load the file in chrome://tracing or https://ui.perfetto.dev).
//
//   double graph_ms = 0.0;
//   { trace::Span span("planner.graph", "graph", &graph_ms); ...work... }
//
// The collector is *opt-in*.  A span without an `add_ms` target costs one
// relaxed atomic load until someone calls trace::install(); a span with one
// always reads the clock twice, and a collector gets an event built from
// those same two reads, so a reported field and its span never disagree.
// Building with -DSEKITEI_LOG_DISABLED compiles the events out; a span with
// an `add_ms` target still times.
//
//   trace::Collector collector;
//   trace::install(&collector);
//   ... run the planner ...
//   trace::uninstall();
//   collector.write_json("out.json");
//
// Timestamps come from a steady clock relative to the collector's creation;
// they are reporting-only and never feed back into planning (determinism).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sekitei::trace {

using Clock = std::chrono::steady_clock;

/// One recorded complete span (Chrome trace-event phase 'X').  Times are in
/// microseconds, fractional: `dur_us` is exactly the interval the span added
/// to its field.
struct Event {
  std::string name;
  const char* cat = "planner";
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;  // recording thread (dense id, see current_thread_id)
};

/// Dense id of the calling thread (1, 2, 3, ... in first-use order).  Stable
/// for the thread's lifetime; used as the `tid` of recorded events so that
/// multi-threaded runs (the planning service) interleave correctly in the
/// Chrome trace viewer's per-thread tracks.
[[nodiscard]] std::uint32_t current_thread_id();

class Collector {
 public:
  Collector();
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Records the span [start, end) on the calling thread.
  void complete(std::string_view name, const char* cat, Clock::time_point start,
                Clock::time_point end);

  [[nodiscard]] std::size_t event_count() const;
  /// Snapshot of the recorded events (copy; the collector keeps recording).
  [[nodiscard]] std::vector<Event> events() const;

  /// The full trace as `{"traceEvents":[...]}` — the Chrome trace-event
  /// "JSON object format", loadable by chrome://tracing and Perfetto.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Installs `c` as the process-global collector (nullptr uninstalls).  The
/// caller keeps ownership and must keep `c` alive until uninstall().
void install(Collector* c);
void uninstall();
/// The installed collector, or nullptr.  One relaxed atomic load — this is
/// the only cost an untimed span pays when tracing is idle.
[[nodiscard]] Collector* collector();

// The two builds of Span live in inline namespaces of their own, so a TU
// built with SEKITEI_LOG_DISABLED and one built without link into one
// program without two different definitions of one inline class.
#ifndef SEKITEI_LOG_DISABLED
inline namespace recorded {
inline constexpr bool kRecordSpans = true;
#else
inline namespace unrecorded {
inline constexpr bool kRecordSpans = false;
#endif

/// RAII span: times its lifetime, adds the milliseconds to `*add_ms` (when
/// given) and records a complete event (when a collector is installed).
class Span {
 public:
  explicit Span(const char* name, const char* cat = "planner", double* add_ms = nullptr)
      : c_(kRecordSpans ? collector() : nullptr), name_(name), cat_(cat), add_ms_(add_ms) {
    if (c_ || add_ms_) start_ = Clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Ends the span early (idempotent).
  void finish() {
    if (!c_ && !add_ms_) return;
    const Clock::time_point end = Clock::now();
    if (add_ms_) *add_ms_ += std::chrono::duration<double, std::milli>(end - start_).count();
    if (c_) c_->complete(name_, cat_, start_, end);
    c_ = nullptr;
    add_ms_ = nullptr;
  }

 private:
  Collector* c_;
  const char* name_;
  const char* cat_;
  double* add_ms_;
  Clock::time_point start_{};
};

}  // inline namespace recorded / unrecorded

}  // namespace sekitei::trace
