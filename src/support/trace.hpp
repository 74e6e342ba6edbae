// Scoped tracing: RAII spans and named counters, exported in the Chrome
// trace-event JSON format (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// The collector is *opt-in*: nothing is recorded — and a Span costs exactly
// one relaxed atomic load — until someone calls trace::install().  Building
// with -DSEKITEI_LOG_DISABLED (or -DSEKITEI_TRACE_DISABLED alone) removes
// the instrumentation from the translation unit entirely.
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

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if defined(SEKITEI_LOG_DISABLED) && !defined(SEKITEI_TRACE_DISABLED)
#define SEKITEI_TRACE_DISABLED
#endif

namespace sekitei::trace {

/// One recorded trace event.  `ph` follows the Chrome trace-event phase
/// codes: 'X' = complete span (ts + dur), 'C' = counter sample, 'i' =
/// instant event.
struct Event {
  char ph = 'X';
  std::string name;
  const char* cat = "planner";
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;  // 'X' only
  double value = 0.0;        // 'C' only
  std::uint32_t tid = 0;     // recording thread (dense id, see current_thread_id)
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

  /// Microseconds since this collector was created (steady clock).
  [[nodiscard]] std::uint64_t now_us() const;

  void complete(std::string_view name, const char* cat, std::uint64_t ts_us,
                std::uint64_t dur_us);
  void counter(std::string_view name, double value);
  void instant(std::string_view name, const char* cat);

  [[nodiscard]] std::size_t event_count() const;
  /// Snapshot of the recorded events (copy; the collector keeps recording).
  [[nodiscard]] std::vector<Event> events() const;
  /// All samples recorded for counter `name`, in recording order.
  [[nodiscard]] std::vector<double> counter_values(std::string_view name) const;
  /// The most recent sample of counter `name` (0.0 when never sampled).
  [[nodiscard]] double counter_last(std::string_view name) const;

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
/// the only cost instrumentation pays when tracing is idle.
[[nodiscard]] Collector* collector();

#ifndef SEKITEI_TRACE_DISABLED

/// RAII span: records a complete ('X') event covering its lifetime.  Costs
/// one atomic load when no collector is installed.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "planner")
      : c_(collector()), name_(name), cat_(cat) {
    if (c_) start_ = c_->now_us();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Ends the span early (idempotent).
  void finish() {
    if (c_) {
      c_->complete(name_, cat_, start_, c_->now_us() - start_);
      c_ = nullptr;
    }
  }

 private:
  Collector* c_;
  const char* name_;
  const char* cat_;
  std::uint64_t start_ = 0;
};

/// Records one sample of the named counter (no-op without a collector).
inline void counter(const char* name, double value) {
  if (Collector* c = collector()) c->counter(name, value);
}

/// Records an instant marker (no-op without a collector).
inline void instant(const char* name, const char* cat = "planner") {
  if (Collector* c = collector()) c->instant(name, cat);
}

#else  // SEKITEI_TRACE_DISABLED: the instrumentation vanishes entirely.

// An inline namespace of their own gives the no-op variants distinct
// mangled names, so a TU built with them and one built with the real ones
// link into one program without two definitions of one inline class.
inline namespace disabled {

class Span {
 public:
  explicit Span(const char*, const char* = "planner") {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void finish() {}
};

inline void counter(const char*, double) {}
inline void instant(const char*, const char* = "planner") {}

}  // namespace disabled

#endif  // SEKITEI_TRACE_DISABLED

}  // namespace sekitei::trace
