// Measurement helpers of the benchmark: raw-sample percentiles, the span
// recorder of the traced run, process memory, and the host-speed probe.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of raw samples (p in [0, 1]); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Pins the calling process (and so every thread and child process it starts
/// afterwards) to one CPU, the highest-numbered one it may run on.  The
/// closed loop has one runnable thread at a time, and hand-offs between the
/// client, the daemon's session and the engine worker then stay on one core
/// instead of waking another: unpinned, the wire workload's req_per_s spread
/// three times as far from run to run.  Returns the CPU, or -1 if pinning
/// failed (the run goes on unpinned).
int pin_to_one_cpu();

/// One timed call into a layer.  Spans of one request share `request`;
/// `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  Clock::time_point start, end;
  int parent = -1;
  std::uint32_t request = 0;
};

/// In-memory span recorder for the single-threaded traced run.  When
/// disabled, scopes cost one branch, which is how the run measures the
/// tracing overhead.
class Tracer {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint32_t request) : t_(t) {
      if (!t_.enabled) return;
      idx_ = static_cast<int>(t_.spans.size());
      Span s;
      s.name = name;
      s.parent = t_.stack_.empty() ? -1 : t_.stack_.back();
      s.request = request;
      t_.stack_.push_back(idx_);
      t_.spans.push_back(s);
      t_.spans[static_cast<std::size_t>(idx_)].start = Clock::now();
    }
    ~Scope() {
      if (idx_ < 0) return;
      t_.spans[static_cast<std::size_t>(idx_)].end = Clock::now();
      t_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  /// Self time of every span: its duration minus the time its direct
  /// children cover (children never overlap: the run is single-threaded).
  [[nodiscard]] std::vector<double> self_ms() const {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = ms_between(spans[i].start, spans[i].end);
    }
    for (const Span& s : spans) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= ms_between(s.start, s.end);
    }
    return self;
  }

 private:
  std::vector<int> stack_;
};

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

/// CPU time the hypervisor gave to other guests (steal) and total CPU time,
/// in clock ticks, from /proc/stat; zeros when unreadable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Milliseconds a fixed integer loop takes.  It does not touch the planner:
/// it only shows whether the host itself ran slow during a run, and is never
/// used to scale a metric.  The loop runs four independent xorshift chains,
/// so that it needs the core's spare issue slots as the planner does: one
/// dependent chain ran at the same speed while another guest's work on the
/// core's other hardware thread slowed the planner (and four chains) by
/// half.
[[nodiscard]] double host_speed_ms();

}  // namespace perfbench
