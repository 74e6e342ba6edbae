#include "support/trace.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "support/json.hpp"

namespace sekitei::trace {

namespace {

std::atomic<Collector*> g_collector{nullptr};

}  // namespace

std::uint32_t current_thread_id() {
  static std::atomic<std::uint32_t> g_next{0};
  thread_local std::uint32_t id = 0;
  if (id == 0) id = g_next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

struct Collector::Impl {
  mutable std::mutex mu;
  Clock::time_point epoch = Clock::now();
  std::vector<Event> events;
};

Collector::Collector() : impl_(new Impl) {}

Collector::~Collector() {
  // Defensive: never leave a dangling global pointer behind.
  Collector* self = this;
  g_collector.compare_exchange_strong(self, nullptr);
  delete impl_;
}

void Collector::complete(std::string_view name, const char* cat, Clock::time_point start,
                         Clock::time_point end) {
  using us = std::chrono::duration<double, std::micro>;
  Event e;
  e.name.assign(name);
  e.cat = cat;
  e.ts_us = us(start - impl_->epoch).count();
  e.dur_us = us(end - start).count();
  e.tid = current_thread_id();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->events.push_back(std::move(e));
}

std::size_t Collector::event_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->events.size();
}

std::vector<Event> Collector::events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->events;
}

std::string Collector::to_json() const {
  // The Chrome trace-event "JSON object format": a top-level object whose
  // traceEvents member holds the event array.  pid/tid are required by the
  // loaders; pid is 1 (single process) and tid is the dense id of the thread
  // that recorded the event, so the planning service's concurrent spans land
  // on separate per-thread tracks in the viewer.
  std::string out = "{\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(impl_->mu);
  bool first = true;
  for (const Event& e : impl_->events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    json::append_escaped(out, e.name);
    out += ",\"cat\":";
    json::append_escaped(out, e.cat);
    out += ",\"ph\":\"X\",\"ts\":";
    json::append_number(out, e.ts_us);
    out += ",\"dur\":";
    json::append_number(out, e.dur_us);
    out += ",\"pid\":1,\"tid\":";
    json::append_number(out, static_cast<std::uint64_t>(e.tid == 0 ? 1 : e.tid));
    out.push_back('}');
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Collector::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::string body = to_json();
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

void install(Collector* c) { g_collector.store(c, std::memory_order_release); }

void uninstall() { g_collector.store(nullptr, std::memory_order_release); }

Collector* collector() { return g_collector.load(std::memory_order_relaxed); }

}  // namespace sekitei::trace
