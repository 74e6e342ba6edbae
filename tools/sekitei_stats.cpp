// Offline observability aggregator: tail NDJSON produced by the other
// drivers — sekitei_serve per-request records and --metrics snapshots,
// bench `{"bench":...}` lines, flight-recorder dumps — and render compact
// latency / outcome / metric summary tables on stdout.
//
//   $ ./sekitei_serve dom.sk q*.sk --metrics > run.ndjson
//   $ ./sekitei_stats run.ndjson
//   $ ./sekitei_fuzz --runs 50 | ./sekitei_stats      # reads stdin too
//
// Dispatch is on the leading key of each line's object:
//   "access"   daemon (sekitei_netd) per-request access-log record ->
//              per-session request counts + outcome tally + exact solve/wait
//              percentiles + response bytes
//   "request"  serve driver per-request record -> outcome counts + exact
//              solve/wait percentiles + cache hit tally
//   "metric"   registry snapshot line -> last value per series wins (a
//              periodic flusher emits many snapshots; the newest is the
//              state of record)
//   "bench"    bench record -> per-name count; netload / netload_direct
//              records additionally surface their headline numbers (rps,
//              percentiles, losses) and the wire/direct rps ratio, and
//              driftload records (bench_drift) surface the repair-vs-replan
//              p50 comparison
//              (repair request records — those with a "repaired" key — also
//              get their own digest: latency split by repaired/replanned,
//              migration/reconnect/disruption tallies, and a row counting
//              pre-flight-rejected requests — unsurvivable drift certified
//              before any search ran)
//   "flight"   flight-recorder dump header -> listed individually
// Anything else (stats records, flight samples) is counted and skipped.
// Malformed lines are tolerated and tallied to stderr; --strict makes them
// fatal (exit 2, also used for usage/IO errors).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "support/json_reader.hpp"

namespace {

using sekitei::json::Value;

struct SeriesValue {
  std::string type;  // "counter" | "gauge" | "histogram"
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

struct Tally {
  std::size_t lines = 0, malformed = 0, other = 0;
  std::size_t requests = 0, metric_lines = 0, snapshots_seen = 0;
  std::map<std::string, std::size_t> outcomes;
  std::map<std::string, std::size_t> ladders;
  std::size_t cache_hits = 0;
  std::vector<double> solve_ms, wait_ms;
  struct Repair {
    std::size_t records = 0, repaired = 0;
    std::size_t preflight_rejected = 0;  // unsurvivable drift, cut before search
    std::uint64_t migrations = 0, reconnects = 0, disruption = 0;
    std::vector<double> repaired_ms, replanned_ms;  // solve_ms split by path
  } repair;
  std::map<std::string, SeriesValue> series;  // rendered "name{labels}" -> last value
  std::map<std::string, std::size_t> benches;
  struct Access {
    std::size_t records = 0;
    std::map<std::string, std::size_t> per_session;  // session id -> requests
    std::map<std::string, std::size_t> outcomes;
    std::vector<double> solve_ms, wait_ms;
    std::uint64_t bytes = 0;
  } access;
  struct NetLoad {
    bool seen = false;
    double rps = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
    std::uint64_t lost = 0, requests = 0;
  } netload, netload_direct;  // last record of each wins
  struct DriftLoad {
    bool seen = false;
    double repair_p50 = 0.0, replan_p50 = 0.0, speedup = 0.0;
  } driftload;  // last record wins
  struct Flight {
    std::string id, outcome;
    std::uint64_t samples = 0, recorded = 0;
  };
  std::vector<Flight> flights;
};

double num_or(const Value& v, const char* key, double fallback) {
  const Value* f = v.find(key);
  return f != nullptr && f->is_number() ? f->number : fallback;
}

std::string str_or(const Value& v, const char* key, const char* fallback) {
  const Value* f = v.find(key);
  return f != nullptr && f->is_string() ? f->str : std::string(fallback);
}

/// Stable series key: name plus the sorted labels ("name{k=v,...}"), the
/// same rendering the registry uses internally.
std::string series_key(const Value& v) {
  std::string key = str_or(v, "metric", "?");
  const Value* labels = v.find("labels");
  if (labels != nullptr && labels->is_object() && !labels->obj->empty()) {
    key += '{';
    bool first = true;
    for (const auto& [k, lv] : *labels->obj) {  // std::map: already sorted
      if (!first) key += ',';
      first = false;
      key += k;
      key += '=';
      key += lv.is_string() ? lv.str : std::string("?");
    }
    key += '}';
  }
  return key;
}

void take_line(Tally& t, const std::string& line) {
  if (line.empty()) return;
  ++t.lines;
  Value v;
  if (!sekitei::json::parse(line, v) || !v.is_object()) {
    ++t.malformed;
    return;
  }
  // Before the "request" check: access records carry a "request" key too.
  if (v.find("access") != nullptr) {
    ++t.access.records;
    ++t.access.per_session[std::to_string(
        static_cast<long long>(num_or(v, "session", -1.0)))];
    ++t.access.outcomes[str_or(v, "outcome", "?")];
    t.access.solve_ms.push_back(num_or(v, "solve_ms", 0.0));
    t.access.wait_ms.push_back(num_or(v, "wait_ms", 0.0));
    t.access.bytes += static_cast<std::uint64_t>(num_or(v, "bytes", 0.0));
    return;
  }
  if (v.find("request") != nullptr) {
    ++t.requests;
    ++t.outcomes[str_or(v, "outcome", "?")];
    ++t.ladders[str_or(v, "ladder", "?")];
    const Value* hit = v.find("cache_hit");
    if (hit != nullptr && hit->is_bool() && hit->boolean) ++t.cache_hits;
    const double solve = num_or(v, "solve_ms", 0.0);
    t.solve_ms.push_back(solve);
    t.wait_ms.push_back(num_or(v, "wait_ms", 0.0));
    // Repair records carry a "repaired" flag; split their latency by whether
    // the survivors held or the ladder fell to a full replan.
    if (const Value* rep = v.find("repaired"); rep != nullptr && rep->is_bool()) {
      ++t.repair.records;
      // Pre-flight-rejected requests never entered search: they are neither
      // "repaired in place" nor "replanned", so keep them out of both
      // latency splits and count them on their own digest row.
      const Value* cut = v.find("repair_preflight_rejected");
      if (cut != nullptr && cut->is_bool() && cut->boolean) {
        ++t.repair.preflight_rejected;
      } else if (rep->boolean) {
        ++t.repair.repaired;
        t.repair.repaired_ms.push_back(solve);
      } else {
        t.repair.replanned_ms.push_back(solve);
      }
      t.repair.migrations += static_cast<std::uint64_t>(num_or(v, "migrations", 0.0));
      t.repair.reconnects += static_cast<std::uint64_t>(num_or(v, "reconnects", 0.0));
      t.repair.disruption += static_cast<std::uint64_t>(num_or(v, "disruption", 0.0));
    }
    return;
  }
  if (const Value* name = v.find("metric"); name != nullptr) {
    ++t.metric_lines;
    // Snapshot boundary heuristic: series are emitted in sorted order, so a
    // line for the lexicographically-first series starts a new snapshot.
    SeriesValue sv;
    sv.type = str_or(v, "type", "?");
    sv.value = num_or(v, "value", 0.0);
    sv.count = static_cast<std::uint64_t>(num_or(v, "count", 0.0));
    sv.sum = num_or(v, "sum", 0.0);
    sv.p50 = num_or(v, "p50", 0.0);
    sv.p90 = num_or(v, "p90", 0.0);
    sv.p99 = num_or(v, "p99", 0.0);
    const std::string key = series_key(v);
    if (!t.series.empty() && key <= t.series.begin()->first) ++t.snapshots_seen;
    if (t.series.empty()) t.snapshots_seen = 1;
    t.series[key] = sv;
    return;
  }
  if (v.find("bench") != nullptr) {
    const std::string name = str_or(v, "bench", "?");
    ++t.benches[name];
    if (name == "netload" || name == "netload_direct") {
      Tally::NetLoad& nl = name == "netload" ? t.netload : t.netload_direct;
      nl.seen = true;
      nl.rps = num_or(v, "rps", 0.0);
      nl.p50 = num_or(v, "p50_ms", 0.0);
      nl.p90 = num_or(v, "p90_ms", 0.0);
      nl.p99 = num_or(v, "p99_ms", 0.0);
      nl.lost = static_cast<std::uint64_t>(num_or(v, "lost", 0.0));
      nl.requests = static_cast<std::uint64_t>(num_or(v, "requests", 0.0));
    }
    if (name == "driftload") {
      Tally::DriftLoad& dl = t.driftload;
      dl.seen = true;
      dl.repair_p50 = num_or(v, "repair_p50_ms", 0.0);
      dl.replan_p50 = num_or(v, "replan_p50_ms", 0.0);
      dl.speedup = num_or(v, "speedup", 0.0);
    }
    return;
  }
  if (const Value* flight = v.find("flight"); flight != nullptr) {
    Tally::Flight f;
    f.id = flight->is_string() ? flight->str : "?";
    f.outcome = str_or(v, "outcome", "?");
    f.samples = static_cast<std::uint64_t>(num_or(v, "samples", 0.0));
    f.recorded = static_cast<std::uint64_t>(num_or(v, "recorded", 0.0));
    t.flights.push_back(std::move(f));
    return;
  }
  ++t.other;
}

/// Exact percentile (nearest-rank) over the collected samples.
double pct(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

void print_latency_row(const char* label, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  std::printf("  %-10s p50 %9.3f  p90 %9.3f  p99 %9.3f  max %9.3f  (ms)\n", label,
              pct(samples, 0.50), pct(samples, 0.90), pct(samples, 0.99),
              samples.empty() ? 0.0 : samples.back());
}

void report(const Tally& t) {
  if (t.requests != 0) {
    std::printf("== requests (%zu) ==\n", t.requests);
    for (const auto& [name, count] : t.outcomes) {
      std::printf("  %-20s %8zu\n", name.c_str(), count);
    }
    bool ladder_shown = false;
    for (const auto& [name, count] : t.ladders) {
      if (name == "primary" || name == "?") continue;
      if (!ladder_shown) std::printf("  ladder:\n");
      ladder_shown = true;
      std::printf("    %-18s %8zu\n", name.c_str(), count);
    }
    std::printf("  cache: %zu hits / %zu misses\n", t.cache_hits, t.requests - t.cache_hits);
    print_latency_row("solve_ms", t.solve_ms);
    print_latency_row("wait_ms", t.wait_ms);
  }
  if (t.repair.records != 0) {
    std::printf("== repairs (%zu of the requests) ==\n", t.repair.records);
    std::printf("  repaired in place %zu, fell to full replan %zu\n", t.repair.repaired,
                t.repair.records - t.repair.repaired - t.repair.preflight_rejected);
    if (t.repair.preflight_rejected != 0) {
      std::printf("  pre-flight rejected %zu (unsurvivable drift, no search run)\n",
                  t.repair.preflight_rejected);
    }
    std::printf("  churn: %" PRIu64 " migrations, %" PRIu64 " reconnects, %" PRIu64
                " disruption\n",
                t.repair.migrations, t.repair.reconnects, t.repair.disruption);
    print_latency_row("repaired", t.repair.repaired_ms);
    print_latency_row("replanned", t.repair.replanned_ms);
  }
  if (t.access.records != 0) {
    std::printf("== daemon access log (%zu requests, %zu sessions) ==\n",
                t.access.records, t.access.per_session.size());
    for (const auto& [name, count] : t.access.outcomes) {
      std::printf("  %-20s %8zu\n", name.c_str(), count);
    }
    std::size_t busiest = 0;
    for (const auto& [id, count] : t.access.per_session) {
      busiest = std::max(busiest, count);
    }
    std::printf("  busiest session: %zu requests; %" PRIu64 " response bytes total\n",
                busiest, t.access.bytes);
    print_latency_row("solve_ms", t.access.solve_ms);
    print_latency_row("wait_ms", t.access.wait_ms);
  }
  if (t.netload.seen) {
    std::printf("== netload ==\n");
    std::printf("  wire    %9.1f req/s  p50 %9.3f  p90 %9.3f  p99 %9.3f  (%" PRIu64
                " requests, %" PRIu64 " lost)\n",
                t.netload.rps, t.netload.p50, t.netload.p90, t.netload.p99,
                t.netload.requests, t.netload.lost);
    if (t.netload_direct.seen) {
      std::printf("  direct  %9.1f req/s\n", t.netload_direct.rps);
      if (t.netload_direct.rps > 0.0) {
        std::printf("  wire/direct ratio %.3f\n", t.netload.rps / t.netload_direct.rps);
      }
    }
  }
  if (t.driftload.seen) {
    std::printf("== driftload ==\n");
    std::printf("  repair p50 %9.3f ms vs replan p50 %9.3f ms (speedup %.2fx)\n",
                t.driftload.repair_p50, t.driftload.replan_p50, t.driftload.speedup);
  }
  if (!t.series.empty()) {
    std::printf("== metrics (last of %zu snapshot%s, %zu series) ==\n", t.snapshots_seen,
                t.snapshots_seen == 1 ? "" : "s", t.series.size());
    for (const auto& [key, sv] : t.series) {
      if (sv.type == "histogram") {
        std::printf("  %-46s count %8" PRIu64 "  p50 %9.3f  p90 %9.3f  p99 %9.3f\n",
                    key.c_str(), sv.count, sv.p50, sv.p90, sv.p99);
      } else {
        std::printf("  %-46s %14.0f\n", key.c_str(), sv.value);
      }
    }
  }
  if (!t.benches.empty()) {
    std::printf("== bench records ==\n");
    for (const auto& [name, count] : t.benches) {
      std::printf("  %-32s %8zu\n", name.c_str(), count);
    }
  }
  if (!t.flights.empty()) {
    std::printf("== flight recordings (%zu) ==\n", t.flights.size());
    for (const Tally::Flight& f : t.flights) {
      std::printf("  %-32s %-18s %" PRIu64 " samples (%" PRIu64 " recorded)\n", f.id.c_str(),
                  f.outcome.c_str(), f.samples, f.recorded);
    }
  }
  if (t.other != 0) std::printf("(%zu other NDJSON lines skipped)\n", t.other);
  if (t.requests == 0 && t.access.records == 0 && t.series.empty() &&
      t.benches.empty() && t.flights.empty()) {
    std::printf("no recognized records in %zu lines\n", t.lines);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::fprintf(stderr, "usage: %s [--strict] [file.ndjson ...]   (no files: read stdin)\n",
                   argv[0]);
      return 2;
    } else if (std::strcmp(argv[i], "-") != 0 && argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }

  Tally tally;
  std::string line;
  if (files.empty()) {
    while (std::getline(std::cin, line)) take_line(tally, line);
  } else {
    for (const char* path : files) {
      if (std::strcmp(path, "-") == 0) {
        while (std::getline(std::cin, line)) take_line(tally, line);
        continue;
      }
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", path);
        return 2;
      }
      while (std::getline(in, line)) take_line(tally, line);
    }
  }

  report(tally);
  if (tally.malformed != 0) {
    std::fprintf(stderr, "%zu malformed line%s\n", tally.malformed,
                 tally.malformed == 1 ? "" : "s");
    if (strict) return 2;
  }
  return 0;
}
