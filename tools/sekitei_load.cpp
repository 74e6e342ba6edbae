// Open-loop load generator for the planning daemon (tools/sekitei_netd).
//
//   $ ./sekitei_load <domain.sk> <problem.sk>... --port N [--connections C]
//                    [--requests N] [--rate R] [--warmup K] [--deadline-ms D]
//                    [--seed S] [--retries N] [--retry-base-ms D]
//                    [--compare-direct] [--jobs N]
//
// Offered load is OPEN-LOOP: request arrival times are drawn up front from a
// Poisson process of `--rate` requests/second (seeded, so two identical
// invocations offer the identical schedule) and honored regardless of how
// fast responses come back — the generator measures the daemon, the daemon
// does not pace the generator.  Arrivals are split round-robin across
// `--connections` pipelined connections; responses correlate by request id,
// so out-of-order completion is expected and handled.
//
// The first `--warmup` requests prime the daemon's parse cache and the
// engine's compiled-problem cache and are excluded from the measurement
// window; latency percentiles (p50/p90/p99) come from the process-wide
// metrics histogram "netload.latency_ms".  Quota/admission rejections are
// retried with the shared deterministic jittered backoff (support/retry.hpp)
// up to `--retries` times.
//
// Output: one versioned bench record per run on stdout —
//
//   {"bench":"netload","v":1,...,"rps":...,"p50_ms":...,"p99_ms":...}
//
// (tools/perf_gate.py gates netload.rps against bench/baselines/). With
// --compare-direct the same batch is also run through an in-process
// PlanningEngine at `--jobs` workers, a "netload_direct" record is emitted,
// and the rps ratio (wire/direct) lands on stderr — the number the loopback
// acceptance bound (>= 0.8x) is checked against.
//
// Exit codes: 0 when every measured request was answered, 1 when any went
// unanswered (connection died), 2 on usage/input errors.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_json.hpp"
#include "server/client.hpp"
#include "service/engine.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/retry.hpp"
#include "support/rng.hpp"
#include "support/stop_token.hpp"

namespace {

using namespace sekitei;

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) raise(std::string("cannot open ") + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Config {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  std::size_t requests = 200;
  double rate = 100.0;  // offered requests/second across all connections
  std::size_t warmup = 20;
  double deadline_ms = 0.0;
  std::uint64_t seed = 0x10adULL;
  std::size_t retries = 3;
  double retry_base_ms = 5.0;
  bool compare_direct = false;
  std::size_t jobs = 0;
  double recv_grace_ms = 30000.0;  // give up on a silent daemon eventually
};

struct Planned {
  std::size_t global_idx;  // < warmup => excluded from the measurement
  std::size_t file_idx;
  std::int64_t due_ns;  // absolute arrival time (offset from run start)
};

struct Shared {
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> measured{0};
  std::atomic<std::uint64_t> solved{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> other{0};
  std::atomic<std::uint64_t> retried{0};
  std::atomic<std::uint64_t> lost{0};
  // Measurement window endpoints (epoch ns; min/max folded in by CAS).
  std::atomic<std::int64_t> window_begin{0};
  std::atomic<std::int64_t> window_end{0};
};

void fold_min(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while ((cur == 0 || v < cur) &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void fold_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Extracts the string value of `key` from a response record.  The response
/// schema is flat and our writer escapes quotes, so a plain scan suffices
/// for the two keys the generator needs (id + outcome).
std::string json_field(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t from = at + needle.size();
  std::string out;
  for (std::size_t i = from; i < body.size(); ++i) {
    if (body[i] == '\\' && i + 1 < body.size()) {
      out.push_back(body[++i]);
      continue;
    }
    if (body[i] == '"') break;
    out.push_back(body[i]);
  }
  return out;
}

struct InFlight {
  std::size_t global_idx;
  std::size_t file_idx;
  std::int64_t sent_ns;
  std::uint32_t attempts;
};

void run_connection(const Config& cfg, std::size_t conn_idx,
                    std::vector<Planned> schedule,
                    const std::vector<std::string>& problem_texts,
                    std::int64_t start_ns, Shared& shared,
                    metrics::Histogram& latency_hist) {
  try {
    server::FrameClient client(cfg.port);
    Backoff backoff({.base_ms = cfg.retry_base_ms},
                    Backoff::kDefaultSeed + conn_idx);
    std::unordered_map<std::string, InFlight> inflight;
    struct Retry {
      std::int64_t due_ns;
      std::string id;
      service::wire::WireRequest req;
      InFlight meta;
    };
    std::vector<Retry> retries;
    std::size_t next = 0;  // schedule cursor

    auto send_one = [&](const std::string& id,
                        service::wire::WireRequest&& req, InFlight meta) {
      meta.sent_ns = StopSource::now_epoch_ns();
      if (meta.global_idx >= cfg.warmup) {
        fold_min(shared.window_begin, meta.sent_ns);
      }
      inflight[id] = meta;
      return client.send(req);
    };

    auto make_request = [&](const std::string& id, std::size_t file_idx) {
      service::wire::WireRequest req;
      req.op = service::wire::WireRequest::Op::Plan;
      req.id = id;
      req.problem_text = problem_texts[file_idx];
      req.deadline_ms = cfg.deadline_ms;
      return req;
    };

    const std::int64_t grace_ns =
        static_cast<std::int64_t>(cfg.recv_grace_ms * 1e6);
    std::int64_t last_progress = StopSource::now_epoch_ns();

    while (!inflight.empty() || next < schedule.size() || !retries.empty()) {
      const std::int64_t now = StopSource::now_epoch_ns();

      // Honor the offered schedule first — open loop.
      if (next < schedule.size() && start_ns + schedule[next].due_ns <= now) {
        const Planned& p = schedule[next];
        // Built piecewise: GCC 12 raises a false -Wrestrict on operator+ here.
        std::string id = "c";
        id += std::to_string(conn_idx);
        id += '-';
        id += std::to_string(p.global_idx);
        if (!send_one(id, make_request(id, p.file_idx),
                      {p.global_idx, p.file_idx, 0, 1})) {
          break;  // peer gone; inflight accounting below
        }
        ++next;
        last_progress = now;
        continue;
      }
      if (!retries.empty()) {
        auto due = std::min_element(
            retries.begin(), retries.end(),
            [](const Retry& a, const Retry& b) { return a.due_ns < b.due_ns; });
        if (due->due_ns <= now) {
          Retry r = std::move(*due);
          retries.erase(due);
          if (!send_one(r.id, std::move(r.req), r.meta)) break;
          last_progress = now;
          continue;
        }
      }

      // Nothing due: wait for responses until the next event.
      double wait_ms = 50.0;
      if (next < schedule.size()) {
        wait_ms = std::min(
            wait_ms,
            static_cast<double>(start_ns + schedule[next].due_ns - now) / 1e6);
      }
      for (const Retry& r : retries) {
        wait_ms = std::min(wait_ms, static_cast<double>(r.due_ns - now) / 1e6);
      }
      wait_ms = std::max(wait_ms, 1.0);

      std::string body;
      const auto rs = client.recv_frame(body, wait_ms);
      if (rs == server::FrameClient::Recv::Closed ||
          rs == server::FrameClient::Recv::Error) {
        break;
      }
      if (rs == server::FrameClient::Recv::Timeout) {
        if (inflight.empty() && next >= schedule.size() && retries.empty()) break;
        if (StopSource::now_epoch_ns() - last_progress > grace_ns) break;
        continue;
      }
      last_progress = StopSource::now_epoch_ns();

      const std::string id = json_field(body, "request");
      const auto it = inflight.find(id);
      if (it == inflight.end()) continue;  // daemon notice (e.g. unframed reject)
      InFlight meta = it->second;
      inflight.erase(it);

      const std::string outcome = json_field(body, "outcome");
      const bool quota_reject =
          outcome == "rejected" &&
          body.find("quota exceeded") != std::string::npos;
      if (quota_reject && meta.attempts <= cfg.retries) {
        shared.retried.fetch_add(1, std::memory_order_relaxed);
        Retry r;
        r.id = id;
        r.req = make_request(id, meta.file_idx);
        r.meta = meta;
        r.meta.attempts = meta.attempts + 1;
        r.due_ns = StopSource::now_epoch_ns() +
                   static_cast<std::int64_t>(
                       backoff.next_delay_ms(meta.attempts - 1) * 1e6);
        retries.push_back(std::move(r));
        continue;
      }

      shared.answered.fetch_add(1, std::memory_order_relaxed);
      if (outcome == "solved") {
        shared.solved.fetch_add(1, std::memory_order_relaxed);
      } else if (outcome == "degraded") {
        shared.degraded.fetch_add(1, std::memory_order_relaxed);
      } else if (outcome == "rejected") {
        shared.rejected.fetch_add(1, std::memory_order_relaxed);
      } else {
        shared.other.fetch_add(1, std::memory_order_relaxed);
      }
      if (meta.global_idx >= cfg.warmup) {
        const std::int64_t done = StopSource::now_epoch_ns();
        latency_hist.observe(static_cast<double>(done - meta.sent_ns) / 1e6);
        fold_max(shared.window_end, done);
        shared.measured.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const std::uint64_t unanswered =
        inflight.size() + (schedule.size() - next) + retries.size();
    if (unanswered > 0) shared.lost.fetch_add(unanswered, std::memory_order_relaxed);
  } catch (const Error& e) {
    std::fprintf(stderr, "sekitei_load: connection %zu: %s\n", conn_idx, e.what());
    shared.lost.fetch_add(schedule.size(), std::memory_order_relaxed);
  }
}

/// The same batch, straight into an in-process engine — the "what does the
/// wire cost" yardstick the acceptance bound compares against.
double run_direct(const Config& cfg, const std::string& domain_text,
                  const std::vector<std::string>& problem_texts) {
  service::PlanningEngine::Options opts;
  opts.workers = cfg.jobs;
  service::PlanningEngine engine(opts);

  std::vector<std::shared_ptr<const model::LoadedProblem>> problems;
  problems.reserve(problem_texts.size());
  for (const std::string& text : problem_texts) {
    problems.push_back(model::load_problem(domain_text, text));
  }

  auto submit_batch = [&](std::size_t count, std::size_t offset) {
    std::vector<service::PlanningEngine::Ticket> tickets;
    tickets.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      service::PlanRequest req;
      req.id = "direct-" + std::to_string(offset + i);
      req.problem = problems[(offset + i) % problems.size()];
      req.deadline_ms = cfg.deadline_ms;
      tickets.push_back(engine.submit(std::move(req)));
    }
    for (auto& t : tickets) (void)t.response.get();
  };

  submit_batch(cfg.warmup, 0);  // same cache-priming the daemon run got
  const std::size_t measured = cfg.requests - cfg.warmup;
  const std::int64_t begin = StopSource::now_epoch_ns();
  submit_batch(measured, cfg.warmup);
  const std::int64_t end = StopSource::now_epoch_ns();
  const double secs = static_cast<double>(end - begin) / 1e9;
  return secs > 0.0 ? static_cast<double>(measured) / secs : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  const char* domain_path = nullptr;
  std::vector<const char*> files;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      cfg.port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      cfg.connections = std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      cfg.requests = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      cfg.rate = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      cfg.warmup = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      cfg.deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      cfg.retries = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--retry-base-ms") == 0 && i + 1 < argc) {
      cfg.retry_base_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--compare-direct") == 0) {
      cfg.compare_direct = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      cfg.jobs = std::strtoul(argv[++i], nullptr, 10);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    } else if (domain_path == nullptr) {
      domain_path = argv[i];
    } else {
      files.push_back(argv[i]);
    }
  }
  if (domain_path == nullptr || files.empty() || cfg.port == 0) {
    std::fprintf(stderr,
                 "usage: %s <domain.sk> <problem.sk>... --port N [--connections C]\n"
                 "          [--requests N] [--rate R] [--warmup K] [--deadline-ms D]\n"
                 "          [--seed S] [--retries N] [--retry-base-ms D]\n"
                 "          [--compare-direct] [--jobs N]\n",
                 argv[0]);
    return 2;
  }
  if (cfg.requests <= cfg.warmup) {
    std::fprintf(stderr, "error: --requests must exceed --warmup\n");
    return 2;
  }
  // The arrival gap -log(1-u)/rate is inf or NaN unless rate is positive.
  if (!(cfg.rate > 0.0) || !std::isfinite(cfg.rate)) {
    std::fprintf(stderr, "error: --rate must be a positive finite number\n");
    return 2;
  }

  try {
    const std::string domain_text = slurp(domain_path);
    std::vector<std::string> problem_texts;
    problem_texts.reserve(files.size());
    for (const char* path : files) problem_texts.push_back(slurp(path));

    // The full Poisson arrival schedule, drawn up front from one seeded
    // stream and dealt round-robin: deterministic offered load.
    SplitMix64 rng(cfg.seed);
    std::vector<std::vector<Planned>> per_conn(cfg.connections);
    double clock_ns = 0.0;
    for (std::size_t i = 0; i < cfg.requests; ++i) {
      const double u = rng.uniform(0.0, 1.0);
      clock_ns += -std::log(1.0 - u) / cfg.rate * 1e9;
      per_conn[i % cfg.connections].push_back(
          {i, i % problem_texts.size(), static_cast<std::int64_t>(clock_ns)});
    }

    Shared shared;
    auto& latency_hist = metrics::registry().histogram("netload.latency_ms");
    const std::int64_t start_ns = StopSource::now_epoch_ns();
    std::vector<std::thread> threads;
    threads.reserve(cfg.connections);
    for (std::size_t c = 0; c < cfg.connections; ++c) {
      threads.emplace_back([&, c] {
        run_connection(cfg, c, std::move(per_conn[c]), problem_texts, start_ns,
                       shared, latency_hist);
      });
    }
    for (auto& t : threads) t.join();

    const std::uint64_t measured = shared.measured.load();
    const std::int64_t begin = shared.window_begin.load();
    const std::int64_t end = shared.window_end.load();
    const double window_s =
        (begin != 0 && end > begin) ? static_cast<double>(end - begin) / 1e9 : 0.0;
    const double rps = window_s > 0.0 ? static_cast<double>(measured) / window_s : 0.0;
    const double p50 = latency_hist.quantile(0.50);
    const double p90 = latency_hist.quantile(0.90);
    const double p99 = latency_hist.quantile(0.99);

    benchjson::emit(
        "netload",
        {benchjson::kv("connections", static_cast<std::uint64_t>(cfg.connections)),
         benchjson::kv("requests", static_cast<std::uint64_t>(cfg.requests)),
         benchjson::kv("warmup", static_cast<std::uint64_t>(cfg.warmup)),
         benchjson::kv("rate", cfg.rate),
         benchjson::kv("rps", rps),
         benchjson::kv("p50_ms", p50),
         benchjson::kv("p90_ms", p90),
         benchjson::kv("p99_ms", p99),
         benchjson::kv("solved", shared.solved.load()),
         benchjson::kv("degraded", shared.degraded.load()),
         benchjson::kv("rejected", shared.rejected.load()),
         benchjson::kv("other", shared.other.load()),
         benchjson::kv("retried", shared.retried.load()),
         benchjson::kv("lost", shared.lost.load())},
        nullptr);

    std::fprintf(stderr,
                 "sekitei_load: %llu answered (%llu measured) at %.1f req/s; "
                 "p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; %llu lost\n",
                 static_cast<unsigned long long>(shared.answered.load()),
                 static_cast<unsigned long long>(measured), rps, p50, p90, p99,
                 static_cast<unsigned long long>(shared.lost.load()));

    if (cfg.compare_direct) {
      const double direct_rps = run_direct(cfg, domain_text, problem_texts);
      benchjson::emit("netload_direct",
                      {benchjson::kv("jobs", static_cast<std::uint64_t>(cfg.jobs)),
                       benchjson::kv("rps", direct_rps)},
                      nullptr);
      const double ratio = direct_rps > 0.0 ? rps / direct_rps : 0.0;
      std::fprintf(stderr, "sekitei_load: wire/direct rps ratio %.3f (%.1f / %.1f)\n",
                   ratio, rps, direct_rps);
    }

    return shared.lost.load() == 0 ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
