// The perfbench program.  Usually started through perfbench/run.py,
// which builds it first:
//
//   perfbench --workload <search|cp|wire|drift> --seed N --seconds S
//             --trace <0|1> --workdir DIR [--netd PATH]
//   perfbench --dump-inputs --workload W --seed N
//
// --trace 0 runs the closed loop and reports the end-to-end metrics;
// --trace 1 replays every request class through the layers' public calls
// and reports the per-layer metrics.  --dump-inputs prints the seeded
// request order (and drift's damage pool) for the determinism tests.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      opt.workload = value();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      opt.seconds = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = std::strcmp(value(), "0") != 0;
    } else if (std::strcmp(argv[i], "--workdir") == 0) {
      opt.workdir = value();
    } else if (std::strcmp(argv[i], "--netd") == 0) {
      opt.netd = value();
    } else if (std::strcmp(argv[i], "--dump-inputs") == 0) {
      dump = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (opt.workload.empty() || (!dump && opt.workdir.empty()) || opt.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 --workdir DIR"
                 " [--netd PATH]\n       perfbench --dump-inputs --workload W --seed N\n");
    return 2;
  }
  try {
    return dump ? perfbench::dump_inputs(opt.workload, opt.seed) : perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
