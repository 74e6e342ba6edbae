#include "measure.hpp"

#include <sched.h>

#include <cstdlib>
#include <fstream>

namespace perfbench {

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

double host_speed_ms() {
  const Clock::time_point t0 = Clock::now();
  // Each chain has its own shifts, which keeps the compiler from packing the
  // four into vector instructions.
  std::uint64_t a = 0x9e3779b97f4a7c15ULL, b = 1, c = 2, d = 3;
  for (int i = 0; i < 10'000'000; ++i) {
    a ^= a << 13, a ^= a >> 7, a ^= a << 17;
    b ^= b << 5, b ^= b >> 15, b ^= b << 27;
    c ^= c << 23, c ^= c >> 17, c ^= c << 26;
    d ^= d << 8, d ^= d >> 29, d ^= d << 19;
  }
  volatile std::uint64_t sink = a + b + c + d;
  (void)sink;
  return ms_between(t0, Clock::now());
}

}  // namespace perfbench
