// PARDIS repository benchmark: the measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Runs one workload (workloads.cpp) in this process and prints the run
// context, every metric by name and unit, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 repeats the workload with the
// benchmark's own spans around every invocation, runs the layer probes
// (probes.cpp) and reports the per-layer metrics.  --trace-out writes the
// spans of a traced run as chrome://tracing JSON.  Exits 1 when any reply
// was wrong or any invocation failed, 2 on a usage error.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace perfbench;

/// Every library knob the workloads depend on, pinned so no inherited
/// PARDIS_* variable changes what is measured.  All other PARDIS_*
/// variables are removed before the first Orb exists.
const std::vector<std::pair<const char*, const char*>> kPinnedEnv = {
    {"PARDIS_TRANSPORT", "tcp"},
    {"PARDIS_TCP_BIND_ADDR", "127.0.0.1"},
    {"PARDIS_TCP_REACTORS", "4"},
    {"PARDIS_IO_ENGINE", "epoll"},
    {"PARDIS_TCP_CONNECT_TIMEOUT_MS", "10000"},
    // A lost reply surfaces as a failure instead of a hang.
    {"PARDIS_TCP_RECV_TIMEOUT_MS", "60000"},
    {"PARDIS_BIND_TIMEOUT_MS", "10000"},
    {"PARDIS_MAX_INFLIGHT", "32"},
    {"PARDIS_SERVER_CREDIT", "32"},
    {"PARDIS_SERVER_QUEUE", "64"},
    {"PARDIS_SERVER_WORKERS", "4"},
    {"PARDIS_TRANSPORT_POOL", "1"},
    {"PARDIS_CHAOS_KILL_EVERY", "0"},
    {"PARDIS_LOG", "warn"},
};

void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PARDIS_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                           : std::strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  for (const auto& [name, value] : kPinnedEnv) setenv(name, value, 1);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  if (spans.empty()) return;
  std::ofstream f(path);
  const Clock::time_point base = spans.front().start;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
      << ",\"ts\":" << number(us_between(base, s.start))
      << ",\"dur\":" << number(us_between(s.start, s.end)) << "}";
  }
  f << "\n]}\n";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string trace_out;
  bool have_workload = false;
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  pin_environment();

  WorkloadResult r;
  try {
    r = run_workload(opts);
    if (opts.trace) {
      SpanLog probe_spans(100);
      run_probes(r, probe_spans);
      r.spans.insert(r.spans.end(), probe_spans.spans().begin(),
                     probe_spans.spans().end());
      r.per_layer.push_back(
          {"trace.spans", static_cast<double>(r.spans.size()), "count"});
    }
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!trace_out.empty()) write_trace(trace_out, r.spans);

  std::printf("workload: %s (%s run, %.3g s, seed %llu)\n",
              opts.workload.c_str(), opts.trace ? "traced" : "untraced",
              opts.seconds, static_cast<unsigned long long>(opts.seed));
  std::printf("  nproc: %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("  L2 / L3 cache: %ld KiB / %ld KiB\n",
              sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024,
              sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024);
  std::printf("  transport: tcp on loopback 127.0.0.1, epoll\n");
  std::printf("  build: %s, lock-rank checks %s\n", PERFBENCH_BUILD_TYPE,
              PARDIS_LOCK_RANK_CHECKS ? "on" : "off");
  std::printf("  pinned:");
  for (const auto& [name, value] : kPinnedEnv) {
    std::printf(" %s=%s", name, value);
  }
  std::printf("\n");
  for (const auto& [key, value] : r.context) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  const std::vector<Metric>& metrics = opts.trace ? r.per_layer : r.end_to_end;
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, r.attempted));
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
