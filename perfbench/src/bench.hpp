// Shared types of the benchmark program: run options, reported metrics, the
// in-memory span recorder of traced runs, and the workload/probe entry
// points (workloads.cpp, probes.cpp).

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed interval recorded by the benchmark itself (traced runs only).
/// `tid` is the client rank, or 0 for single-threaded probes.
struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t tid = 0;
};

/// Spans of one thread, appended without locking; merged after the run.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid = 0) : tid_(tid) {}
  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(const char* name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, start, end, tid_});
  }
  std::vector<Span>& spans() noexcept { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Run-context lines ("key: value") printed before the result.
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<Span> spans;
};

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
WorkloadResult run_workload(const RunOptions& opts);

/// Standalone layer probes (rts, cdr, orb, dseq, transport); traced runs
/// append their metrics and spans to `out`.
void run_probes(WorkloadResult& out, SpanLog& spans);

}  // namespace perfbench
