// The benchmark's workloads.  Every one runs in this process over the tcp
// backend on loopback, closed loop, and verifies every reply against values
// derived from the seed (NOTES.md explains the choice of each):
//
//   spmd_small        K=2 -> P=2 collective invocations, one inout
//                     dsequence<double> of 16 elements, methods alternating
//                     centralized / multi-port in a seeded order;
//   bulk_centralized  K=2 -> P=2, one in dsequence<double> of 2^20 elements
//   bulk_multiport    (8 MiB) per call, one transfer method each (Figure 4);
//   pipelined_echo    one DirectBinding client keeping 32 tiny `ping`
//                     requests in flight through invoke_nb against P=1.
//
// Measurement stays off the invocation path: no reduce_stats, no library
// tracer, per-rank samples kept in memory and merged after the run.

#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "pardis/dseq/dsequence.hpp"
#include "pardis/rts/collectives.hpp"
#include "pardis/sim/scenario.hpp"
#include "pardis/transfer/dseq_arg.hpp"
#include "pardis/transfer/spmd_client.hpp"
#include "pardis/transfer/spmd_server.hpp"
#include "pardis/transport/tcp_transport.hpp"
#include "sampling.hpp"

namespace perfbench {

namespace {

namespace pc = pardis::cdr;
namespace po = pardis::orb;
namespace pt = pardis::transfer;

constexpr const char* kObject = "perfbench";
constexpr const char* kType = "IDL:perfbench/target:1.0";
constexpr const char* kClientHost = "bench-client";
constexpr const char* kServerHost = "bench-server";

/// SPMD team shape: the smallest with both a client gather and a server
/// scatter (4 computing threads on a 4-core host).
constexpr int kClientRanks = 2;
constexpr int kServerRanks = 2;
constexpr std::uint64_t kSmallLength = 16;
constexpr std::uint64_t kBulkLength = 1u << 20;
/// pipelined_echo window; main.cpp pins the matching server credit.
constexpr std::uint32_t kEchoWindow = 32;

/// An untraced run splits its --seconds over this many measured sessions,
/// each a fresh scenario with fresh threads, and reports the median
/// session, so one session disturbed by the shared host (or by where the
/// scheduler placed its threads) does not set the run's figure.
constexpr int kMeasuredSessions = 5;
/// setup_s is the median of this many set-ups per run, the measured
/// sessions' own included.
constexpr int kSetupSamples = 31;
/// Untimed warm-up before the first measured window of a run (a run that
/// follows idle time otherwise reads up to 30% fast), and before each
/// later session's window.
constexpr double kWarmupSeconds = 3.0;
constexpr double kSessionWarmupSeconds = 0.5;

/// splitmix64 finalizer: the benchmark's only source of input values.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Independent input stream `stream` of the run's seed, indexed by `i`.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return mix(mix(seed * 0x100000001b3ull + stream) + i);
}

enum Stream : std::uint64_t {
  kMethodOrder = 1,
  kEchoScalar,
  kInitialValue,
  kBulkIndex,
  kBulkValue,
  kPingValue,
};

/// Weight of global index g in the bulk checksum; positional, so a
/// misplaced segment changes the sum.  Values stay integers below 2^53.
double weight(std::uint64_t g) { return static_cast<double>(g % 251 + 1); }

double initial_value(std::uint64_t seed, std::uint64_t g) {
  return static_cast<double>(draw(seed, kInitialValue, g) % 1001);
}

/// Fixed-capacity sample store, touched up front so the samples a run keeps
/// do not grow its resident set with throughput (peak_rss_mb measures the
/// library, not the benchmark's sample count).
template <typename T>
class FixedLog {
 public:
  explicit FixedLog(std::size_t capacity) : data_(capacity) {}
  void push(const T& v) {
    if (size_ < data_.size()) {
      data_[size_++] = v;
    } else {
      ++dropped_;
    }
  }
  void clear() { size_ = 0; }
  std::size_t size() const noexcept { return size_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::vector<T> data_;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The target object.  Stateless: the pipelined worker pool may dispatch
/// `ping` concurrently.
class TargetServant : public pt::SpmdServant {
 public:
  const char* type_id() const override { return kType; }
  void dispatch(pt::ServerCall& call) override {
    auto args = call.args();
    if (call.operation() == "ping") {
      call.results().put_long(args.get_long());
      return;
    }
    if (call.operation() == "echo") {
      // inout x -> c - x; the scalar result returns c.
      const double c = args.get_double();
      auto seq = call.take_dseq<double>(0);
      for (std::uint64_t i = 0; i < seq.local_length(); ++i) {
        seq.local_data()[i] = c - seq.local_data()[i];
      }
      call.put_dseq(0, seq);
      call.results().put_double(c);
      return;
    }
    if (call.operation() == "consume") {
      // Positional checksum of the whole sequence (an application-level
      // allreduce, as a real consumer of the data would run).
      auto seq = call.take_dseq<double>(0);
      const std::uint64_t first = seq.distribution().offset(call.comm().rank());
      double local = 0.0;
      for (std::uint64_t i = 0; i < seq.local_length(); ++i) {
        local += seq.local_data()[i] * weight(first + i);
      }
      call.results().put_double(
          pardis::rts::allreduce_value(call.comm(), local));
      return;
    }
    throw pardis::BAD_OPERATION(call.operation());
  }
};

/// Orb-wide counters read at window boundaries (per-layer deltas).
struct OrbSnapshot {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t rejects = 0;
  pardis::RunningStat iovecs;
  pardis::RunningStat queue_wait_us;
  pardis::RunningStat exec_us;
  pardis::RunningStat credit_wait_us;
  pardis::RunningStat wire_us;

  static OrbSnapshot take(po::Orb& orb) {
    auto& m = orb.metrics();
    OrbSnapshot s;
    s.frames = m.counter("net.frames").value();
    s.bytes = m.counter("net.bytes").value();
    s.wakeups = m.counter("tcp.reactor.wakeups").value();
    s.rejects = m.counter("server.pipeline.rejects").value();
    s.iovecs = m.histogram("tcp.writev.iovecs").snapshot();
    s.queue_wait_us = m.histogram("server.pipeline.queue_wait_us").snapshot();
    s.exec_us = m.histogram("server.pipeline.exec_us").snapshot();
    s.credit_wait_us =
        m.histogram("client.pipeline.credit_wait_us").snapshot();
    s.wire_us = m.histogram("client.pipeline.wire_us").snapshot();
    return s;
  }
};

double delta_mean(const pardis::RunningStat& a, const pardis::RunningStat& b) {
  return window_mean(a.count(), a.mean(), b.count(), b.mean());
}

/// One timed window of a session.  The warm-up window runs the same loop
/// and records nothing.
struct Window {
  bool warmup = false;
  bool traced = false;
  double seconds = 0.0;
  std::uint64_t ops = 0;
  double elapsed_s = 0.0;
  OrbSnapshot before;
  OrbSnapshot after;

  double rate() const { return ratio(static_cast<double>(ops), elapsed_s); }
};

/// Length of one untraced timed window: a share of --seconds in untraced
/// runs, half of it in traced runs (which measure one session).
double window_seconds(const RunOptions& opts) {
  return opts.trace ? opts.seconds / 2 : opts.seconds / kMeasuredSessions;
}

/// Windows of one measured session: a warm-up, then one untraced window,
/// or (traced runs) an untraced half for the overhead baseline and a traced
/// half.  windows[1] is always untraced.
std::vector<Window> plan_windows(const RunOptions& opts, bool first_session) {
  auto window = [](bool warmup, bool traced, double seconds) {
    Window w;
    w.warmup = warmup;
    w.traced = traced;
    w.seconds = seconds;
    return w;
  };
  std::vector<Window> plan = {
      window(true, false,
             first_session ? kWarmupSeconds : kSessionWarmupSeconds),
      window(false, false, window_seconds(opts))};
  if (opts.trace) plan.push_back(window(false, true, window_seconds(opts)));
  return plan;
}

/// Per-layer numbers of the transfer/transport/io layers; every workload
/// reports every name (0 where a path is not on the workload).
struct LayerNumbers {
  double gather_us = 0, pack_us = 0, send_us = 0, recv_us = 0;
  double scatter_us = 0, server_unpack_us = 0, server_barrier_us = 0;
  double unattributed_us = 0;
  double centralized_p50_us = 0, multiport_p50_us = 0;
  double queue_wait_us = 0, exec_us = 0, credit_wait_us = 0, wire_us = 0;
  double rejects = 0;
  double frames_per_op = 0, bytes_per_payload_byte = 0;
  double wakeups_per_op = 0, iovecs_mean = 0;
  double untraced_ops_per_s = 0, traced_ops_per_s = 0;
};

void append_layer_metrics(WorkloadResult& r, const LayerNumbers& n) {
  auto add = [&](const char* name, double v, const char* unit) {
    r.per_layer.push_back({name, v, unit});
  };
  add("transfer.client.gather_us", n.gather_us, "us");
  add("transfer.client.pack_us", n.pack_us, "us");
  add("transfer.client.send_us", n.send_us, "us");
  add("transfer.client.recv_us", n.recv_us, "us");
  add("transfer.server.scatter_us", n.scatter_us, "us");
  add("transfer.server.unpack_us", n.server_unpack_us, "us");
  add("transfer.server.barrier_us", n.server_barrier_us, "us");
  add("transfer.unattributed_us", n.unattributed_us, "us");
  add("transfer.centralized_p50_us", n.centralized_p50_us, "us");
  add("transfer.multiport_p50_us", n.multiport_p50_us, "us");
  add("transfer.pipeline.queue_wait_us", n.queue_wait_us, "us");
  add("transfer.pipeline.exec_us", n.exec_us, "us");
  add("transfer.pipeline.credit_wait_us", n.credit_wait_us, "us");
  add("transfer.pipeline.wire_us", n.wire_us, "us");
  add("transfer.pipeline.rejects", n.rejects, "count");
  add("transport.frames_per_op", n.frames_per_op, "count");
  add("transport.bytes_per_payload_byte", n.bytes_per_payload_byte, "ratio");
  add("io.reactor_wakeups_per_op", n.wakeups_per_op, "count");
  add("io.writev_iovecs_mean", n.iovecs_mean, "count");
  add("trace.untraced_ops_per_s", n.untraced_ops_per_s, "1/s");
  add("trace.traced_ops_per_s", n.traced_ops_per_s, "1/s");
  add("trace.overhead_pct",
      n.untraced_ops_per_s > 0
          ? (n.untraced_ops_per_s - n.traced_ops_per_s) /
                n.untraced_ops_per_s * 100.0
          : 0.0,
      "%");
}

/// One size field of /proc/self/status ("VmRSS:", "VmHWM:") in MiB.  Not
/// ru_maxrss: Linux carries that across exec, so it would report the
/// launching Python process whenever that was larger than the benchmark.
double status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::stod(line.substr(n)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Resets the kernel's peak resident mark (VmHWM) to the current resident
/// set, so that a later VmHWM covers only what ran after this call.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// End-to-end numbers of one measured session's timed window.
struct SessionNumbers {
  double ops_per_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

/// What both workload kinds share: the session schedule, failure counts and
/// the assembly of the result.  A subclass supplies the scenario shape, the
/// client body and its per-layer numbers.
class WorkloadRun {
 public:
  WorkloadRun(const RunOptions& opts, int client_ranks, int server_ranks,
              double payload_bytes_per_op, double max_ops_per_s)
      : opts_(opts),
        client_ranks_(client_ranks),
        server_ranks_(server_ranks),
        payload_bytes_(payload_bytes_per_op),
        latency_us_(static_cast<std::size_t>(max_ops_per_s *
                                             window_seconds(opts)) +
                    1024) {}
  virtual ~WorkloadRun() = default;
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  WorkloadResult run() {
    // peak_rss_mb counts what the scenarios add: the program image and the
    // benchmark's own buffers (seeded inputs, latency log) are resident by
    // now and form the baseline.
    reset_peak_rss();
    const double rss_baseline_mb = status_mb("VmRSS:");
    const int measured = opts_.trace ? 1 : kMeasuredSessions;
    std::vector<double> setup_s;
    // Set-up-only sessions feed setup_s, which traced runs do not report.
    for (int i = measured; !opts_.trace && i < kSetupSamples; ++i) {
      setup_s.push_back(session(/*measure=*/false));
    }
    std::vector<SessionNumbers> sessions;
    for (int i = 0; i < measured; ++i) {
      windows_ = plan_windows(opts_, i == 0);
      latency_us_.clear();
      setup_s.push_back(session(/*measure=*/true));
      sessions.push_back(session_numbers());
    }

    WorkloadResult r;
    r.attempted = attempted_.load();
    r.failed = std::min(
        r.attempted,
        failed_.load() + static_cast<std::uint64_t>(mismatched_.size()));
    r.correct = r.failed == 0 && !fatal_;
    if (!opts_.trace) {
      add_end_to_end(r, setup_s, sessions, rss_baseline_mb);
    } else {
      append_layer_metrics(r, layer_numbers());
      r.spans = take_spans();
    }
    describe(r);
    r.context.emplace_back("reactor shards", reactors_);
    std::string rates;
    for (const SessionNumbers& s : sessions) {
      rates += (rates.empty() ? "" : ", ") + std::to_string(s.ops_per_s);
    }
    r.context.emplace_back(
        "ops/s of each " + std::to_string(window_seconds(opts_)) +
            " s session window",
        rates);
    if (latency_us_.dropped() != 0) {
      r.context.emplace_back("latency samples dropped (log full)",
                             std::to_string(latency_us_.dropped()));
    }
    if (!error_.empty()) r.context.emplace_back("error", error_);
    return r;
  }

 protected:
  /// Runs on the client ranks: bind, one verified invocation (then sets
  /// `first_done` on rank 0), and when `measure` the timed windows_.
  virtual void client(po::Orb& orb, pardis::rts::Communicator& comm,
                      bool measure, Clock::time_point& first_done) = 0;
  /// Per-layer numbers of the (single) traced session.
  virtual LayerNumbers layer_numbers() const = 0;
  virtual std::vector<Span> take_spans() = 0;
  /// Adds the workload's shape to the run context.
  virtual void describe(WorkloadResult& r) const = 0;

  /// Records a wrong reply to invocation `call` of the current session.
  /// Every client rank checks its part of an SPMD reply; the invocation
  /// counts once however many ranks saw it wrong.
  void mismatch(std::uint64_t call) {
    std::lock_guard<std::mutex> lock(mismatch_mu_);
    mismatched_.emplace(session_, call);
  }

  /// Transport-level deltas over the traced window, and the tracing
  /// overhead.
  LayerNumbers wire_numbers() const {
    const Window& w = windows_.back();
    LayerNumbers n;
    const double ops = static_cast<double>(w.ops);
    n.frames_per_op =
        ratio(static_cast<double>(w.after.frames - w.before.frames), ops);
    n.bytes_per_payload_byte =
        ratio(static_cast<double>(w.after.bytes - w.before.bytes),
              ops * payload_bytes_);
    n.wakeups_per_op =
        ratio(static_cast<double>(w.after.wakeups - w.before.wakeups), ops);
    n.iovecs_mean = delta_mean(w.before.iovecs, w.after.iovecs);
    n.queue_wait_us =
        delta_mean(w.before.queue_wait_us, w.after.queue_wait_us);
    n.exec_us = delta_mean(w.before.exec_us, w.after.exec_us);
    n.credit_wait_us =
        delta_mean(w.before.credit_wait_us, w.after.credit_wait_us);
    n.wire_us = delta_mean(w.before.wire_us, w.after.wire_us);
    n.rejects = static_cast<double>(w.after.rejects - w.before.rejects);
    n.untraced_ops_per_s = windows_[1].rate();
    n.traced_ops_per_s = windows_.back().rate();
    return n;
  }

  const RunOptions& opts_;
  const int client_ranks_;
  const int server_ranks_;
  const double payload_bytes_;
  /// Windows of the current (last) measured session.
  std::vector<Window> windows_;
  /// Untraced-window latencies of the current session (client rank 0).
  FixedLog<float> latency_us_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};

 private:
  /// One scenario: set up, first invocation, then (measured sessions) the
  /// windows.  Returns the set-up time.
  double session(bool measure) {
    ++session_;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point first_done{};
    pardis::sim::ScenarioConfig scfg;
    scfg.client = {kClientHost, client_ranks_};
    scfg.server = {kServerHost, server_ranks_};
    scfg.orb.transport = pardis::transport::Kind::kTcp;
    pardis::sim::Scenario scenario(scfg);
    auto* tcp = dynamic_cast<pardis::transport::TcpTransport*>(
        &scenario.orb().transport());
    reactors_ = tcp != nullptr ? std::to_string(tcp->reactor_shards()) : "n/a";
    try {
      scenario.run(
          [&](pardis::rts::Communicator& comm) {
            pt::SpmdServer server(scenario.orb(), comm, kServerHost);
            TargetServant servant;
            server.activate(kObject, servant);
            server.serve();
          },
          [&](pardis::rts::Communicator& comm) {
            client(scenario.orb(), comm, measure, first_done);
          },
          kObject);
    } catch (const std::exception& e) {
      fatal_ = true;
      error_ = e.what();
    }
    return seconds_between(t0, first_done);
  }

  SessionNumbers session_numbers() const {
    std::vector<double> lat(latency_us_.size());
    for (std::size_t i = 0; i < lat.size(); ++i) lat[i] = latency_us_[i];
    std::sort(lat.begin(), lat.end());
    return {windows_[1].rate(), quantile_sorted(lat, 0.5),
            quantile_sorted(lat, 0.9), quantile_sorted(lat, 0.99)};
  }

  void add_end_to_end(WorkloadResult& r, const std::vector<double>& setup_s,
                      const std::vector<SessionNumbers>& sessions,
                      double rss_baseline_mb) const {
    std::vector<double> ops, p50, p90, p99;
    for (const SessionNumbers& s : sessions) {
      ops.push_back(s.ops_per_s);
      p50.push_back(s.p50_us);
      p90.push_back(s.p90_us);
      p99.push_back(s.p99_us);
    }
    const double rate = median(ops);
    r.end_to_end = {
        {"setup_s", median(setup_s), "s"},
        {"ops_per_s", rate, "1/s"},
        {"latency_p50_us", median(p50), "us"},
        {"mb_per_s", mb_per_s(rate * payload_bytes_, 1.0), "MB/s"},
        {"peak_rss_mb", status_mb("VmHWM:") - rss_baseline_mb, "MB"},
    };
    // The tails are printed but not gated: on the bulk workloads p99
    // spreads 30-50% from run to run, and the median p90 of two sets of
    // runs drifted apart by more than any bound the gate allows.
    r.context.emplace_back("latency p90 / p99 (median session, not gated)",
                           std::to_string(median(p90)) + " / " +
                               std::to_string(median(p99)) + " us");
  }

  bool fatal_ = false;
  std::string error_;
  std::string reactors_;
  int session_ = 0;
  std::mutex mismatch_mu_;
  /// (session, invocation) of every wrong reply.
  std::set<std::pair<int, std::uint64_t>> mismatched_;
};

// ---- SPMD workloads --------------------------------------------------------

enum class MethodMode { kAlternate, kCentralized, kMultiPort };

struct SpmdSpec {
  std::uint64_t length = 0;
  po::ArgDir dir = po::ArgDir::kIn;
  MethodMode mode = MethodMode::kAlternate;
  /// Invocations per second the latency log must hold.
  double max_ops_per_s = 0;
};

/// What one client rank records in the traced window.
struct RankTrace {
  std::vector<std::array<double, pardis::kPhaseCount>> client_ms;
  SpanLog spans;
};

class SpmdRun final : public WorkloadRun {
 public:
  SpmdRun(const RunOptions& opts, SpmdSpec spec)
      : WorkloadRun(opts, kClientRanks, kServerRanks,
                    static_cast<double>(spec.length * sizeof(double)) *
                        (spec.dir == po::ArgDir::kInOut ? 2.0 : 1.0),
                    spec.max_ops_per_s),
        spec_(spec) {
    // Inputs are generated once per run, outside every set-up and window.
    initial_.resize(spec_.length);
    for (std::uint64_t g = 0; g < spec_.length; ++g) {
      initial_[g] = initial_value(opts_.seed, g);
      initial_sum_ += initial_[g] * weight(g);
    }
    for (int r = 0; r < kClientRanks; ++r) {
      traces_.push_back(RankTrace{{}, SpanLog(static_cast<std::uint32_t>(r))});
    }
  }

 private:
  void describe(WorkloadResult& r) const override {
    r.context.emplace_back("client ranks K / server ranks P",
                           std::to_string(kClientRanks) + " / " +
                               std::to_string(kServerRanks));
    r.context.emplace_back(
        "sequence", std::to_string(spec_.length) + " doubles (" +
                        std::to_string(spec_.length * sizeof(double)) +
                        " bytes), " +
                        (spec_.dir == po::ArgDir::kInOut ? "inout" : "in"));
  }

  std::vector<Span> take_spans() override {
    std::vector<Span> out;
    for (RankTrace& t : traces_) {
      out.insert(out.end(), t.spans.spans().begin(), t.spans.spans().end());
    }
    return out;
  }

  po::TransferMethod method_of(std::uint64_t call) const {
    switch (spec_.mode) {
      case MethodMode::kCentralized:
        return po::TransferMethod::kCentralized;
      case MethodMode::kMultiPort:
        return po::TransferMethod::kMultiPort;
      case MethodMode::kAlternate:
        break;
    }
    // Each pair of calls runs both methods, in a seeded order.
    const bool flip = (draw(opts_.seed, kMethodOrder, call / 2) & 1u) != 0;
    return ((call % 2 == 0) != flip) ? po::TransferMethod::kCentralized
                                     : po::TransferMethod::kMultiPort;
  }

  void client(po::Orb& orb, pardis::rts::Communicator& comm, bool measure,
              Clock::time_point& first_done) override {
    const int rank = comm.rank();
    auto binding = pt::SpmdBinding::bind(orb, comm, kClientHost, kObject,
                                         kType);
    pardis::dseq::DSequence<double> seq(comm, spec_.length);
    const std::uint64_t first = seq.distribution().offset(rank);
    std::memcpy(seq.local_data(), initial_.data() + first,
                seq.local_length() * sizeof(double));
    // Bulk checksum bookkeeping, identical on every rank.
    std::map<std::uint64_t, double> changed;
    double expected_sum = initial_sum_;
    std::vector<double> before;

    std::uint64_t call = 0;
    // One verified invocation; returns its issue-to-return latency.
    auto invoke = [&](RankTrace* trace) {
      const po::TransferMethod method = method_of(call);
      pc::Encoder enc;
      double expect = 0.0;
      if (spec_.dir == po::ArgDir::kInOut) {
        expect = static_cast<double>(
                     draw(opts_.seed, kEchoScalar, call) % 2001) -
                 1000.0;
        enc.put_double(expect);
        before.assign(seq.local_data(), seq.local_data() + seq.local_length());
      } else {
        const std::uint64_t g =
            draw(opts_.seed, kBulkIndex, call) % spec_.length;
        const double v =
            static_cast<double>(draw(opts_.seed, kBulkValue, call) % 1001);
        const auto it = changed.find(g);
        const double old = it != changed.end() ? it->second : initial_[g];
        expected_sum += (v - old) * weight(g);
        changed[g] = v;
        if (seq.distribution().owner(g) == rank) {
          seq.local_data()[g - first] = v;
        }
        expect = expected_sum;
      }
      pt::TypedDSeqArg<double> arg(seq, spec_.dir);
      pt::CallOptions copts;
      copts.method = method;
      const std::uint64_t index = call++;
      if (rank == 0) attempted_.fetch_add(1);
      const Clock::time_point t0 = Clock::now();
      pardis::Bytes reply =
          binding.invoke(spec_.dir == po::ArgDir::kInOut ? "echo" : "consume",
                         enc.take(), {&arg}, copts);
      const Clock::time_point t1 = Clock::now();

      pc::Decoder dec{pardis::BytesView(reply)};
      bool ok = dec.get_double() == expect;
      if (spec_.dir == po::ArgDir::kInOut) {
        ok = ok && seq.local_length() == before.size();
        for (std::size_t i = 0; ok && i < before.size(); ++i) {
          ok = seq.local_data()[i] == expect - before[i];
        }
      }
      if (!ok) mismatch(index);
      if (trace != nullptr) {
        trace->spans.add(method == po::TransferMethod::kCentralized
                             ? "invoke centralized"
                             : "invoke multiport",
                         t0, t1);
        std::array<double, pardis::kPhaseCount> ms{};
        for (std::size_t p = 0; p < pardis::kPhaseCount; ++p) {
          ms[p] = binding.last_stats().ms(static_cast<pardis::Phase>(p));
        }
        trace->client_ms.push_back(ms);
        if (rank == 0) {
          traced_methods_.push_back(method);
          traced_latency_us_.push_back(us_between(t0, t1));
          std::array<double, pardis::kPhaseCount> srv{};
          const auto& s = binding.last_server_stats();
          for (std::size_t p = 0; p < srv.size() && p < s.size(); ++p) {
            srv[p] = s[p];
          }
          server_ms_.push_back(srv);
        }
      }
      return us_between(t0, t1);
    };

    try {
      invoke(nullptr);
      if (rank == 0) first_done = Clock::now();
      if (measure) {
        for (Window& w : windows_) timed_window(orb, comm, w, invoke);
      }
    } catch (const pardis::SystemException&) {
      // A collective invocation that threw may leave the ranks out of
      // step; stop this rank (the team poisons its siblings).
      if (rank == 0) failed_.fetch_add(1);
      throw;
    }
    binding.unbind();
  }

  template <typename Invoke>
  void timed_window(po::Orb& orb, pardis::rts::Communicator& comm, Window& w,
                    Invoke& invoke) {
    const int rank = comm.rank();
    RankTrace* trace =
        w.traced ? &traces_[static_cast<std::size_t>(rank)] : nullptr;
    if (trace != nullptr) {
      trace->client_ms.reserve(1u << 16);
      trace->spans.reserve(1u << 16);
    }
    // Ranks agree on the last call through stop_at_: rank 0 sets it two
    // calls ahead, which every sibling reads only after rank 0 has entered
    // the next collective invocation.  Reset between barriers.
    comm.barrier();
    if (rank == 0) stop_at_.store(std::numeric_limits<std::uint64_t>::max());
    comm.barrier();
    Clock::time_point start{};
    if (rank == 0) {
      w.before = OrbSnapshot::take(orb);
      start = Clock::now();
    }
    std::uint64_t i = 0;
    for (; i < stop_at_.load(std::memory_order_acquire); ++i) {
      const double lat = invoke(trace);
      if (rank == 0) {
        if (!w.warmup && !w.traced) latency_us_.push(static_cast<float>(lat));
        if (stop_at_.load(std::memory_order_relaxed) ==
                std::numeric_limits<std::uint64_t>::max() &&
            seconds_between(start, Clock::now()) >= w.seconds) {
          stop_at_.store(i + 2, std::memory_order_release);
        }
      }
    }
    if (rank == 0) {
      w.elapsed_s = seconds_between(start, Clock::now());
      w.ops = i;
      w.after = OrbSnapshot::take(orb);
    }
  }

  LayerNumbers layer_numbers() const override {
    LayerNumbers n = wire_numbers();

    // Client phases: per call, the slowest rank (the paper's convention).
    auto phase_us = [&](pardis::Phase p) {
      std::vector<std::vector<double>> per_rank;
      for (const RankTrace& t : traces_) {
        std::vector<double> v;
        for (const auto& ms : t.client_ms) {
          v.push_back(ms[static_cast<std::size_t>(p)] * 1e3);
        }
        per_rank.push_back(std::move(v));
      }
      return mean(max_over_ranks(per_rank));
    };
    n.gather_us = phase_us(pardis::Phase::kGather);
    n.pack_us = phase_us(pardis::Phase::kPack);
    n.send_us = phase_us(pardis::Phase::kSend);
    n.recv_us = phase_us(pardis::Phase::kRecv);

    // Server phases arrive already reduced (max over server ranks).
    auto server_us = [&](pardis::Phase p) {
      std::vector<double> v;
      for (const auto& ms : server_ms_) {
        v.push_back(ms[static_cast<std::size_t>(p)] * 1e3);
      }
      return mean(v);
    };
    n.scatter_us = server_us(pardis::Phase::kScatter);
    n.server_unpack_us = server_us(pardis::Phase::kUnpack);
    n.server_barrier_us = server_us(pardis::Phase::kBarrier);

    // Rank 0's latency minus the phases rank 0 attributes.
    std::vector<double> rest;
    const auto& rank0 = traces_.front().client_ms;
    for (std::size_t i = 0; i < rank0.size() && i < traced_latency_us_.size();
         ++i) {
      double attributed = 0.0;
      for (std::size_t p = 0; p < pardis::kPhaseCount; ++p) {
        if (static_cast<pardis::Phase>(p) != pardis::Phase::kTotal) {
          attributed += rank0[i][p] * 1e3;
        }
      }
      rest.push_back(traced_latency_us_[i] - attributed);
    }
    n.unattributed_us = mean(rest);

    std::vector<double> central, multi;
    for (std::size_t i = 0; i < traced_latency_us_.size(); ++i) {
      (traced_methods_[i] == po::TransferMethod::kCentralized ? central
                                                               : multi)
          .push_back(traced_latency_us_[i]);
    }
    n.centralized_p50_us = median(central);
    n.multiport_p50_us = median(multi);
    return n;
  }

  SpmdSpec spec_;
  std::vector<double> initial_;  // seeded sequence contents, by global index
  double initial_sum_ = 0.0;     // their positional checksum
  std::atomic<std::uint64_t> stop_at_{std::numeric_limits<std::uint64_t>::max()};
  // Traced window (rank-indexed traces; the rest written by rank 0).
  std::vector<RankTrace> traces_;
  std::vector<po::TransferMethod> traced_methods_;
  std::vector<double> traced_latency_us_;
  std::vector<std::array<double, pardis::kPhaseCount>> server_ms_;
};

// ---- pipelined echo ----------------------------------------------------------

class EchoRun final : public WorkloadRun {
 public:
  /// A ping carries one long each way.
  explicit EchoRun(const RunOptions& opts)
      : WorkloadRun(opts, 1, 1, 2.0 * sizeof(pc::Long), 250'000) {}

 private:
  struct Pending {
    po::Future<pardis::Bytes> future;
    Clock::time_point issued;
    pc::Long value = 0;
    std::uint64_t index = 0;
  };

  void describe(WorkloadResult& r) const override {
    r.context.emplace_back("client threads / server ranks", "1 / 1");
    r.context.emplace_back("window (invoke_nb in flight)",
                           std::to_string(kEchoWindow));
  }

  std::vector<Span> take_spans() override { return std::move(spans_.spans()); }

  LayerNumbers layer_numbers() const override {
    return wire_numbers();
  }

  void client(po::Orb& orb, pardis::rts::Communicator&, bool measure,
              Clock::time_point& first_done) override {
    auto binding = pt::DirectBinding::bind(orb, kClientHost, kObject, kType);
    if (binding.window() != kEchoWindow) {
      throw std::runtime_error(
          "negotiated window " + std::to_string(binding.window()) +
          " != pinned " + std::to_string(kEchoWindow));
    }
    std::deque<Pending> inflight;
    bool dead = false;
    bool spans_on = false;
    auto issue = [&] {
      const std::uint64_t index = next_++;
      const auto v = static_cast<pc::Long>(
          draw(opts_.seed, kPingValue, index) & 0x7fffffffu);
      pc::Encoder enc;
      enc.put_long(v);
      attempted_.fetch_add(1);
      const Clock::time_point t = Clock::now();
      inflight.push_back({binding.invoke_nb("ping", enc.take()), t, v, index});
    };
    // Collects the oldest request; returns its latency (negative: failed).
    auto collect = [&]() -> double {
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      try {
        pardis::Bytes reply = p.future.get();
        const Clock::time_point t = Clock::now();
        pc::Decoder dec{pardis::BytesView(reply)};
        if (dec.get_long() != p.value) mismatch(p.index);
        if (spans_on) spans_.add("ping", p.issued, t);
        return us_between(p.issued, t);
      } catch (const pardis::TRANSIENT&) {
        failed_.fetch_add(1);  // shed by the admission queue
      } catch (const pardis::SystemException&) {
        failed_.fetch_add(1);  // stream died: every later future fails too
        dead = true;
      }
      return -1.0;
    };

    issue();
    collect();
    first_done = Clock::now();
    if (measure && !dead) {
      for (Window& w : windows_) {
        spans_on = w.traced;
        if (w.traced) spans_.reserve(1u << 20);
        w.before = OrbSnapshot::take(orb);
        const Clock::time_point start = Clock::now();
        std::uint64_t done = 0;
        auto collect_one = [&] {
          const double lat = collect();
          if (lat < 0) return;
          ++done;
          if (!w.warmup && !w.traced) {
            latency_us_.push(static_cast<float>(lat));
          }
        };
        while (!dead && seconds_between(start, Clock::now()) < w.seconds) {
          if (inflight.size() == kEchoWindow) collect_one();
          issue();
        }
        while (!inflight.empty()) collect_one();
        w.elapsed_s = seconds_between(start, Clock::now());
        w.ops = done;
        w.after = OrbSnapshot::take(orb);
      }
    }
    // Every issued future settles above; anything left is a failure.
    failed_.fetch_add(inflight.size());
    binding.unbind();
  }

  SpanLog spans_;
  std::uint64_t next_ = 0;
};

}  // namespace

WorkloadResult run_workload(const RunOptions& opts) {
  if (opts.workload == "spmd_small") {
    return SpmdRun(opts, {kSmallLength, po::ArgDir::kInOut,
                          MethodMode::kAlternate, 40'000})
        .run();
  }
  if (opts.workload == "bulk_centralized") {
    return SpmdRun(opts, {kBulkLength, po::ArgDir::kIn,
                          MethodMode::kCentralized, 2'000})
        .run();
  }
  if (opts.workload == "bulk_multiport") {
    return SpmdRun(opts, {kBulkLength, po::ArgDir::kIn, MethodMode::kMultiPort,
                          2'000})
        .run();
  }
  if (opts.workload == "pipelined_echo") return EchoRun(opts).run();
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench
