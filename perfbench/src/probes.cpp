// Standalone layer probes for traced runs: each times the public calls of
// one layer at the sizes the workloads use, outside any invocation, and
// reports a median over repetitions.
//
//   rts        2-rank Team: p2p round trip, barrier, bcast, allreduce,
//              gatherv / scatterv of 4 MiB per rank (the bulk workloads'
//              client gather and server scatter);
//   cdr        4 MiB double-array encode/decode, scalar argument round trip;
//   orb        request-frame header build + parse;
//   dseq       2 -> 2 redistribution plan over 2^20 elements;
//   transport  tcp frame echo over one loopback stream (64 B, 64 KiB, 8 MiB).

#include <array>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "pardis/cdr/decoder.hpp"
#include "pardis/cdr/encoder.hpp"
#include "pardis/dseq/plan.hpp"
#include "pardis/orb/orb.hpp"
#include "pardis/orb/protocol.hpp"
#include "pardis/rts/collectives.hpp"
#include "pardis/rts/team.hpp"
#include "sampling.hpp"

namespace perfbench {

namespace {

namespace pc = pardis::cdr;
namespace po = pardis::orb;

/// Defeats dead-code elimination of probe results (atomic: the rts probes
/// feed it from both ranks).
std::atomic<std::uint64_t> g_sink{0};

void sink(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

/// Median over `reps` of the per-op time of `batch` back-to-back calls of
/// `op`, in nanoseconds; one span per batch.
template <typename Op>
double median_ns(SpanLog& spans, const char* name, int reps, int batch,
                 Op&& op) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) op();
    const Clock::time_point t1 = Clock::now();
    spans.add(name, t0, t1);
    ns.push_back(us_between(t0, t1) * 1e3 / batch);
  }
  return median(std::move(ns));
}

// ---- rts -------------------------------------------------------------------

constexpr int kRtsRanks = 2;
constexpr std::size_t kRtsBulkDoubles = (4u << 20) / sizeof(double);

/// Per-iteration start/end of one collective on every rank; the collective
/// takes from the first rank entering to the last rank leaving.
struct CollectiveTimes {
  std::array<std::vector<Clock::time_point>, kRtsRanks> start, end;

  double median_us(SpanLog& spans, const char* name) const {
    std::vector<double> us;
    for (std::size_t i = 0; i < start[0].size(); ++i) {
      Clock::time_point s = start[0][i], e = end[0][i];
      for (int r = 1; r < kRtsRanks; ++r) {
        s = std::min(s, start[r][i]);
        e = std::max(e, end[r][i]);
      }
      spans.add(name, s, e);
      us.push_back(us_between(s, e));
    }
    return median(std::move(us));
  }
};

template <typename Op>
void time_collective(pardis::rts::Communicator& comm, CollectiveTimes& t,
                     int reps, Op&& op) {
  const auto r = static_cast<std::size_t>(comm.rank());
  for (int i = 0; i < reps; ++i) {
    comm.barrier();
    t.start[r].push_back(Clock::now());
    op();
    t.end[r].push_back(Clock::now());
  }
}

void rts_probes(WorkloadResult& out, SpanLog& spans) {
  CollectiveTimes barrier, bcast, allreduce, gatherv, scatterv;
  std::vector<double> p2p_us;
  pardis::rts::Team team("perfbench-rts", kRtsRanks);
  team.run([&](pardis::rts::Communicator& comm) {
    const int rank = comm.rank();
    // p2p: 64-byte ping-pong timed on rank 0.
    const pardis::Bytes msg(64, 0x5a);
    for (int i = 0; i < 2000; ++i) {
      if (rank == 0) {
        const Clock::time_point t0 = Clock::now();
        comm.send(1, 1, pardis::BytesView(msg));
        (void)comm.recv(1, 1);
        p2p_us.push_back(us_between(t0, Clock::now()));
      } else {
        (void)comm.recv(0, 1);
        comm.send(0, 1, pardis::BytesView(msg));
      }
    }
    time_collective(comm, barrier, 2000, [&] { comm.barrier(); });
    time_collective(comm, bcast, 2000, [&] {
      pardis::Bytes data(rank == 0 ? 256 : 0, 0x5a);
      comm.bcast_bytes(data, 0);
      sink(data.size());
    });
    time_collective(comm, allreduce, 2000, [&] {
      sink(static_cast<std::uint64_t>(
                            pardis::rts::allreduce_value(comm, 1.0 + rank)));
    });
    const std::vector<double> local(kRtsBulkDoubles, 1.0 + rank);
    time_collective(comm, gatherv, 40, [&] {
      sink(pardis::rts::gatherv<double>(comm, local, 0).size());
    });
    std::vector<double> all(rank == 0 ? kRtsBulkDoubles * kRtsRanks : 0, 2.0);
    const std::vector<std::size_t> counts(kRtsRanks, kRtsBulkDoubles);
    time_collective(comm, scatterv, 40, [&] {
      sink(pardis::rts::scatterv<double>(comm, all, counts, 0).size());
    });
  });
  std::vector<double> p2p = p2p_us;
  out.per_layer.push_back({"rts.p2p_rtt_us", median(std::move(p2p)), "us"});
  out.per_layer.push_back(
      {"rts.barrier_us", barrier.median_us(spans, "rts.barrier"), "us"});
  out.per_layer.push_back(
      {"rts.bcast_256b_us", bcast.median_us(spans, "rts.bcast"), "us"});
  out.per_layer.push_back(
      {"rts.allreduce_us", allreduce.median_us(spans, "rts.allreduce"), "us"});
  out.per_layer.push_back(
      {"rts.gatherv_4mib_ms", gatherv.median_us(spans, "rts.gatherv") / 1e3,
       "ms"});
  out.per_layer.push_back(
      {"rts.scatterv_4mib_ms", scatterv.median_us(spans, "rts.scatterv") / 1e3,
       "ms"});
}

// ---- cdr / orb / dseq ------------------------------------------------------

void codec_probes(WorkloadResult& out, SpanLog& spans) {
  constexpr std::size_t kDoubles = (4u << 20) / sizeof(double);
  constexpr double kBytes = kDoubles * sizeof(double);
  std::vector<double> data(kDoubles);
  for (std::size_t i = 0; i < kDoubles; ++i) data[i] = static_cast<double>(i);

  pardis::Bytes encoded;
  const double enc_ns = median_ns(spans, "cdr.encode", 30, 1, [&] {
    pc::Encoder enc;
    enc.put_array(data.data(), data.size());
    encoded = enc.take();
    sink(encoded[encoded.size() - 1]);
  });
  std::vector<double> decoded(kDoubles);
  const double dec_ns = median_ns(spans, "cdr.decode", 30, 1, [&] {
    pc::Decoder dec{pardis::BytesView(encoded)};
    dec.get_array_into(decoded.data(), decoded.size());
    sink(static_cast<std::uint64_t>(decoded.back()));
  });
  out.per_layer.push_back({"cdr.encode_ns_per_byte", enc_ns / kBytes, "ns/B"});
  out.per_layer.push_back({"cdr.decode_ns_per_byte", dec_ns / kBytes, "ns/B"});

  // spmd_small's double and pipelined_echo's long, encoded and decoded.
  std::uint64_t n = 0;
  const double scalar_ns = median_ns(spans, "cdr.scalar_args", 15, 10'000, [&] {
    pc::Encoder enc;
    enc.put_double(static_cast<double>(++n));
    enc.put_long(static_cast<pc::Long>(n));
    const pardis::Bytes b = enc.take();
    pc::Decoder dec{pardis::BytesView(b)};
    sink(static_cast<std::uint64_t>(dec.get_double()) +
             static_cast<std::uint64_t>(dec.get_long()));
  });
  out.per_layer.push_back({"cdr.scalar_args_ns", scalar_ns, "ns"});

  // A spmd_small request header: one inout descriptor over 2 client ranks.
  po::RequestHeader header;
  header.request_id = 7;
  header.binding_id = 3;
  header.operation = "echo";
  header.method = po::TransferMethod::kMultiPort;
  header.scalar_args = pardis::Bytes(8, 0x11);
  po::DSeqDescriptor desc;
  desc.dir = po::ArgDir::kInOut;
  desc.total_length = 16;
  desc.src_counts = {8, 8};
  header.dseqs = {desc};
  const double header_ns =
      median_ns(spans, "orb.header_roundtrip", 15, 2'000, [&] {
        pc::Encoder enc;
        po::begin_frame(enc, po::MsgType::kRequest);
        header.encode(enc);
        const pardis::Bytes frame = enc.take();
        const po::Frame info = po::parse_frame(frame);
        auto dec = po::body_decoder(frame, info);
        sink(po::RequestHeader::decode(dec).request_id);
      });
  out.per_layer.push_back({"orb.header_roundtrip_ns", header_ns, "ns"});

  const auto src = pardis::dseq::DistTempl::block(1u << 20, 2);
  const auto dst = pardis::dseq::DistTempl::block(1u << 20, 2);
  const double plan_ns = median_ns(spans, "dseq.plan", 15, 1'000, [&] {
    const pardis::dseq::RedistributionPlan plan(src, dst);
    sink(plan.outgoing(0).size());
  });
  out.per_layer.push_back({"dseq.plan_us", plan_ns / 1e3, "us"});
}

// ---- transport -------------------------------------------------------------

void transport_probes(WorkloadResult& out, SpanLog& spans) {
  po::OrbConfig config;
  config.transport = pardis::transport::Kind::kTcp;
  auto orb = po::Orb::create(config);
  auto listener = orb->transport().listen("perfbench-echo", 0);
  std::thread echo([&] {
    try {
      auto stream = listener->accept();
      while (stream) {
        auto frame = stream->recv();
        if (!frame) break;
        stream->send(std::move(*frame));
      }
    } catch (const std::exception&) {
      // The client side reports the failure (a short or missing reply).
    }
  });
  std::shared_ptr<pardis::transport::Stream> client;
  bool ok = true;
  auto rtt = [&](const char* name, std::size_t bytes, int reps) {
    pardis::Bytes frame(bytes, 0x5a);
    std::vector<double> us;
    for (int i = 0; i < reps && ok; ++i) {
      const Clock::time_point t0 = Clock::now();
      client->send(std::move(frame));
      auto reply = client->recv();
      const Clock::time_point t1 = Clock::now();
      spans.add(name, t0, t1);
      if (!reply || reply->size() != bytes) {
        ok = false;
        break;
      }
      frame = std::move(*reply);
      us.push_back(us_between(t0, t1));
    }
    return median(std::move(us));
  };
  double rtt_64 = 0, rtt_64k = 0, rtt_8m = 0;
  std::string error = "echo reply lost";
  try {
    client = orb->transport().connect("perfbench-client", listener->address());
    rtt_64 = rtt("transport.rtt_64b", 64, 2000);
    rtt_64k = rtt("transport.rtt_64kib", 64u << 10, 500);
    rtt_8m = rtt("transport.rtt_8mib", 8u << 20, 20);
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  // Either close ends the echo thread: EOF on its stream, or no accept.
  if (client) client->close();
  listener->close();
  echo.join();

  if (!ok) {
    out.correct = false;
    out.context.emplace_back("error", "transport probe: " + error);
  }
  out.per_layer.push_back({"transport.rtt_64b_us", rtt_64, "us"});
  out.per_layer.push_back({"transport.rtt_64kib_us", rtt_64k, "us"});
  out.per_layer.push_back({"transport.rtt_8mib_ms", rtt_8m / 1e3, "ms"});
}

}  // namespace

void run_probes(WorkloadResult& out, SpanLog& spans) {
  rts_probes(out, spans);
  codec_probes(out, spans);
  transport_probes(out, spans);
}

}  // namespace perfbench
