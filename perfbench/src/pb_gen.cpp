// pb_gen: the benchmark's open-loop load generator for a loopback
// leopard_node cluster.
//
// One process, one thread, one TCP connection per replica. Requests arrive
// on a Poisson schedule derived from --seed; every request whose due time
// has passed is sent at once and is timed from that due time, so a stalled
// cluster (or a late generator) shows up in the latency rather than
// silently lowering the offered load. Requests are routed by µ(req) through
// core::assign_replica. Nothing is ever re-submitted.
//
// Schedule, at --rate:
//   warm   1 s (not measured)
//   fixed  --fixed-s seconds (commit latency, CPU window)
//   drain  wait up to 10 s for outstanding acks (less once no ack has
//          arrived for 2 s)
//
// Every request is an operation: it must be acked exactly once. A
// duplicate ack or an ack for a request never sent is counted apart.
//
// Markers on stdout (one per line, flushed): READY (connected to every
// replica), FIXED_BEGIN, FIXED_END, DONE. The result is one JSON object
// written to --out. With --spans FILE, the (seq, due, sent, acked) record of
// every request is written there as text for the span join.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "core/replica.hpp"
#include "net/manifest.hpp"
#include "net/wire.hpp"
#include "proto/messages.hpp"
#include "util/rng.hpp"

namespace {

namespace lp = leopard;

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

struct Args {
  std::string manifest;
  std::string out;
  std::string spans;
  std::uint32_t payload = 128;
  std::uint64_t seed = 1;
  double rate = 1000;
  double fixed_s = 5;
};

/// Length of the unmeasured warm-up phase.
constexpr double kWarmS = 1.0;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: pb_gen --manifest FILE --out FILE [--spans FILE]\n"
               "              [--payload B] [--seed N] [--rate R] [--fixed-s T]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (k == "--manifest") a.manifest = v;
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--payload") a.payload = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--rate") a.rate = std::atof(v);
    else if (k == "--fixed-s") a.fixed_s = std::atof(v);
    else usage();
  }
  if (a.manifest.empty() || a.out.empty() || a.payload < 16 || a.rate <= 0) {
    usage();
  }
  return a;
}

/// One replica connection: nonblocking socket, outbound byte queue, frame
/// reassembly for acks.
struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_head = 0;
  lp::net::FrameReader reader;
};

int dial(const lp::net::PeerAddr& addr) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    if (inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    ::usleep(10000);
  }
  return -1;
}

/// Per-request state, indexed by seq.
struct Record {
  std::int64_t due = 0;   // ns since start
  std::int64_t sent = 0;  // ns since start
  std::int64_t acked = -1;
  std::uint8_t acks = 0;
};

/// The generator's transport id (clients take ids >= n).
constexpr std::uint64_t kClientId = 100;

/// Requests per ClientRequestMsg frame. A replica sheds, silently, whatever
/// part of one message does not fit its mempool (mempool_capacity, 12000 by
/// default), so a generator that fell behind must not catch up in one frame.
constexpr std::size_t kMaxBatch = 256;

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

class Generator {
 public:
  Generator(const Args& args, const lp::net::Manifest& m)
      : args_(args), n_(m.n), leader_(static_cast<lp::proto::ReplicaId>(m.initial_leader())),
        rng_(args.seed), conns_(m.n) {
    // Payload bytes come from one seeded pool; every request starts with its
    // own (client, seq) so no two payloads are equal.
    pool_.resize(1u << 20);
    lp::util::Rng pool_rng(args.seed ^ 0x5eedf00dULL);
    pool_rng.fill(pool_.data(), pool_.size());
    batches_.resize(n_);
    for (auto& b : batches_) b = std::make_shared<lp::proto::ClientRequestMsg>();
    for (std::uint32_t r = 0; r < n_; ++r) addrs_.push_back(m.nodes.at(r));
  }

  bool connect_all() {
    const auto hello = lp::net::encode_hello_frame(
        lp::net::Hello{lp::net::Hello::kMagic, static_cast<lp::sim::NodeId>(kClientId)});
    for (std::uint32_t r = 0; r < n_; ++r) {
      conns_[r].fd = dial(addrs_[r]);
      if (conns_[r].fd < 0) return false;
      conns_[r].out.insert(conns_[r].out.end(), hello.begin(), hello.end());
    }
    for (auto& c : conns_) {
      // The socket still blocks here, so the hello frame goes out whole.
      if (!try_write(c)) return false;
      const int flags = ::fcntl(c.fd, F_GETFL, 0);
      if (flags < 0 || ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
    }
    return true;
  }

  int run() {
    t0_ = mono_ns();
    std::puts("READY");
    std::fflush(stdout);

    const auto s2ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
    next_due_ = 0;
    run_rate(s2ns(kWarmS));
    std::puts("FIXED_BEGIN");
    std::fflush(stdout);
    fixed_first_seq_ = records_.size();
    run_rate(now() + s2ns(args_.fixed_s));
    fixed_last_seq_ = records_.size();
    std::puts("FIXED_END");
    std::fflush(stdout);

    drain(s2ns(10.0));
    write_result();
    std::puts("DONE");
    std::fflush(stdout);
    return 0;
  }

 private:
  std::int64_t now() const { return mono_ns() - t0_; }

  /// Creates every request due by `t`, encodes one ClientRequestMsg per
  /// replica and queues the frames.
  void emit_due(std::int64_t t) {
    bool any = false;
    while (next_due_ <= t) {
      const std::uint64_t seq = records_.size();
      lp::proto::Request req;
      req.client_id = kClientId;
      req.seq = seq;
      req.payload_size = args_.payload;
      req.payload.resize(args_.payload);
      const auto off = rng_.uniform(pool_.size() - args_.payload);
      std::memcpy(req.payload.data(), pool_.data() + off, args_.payload);
      std::memcpy(req.payload.data(), &req.client_id, 8);
      std::memcpy(req.payload.data() + 8, &seq, 8);
      Record rec;
      rec.due = next_due_;
      records_.push_back(rec);
      const auto node = lp::core::assign_replica(req, n_, leader_);
      auto& batch = batches_[node];
      batch->requests.push_back(std::move(req));
      if (batch->requests.size() >= kMaxBatch) flush_batch(node, now());
      next_due_ += static_cast<std::int64_t>(rng_.exponential(1.0 / args_.rate) * 1e9);
      any = true;
    }
    if (!any) return;
    const auto sent_at = now();
    for (std::size_t i = 0; i < batches_.size(); ++i) flush_batch(i, sent_at);
  }

  /// Encodes the batch for replica `i` as one frame.
  void flush_batch(std::size_t i, std::int64_t sent_at) {
    auto& b = batches_[i];
    if (b->requests.empty()) return;
    for (const auto& r : b->requests) records_[r.seq].sent = sent_at;
    lp::net::encode_frame(*b, conns_[i].out);
    b->requests.clear();
  }

  /// Writes queued bytes, reads acks; sleeps in poll until `until` (ns
  /// since start) at most.
  void pump(std::int64_t until) {
    pollfd pfds[64];
    for (std::uint32_t r = 0; r < n_; ++r) {
      auto& c = conns_[r];
      try_write(c);
      pfds[r].fd = c.fd;
      pfds[r].events = POLLIN | (c.out_head < c.out.size() ? POLLOUT : 0);
      pfds[r].revents = 0;
    }
    const auto wait = std::max<std::int64_t>(0, until - now());
    timespec ts{static_cast<time_t>(wait / 1000000000LL), static_cast<long>(wait % 1000000000LL)};
    const int rc = ::ppoll(pfds, n_, &ts, nullptr);
    if (rc <= 0) return;
    for (std::uint32_t r = 0; r < n_; ++r) {
      if (pfds[r].revents & POLLOUT) try_write(conns_[r]);
      if (pfds[r].revents & (POLLIN | POLLHUP | POLLERR)) read_acks(conns_[r]);
    }
  }

  /// Writes queued bytes until the socket would block; false on an I/O
  /// error.
  bool try_write(Conn& c) {
    while (c.out_head < c.out.size()) {
      const auto w = ::send(c.fd, c.out.data() + c.out_head, c.out.size() - c.out_head,
                            MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        ++io_errors_;
        return false;
      }
      c.out_head += static_cast<std::size_t>(w);
    }
    c.out.clear();
    c.out_head = 0;
    return true;
  }

  void read_acks(Conn& c) {
    for (;;) {
      auto buf = c.reader.write_buffer(256 * 1024);
      const auto got = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        if (got == 0) ++io_errors_;
        break;
      }
      c.reader.commit(static_cast<std::size_t>(got));
      const auto t = now();
      lp::net::FrameReader::Frame f;
      while (c.reader.next(f) == lp::net::FrameReader::Status::kFrame) {
        if (f.type != lp::net::MsgType::kAck) continue;
        const auto payload = lp::net::decode_payload(f.type, f.body, 0);
        const auto* ack = dynamic_cast<const lp::proto::AckMsg*>(payload.get());
        if (ack == nullptr) {
          ++io_errors_;
          continue;
        }
        for (const auto seq : ack->seqs) {
          if (ack->client_id != kClientId || seq >= records_.size()) {
            ++unknown_acks_;
            continue;
          }
          auto& rec = records_[seq];
          if (rec.acks < 255) ++rec.acks;
          if (rec.acks == 1) {
            rec.acked = t;
            ++acked_;
          }
        }
      }
      if (c.reader.errored()) {
        ++io_errors_;
        break;
      }
      if (static_cast<std::size_t>(got) < buf.size()) break;
    }
  }

  void run_rate(std::int64_t until) {
    while (now() < until) {
      emit_due(std::min(now(), until));
      pump(std::min(next_due_, until));
    }
  }

  /// Waits for outstanding acks until all have arrived, none arrived for
  /// 2 s, or `limit` ns passed.
  void drain(std::int64_t limit) {
    const auto until = now() + limit;
    auto last_progress = now();
    auto last_acked = acked_;
    while (acked_ < records_.size() && now() < until && now() - last_progress < 2000000000) {
      pump(now() + 2000000);
      if (acked_ != last_acked) {
        last_acked = acked_;
        last_progress = now();
      }
    }
  }

  void write_result() {
    std::uint64_t exactly_once = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t missing = 0;
    for (const auto& r : records_) {
      if (r.acks == 1) ++exactly_once;
      if (r.acks > 1) ++duplicated;
      if (r.acks == 0) ++missing;
    }
    std::vector<double> lat;
    std::vector<double> late;
    double lat_sum = 0;
    std::size_t lat_acked = 0;
    for (std::size_t i = fixed_first_seq_; i < fixed_last_seq_; ++i) {
      const auto& r = records_[i];
      late.push_back(static_cast<double>(r.sent - r.due) / 1e6);
      const double ms = r.acks > 0 ? static_cast<double>(r.acked - r.due) / 1e6 : 1e18;
      lat.push_back(ms);
      if (r.acks > 0) {
        lat_sum += ms;
        ++lat_acked;
      }
    }
    FILE* f = std::fopen(args_.out.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\"sent\": %zu, \"exactly_once\": %llu, \"duplicated\": %llu, "
                    "\"missing\": %llu, \"unknown_acks\": %llu, \"io_errors\": %llu,\n",
                 records_.size(), static_cast<unsigned long long>(exactly_once),
                 static_cast<unsigned long long>(duplicated),
                 static_cast<unsigned long long>(missing),
                 static_cast<unsigned long long>(unknown_acks_),
                 static_cast<unsigned long long>(io_errors_));
    std::fprintf(f, " \"fixed_requests\": %zu, \"fixed_mean_ms\": %.6f,",
                 fixed_last_seq_ - fixed_first_seq_,
                 lat_acked > 0 ? lat_sum / static_cast<double>(lat_acked) : 0.0);
    std::fprintf(f, " \"commit_p50_ms\": %.6f, \"commit_p99_ms\": %.6f, \"late_p99_ms\": %.6f}\n",
                 percentile(lat, 0.50), percentile(lat, 0.99), percentile(late, 0.99));
    std::fclose(f);

    if (!args_.spans.empty()) {
      FILE* s = std::fopen(args_.spans.c_str(), "w");
      if (s == nullptr) return;
      for (std::size_t i = 0; i < records_.size(); ++i) {
        const auto& r = records_[i];
        std::fprintf(s, "%zu %lld %lld %lld\n", i, static_cast<long long>(r.due),
                     static_cast<long long>(r.sent), static_cast<long long>(r.acked));
      }
      std::fclose(s);
    }
  }

  const Args& args_;
  std::uint32_t n_;
  lp::proto::ReplicaId leader_;
  lp::util::Rng rng_;
  std::vector<Conn> conns_;
  std::vector<lp::net::PeerAddr> addrs_;
  std::vector<std::uint8_t> pool_;
  std::vector<std::shared_ptr<lp::proto::ClientRequestMsg>> batches_;
  std::vector<Record> records_;
  std::int64_t t0_ = 0;
  std::int64_t next_due_ = 0;
  std::size_t fixed_first_seq_ = 0;
  std::size_t fixed_last_seq_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t unknown_acks_ = 0;
  std::uint64_t io_errors_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const auto manifest = lp::net::Manifest::parse_file(args.manifest);
    if (manifest.n > 64) {
      std::fprintf(stderr, "pb_gen: n=%u exceeds 64 connections\n", manifest.n);
      return 2;
    }
    Generator gen(args, manifest);
    if (!gen.connect_all()) {
      std::fprintf(stderr, "pb_gen: cannot connect to every replica\n");
      return 3;
    }
    return gen.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_gen: %s\n", e.what());
    return 2;
  }
}
