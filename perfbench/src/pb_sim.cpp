// pb_sim: the benchmark's simulated Leopard cluster at the paper's scale.
//
//   pb_sim --seed S [--trace 0|1]
//   pb_sim --self-test      (the checks below, on doctored streams)
//
// The cluster is assembled here from the public sim/protocol pieces (as
// harness::run_experiment does), so the offered rate, the standing backlog
// and the window belong to the benchmark: n=256 with Table II batches
// (alpha=4000, tau=300) and 128-B payloads, one client group per non-leader
// replica, each submitting kRate/(n-1) req/s Poisson on top of kBacklog
// requests injected at start, never re-submitting. The window is [0, kWindow]
// of simulated time: four BFTblock periods (tau * alpha / kRate) at the
// offered rate. It ends early, flagged as "stalled", once the observer
// (replica 0) has committed and then commits nothing for kStallS.
//
// Throughput is the observer's committed requests divided by the simulated
// time of its last commit, and the CPU per request is the process CPU up to
// that commit. Neither depends on where the window ends as long as the
// window holds the last commit.
//
// Every run checks, through SimEnv::set_execute_observer and a decorator
// around each client core:
//   - join consistency: every (seq, ordinal) executed by two replicas has the
//     same block digest (a join, not a prefix: checkpoint adoption skips
//     ranges);
//   - no (client, seq) executes twice at any replica: each replica executes
//     blocks in strictly increasing (seq, ordinal) order, and no request
//     appears in two distinct executed blocks;
//   - every ack comes from the request's maker after the maker executed it;
//   - committed requests never exceed injected requests.
//
// With --trace 1 a decorator around each replica core (the
// chaos::ByzantineInterposer pattern: a Protocol that forwards to the
// wrapped core through its own Env) tallies, per replica and per incoming
// message component, wall time in the handler and the simulated CPU the
// call costs (receive + ChargeCpu + send, priced by the run's CostModel).
// Bytes come from Network::traffic().
//
// Prints one JSON object on stdout.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/client.hpp"
#include "core/metrics.hpp"
#include "crypto/threshold_sig.hpp"
#include "protocol/factory.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {

namespace lp = leopard;
using Clock = std::chrono::steady_clock;
constexpr std::size_t kComponents = static_cast<std::size_t>(lp::sim::Component::kCount);
constexpr std::size_t kTimerSlot = kComponents;  // handler calls with no message

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-replica tallies kept by the tracing decorator.
struct Tally {
  std::array<double, kComponents + 1> wall_s{};
  std::array<double, kComponents + 1> cpu_ns{};
};

/// Env seen by a traced core: forwards every action to the real SimEnv and
/// prices the ones that occupy the node's CPU lane.
class TallyEnv final : public lp::protocol::Env {
 public:
  TallyEnv(lp::protocol::Env& inner, Tally& tally, std::uint32_t n, std::size_t frame_overhead)
      : inner_(inner), tally_(tally), n_(n), frame_overhead_(frame_overhead) {}

  void set_slot(std::size_t slot) { slot_ = slot; }

  [[nodiscard]] lp::sim::SimTime now() const override { return inner_.now(); }
  [[nodiscard]] const lp::sim::CostModel& costs() const override { return inner_.costs(); }
  void apply(lp::protocol::Action action) override {
    if (const auto* c = std::get_if<lp::protocol::ChargeCpu>(&action)) {
      tally_.cpu_ns[slot_] += static_cast<double>(c->cost);
    } else if (const auto* s = std::get_if<lp::protocol::Send>(&action)) {
      price_send(*s->payload, 1);
    } else if (const auto* b = std::get_if<lp::protocol::Broadcast>(&action)) {
      price_send(*b->payload, n_ - 1);
    }
    inner_.apply(std::move(action));
  }

 private:
  void price_send(const lp::sim::Payload& p, std::uint32_t copies) {
    const auto size = p.wire_size() + frame_overhead_;
    const auto& c = inner_.costs();
    tally_.cpu_ns[slot_] += static_cast<double>(copies) *
                            static_cast<double>(c.send_per_msg + c.per_bytes(c.send_per_byte_ns, size));
  }

  lp::protocol::Env& inner_;
  Tally& tally_;
  std::uint32_t n_;
  std::size_t frame_overhead_;
  std::size_t slot_ = kTimerSlot;
};

/// Protocol decorator around one replica core (see file comment).
class TracedCore final : public lp::protocol::Protocol {
 public:
  TracedCore(std::unique_ptr<lp::protocol::Protocol> inner, std::uint32_t n,
             std::size_t frame_overhead)
      : inner_(std::move(inner)), n_(n), frame_overhead_(frame_overhead) {}

  [[nodiscard]] lp::proto::ReplicaId id() const override { return inner_->id(); }
  [[nodiscard]] const Tally& tally() const { return tally_; }

  void on_start(lp::protocol::Env& env) override {
    run(env, kTimerSlot, nullptr, [&](lp::protocol::Env& e) { inner_->on_start(e); });
  }
  void on_message(lp::protocol::Env& env, lp::protocol::NodeId from,
                  const lp::sim::PayloadPtr& payload) override {
    run(env, static_cast<std::size_t>(payload->component()), payload.get(),
        [&](lp::protocol::Env& e) { inner_->on_message(e, from, payload); });
  }
  void on_timer(lp::protocol::Env& env, lp::protocol::TimerToken token) override {
    run(env, kTimerSlot, nullptr, [&](lp::protocol::Env& e) { inner_->on_timer(e, token); });
  }
  void on_client_request(lp::protocol::Env& env, lp::protocol::NodeId from,
                         const std::shared_ptr<const lp::proto::ClientRequestMsg>& msg) override {
    run(env, static_cast<std::size_t>(lp::sim::Component::kClientRequest), msg.get(),
        [&](lp::protocol::Env& e) { inner_->on_client_request(e, from, msg); });
  }

 private:
  template <typename F>
  void run(lp::protocol::Env& env, std::size_t slot, const lp::sim::Payload* in, F&& call) {
    if (!wrapped_) wrapped_ = std::make_unique<TallyEnv>(env, tally_, n_, frame_overhead_);
    wrapped_->set_slot(slot);
    if (in != nullptr) {
      // The network charged the receive before dispatch; price it here.
      const auto& c = env.costs();
      tally_.cpu_ns[slot] += static_cast<double>(
          c.recv_per_msg + c.per_bytes(c.recv_per_byte_ns, in->wire_size() + frame_overhead_));
    }
    const auto t0 = Clock::now();
    call(*wrapped_);
    tally_.wall_s[slot] += secs_since(t0);
  }

  std::unique_ptr<lp::protocol::Protocol> inner_;
  std::uint32_t n_;
  std::size_t frame_overhead_;
  Tally tally_;
  std::unique_ptr<TallyEnv> wrapped_;
};

/// Growable per-client bit table indexed by request seq.
class SeqFlags {
 public:
  bool test_and_set(std::uint64_t client, std::uint64_t seq) {
    auto& v = table_[client];
    if (v.size() <= seq) v.resize(std::max<std::size_t>(seq + 1, v.size() * 2), 0);
    const bool was = v[seq] != 0;
    v[seq] = 1;
    return was;
  }
  [[nodiscard]] bool test(std::uint64_t client, std::uint64_t seq) const {
    const auto it = table_.find(client);
    return it != table_.end() && seq < it->second.size() && it->second[seq] != 0;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> table_;
};

/// The correctness checks (see file comment) and the observer-replica
/// execution counts.
struct Checker {
  std::map<std::pair<std::uint64_t, std::uint32_t>, lp::crypto::Digest> block_digest;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> last_exec;  // per replica
  std::vector<bool> any_exec;
  SeqFlags in_distinct_block;  // request seen in a distinct executed block
  SeqFlags executed_at_maker;
  std::uint64_t digest_mismatch_reqs = 0;
  std::uint64_t reexecuted_reqs = 0;
  std::uint64_t duplicate_reqs = 0;
  std::uint64_t bad_acks = 0;
  // Replica 0 (the observer) counts committed requests and BFTblocks, and
  // keeps the simulated time and process CPU of its last commit.
  std::uint64_t observer_executed = 0;
  std::uint64_t observer_blocks = 0;
  std::uint64_t last_observer_seq = UINT64_MAX;
  lp::sim::SimTime last_commit_at = 0;
  double last_commit_cpu_s = 0;
  // Submit→ack latency of every ack.
  std::vector<lp::sim::SimTime> latencies;

  void on_execute(std::uint32_t replica, const lp::protocol::Execute& e, lp::sim::SimTime now) {
    const auto* db = dynamic_cast<const lp::proto::DatablockMsg*>(e.block.get());
    if (db == nullptr) return;
    const auto key = std::make_pair(e.seq, e.ordinal);
    if (any_exec[replica] && key <= last_exec[replica]) reexecuted_reqs += e.requests;
    any_exec[replica] = true;
    last_exec[replica] = key;
    const auto [it, fresh] = block_digest.emplace(key, db->cached_digest);
    if (fresh) {
      for (const auto& r : db->datablock.requests) {
        if (in_distinct_block.test_and_set(r.client_id, r.seq)) ++duplicate_reqs;
      }
    } else if (it->second != db->cached_digest) {
      digest_mismatch_reqs += e.requests;
    }
    if (db->datablock.maker == replica) {
      for (const auto& r : db->datablock.requests) executed_at_maker.test_and_set(r.client_id, r.seq);
    }
    if (replica == 0) {
      observer_executed += e.requests;
      if (e.seq != last_observer_seq) ++observer_blocks;
      last_observer_seq = e.seq;
      last_commit_at = now;
      last_commit_cpu_s = cpu_seconds();
    }
  }

  /// An ack from `from` to a client whose maker is `maker`.
  void on_ack(lp::sim::NodeId from, lp::sim::NodeId maker, std::uint64_t client,
              std::uint64_t seq) {
    if (from != maker || !executed_at_maker.test(client, seq)) ++bad_acks;
  }
};

/// Decorator around a client core: hands the core an Env that records each
/// request's submit time, and checks each ack against the maker's
/// executions (and times it) before handing it on.
class CheckedClient final : public lp::protocol::Protocol {
 public:
  CheckedClient(lp::core::LeopardClient& inner, Checker& checker, lp::sim::NodeId maker)
      : inner_(inner), checker_(checker), maker_(maker), tap_(*this) {}

  [[nodiscard]] lp::proto::ReplicaId id() const override { return inner_.id(); }
  void on_start(lp::protocol::Env& env) override { inner_.on_start(tap_.bind(env)); }
  void on_message(lp::protocol::Env& env, lp::protocol::NodeId from,
                  const lp::sim::PayloadPtr& payload) override {
    if (const auto* ack = dynamic_cast<const lp::proto::AckMsg*>(payload.get())) {
      const auto t = env.now();
      for (const auto seq : ack->seqs) {
        checker_.on_ack(from, maker_, ack->client_id, seq);
        if (seq < submitted_.size()) {
          checker_.latencies.push_back(t - submitted_[seq]);
        }
      }
    }
    inner_.on_message(tap_.bind(env), from, payload);
  }
  void on_timer(lp::protocol::Env& env, lp::protocol::TimerToken token) override {
    inner_.on_timer(tap_.bind(env), token);
  }
  void on_client_request(lp::protocol::Env& env, lp::protocol::NodeId from,
                         const std::shared_ptr<const lp::proto::ClientRequestMsg>& msg) override {
    inner_.on_client_request(tap_.bind(env), from, msg);
  }

 private:
  class Tap final : public lp::protocol::Env {
   public:
    explicit Tap(CheckedClient& owner) : owner_(owner) {}
    Tap& bind(lp::protocol::Env& env) {
      env_ = &env;
      return *this;
    }
    [[nodiscard]] lp::sim::SimTime now() const override { return env_->now(); }
    [[nodiscard]] const lp::sim::CostModel& costs() const override { return env_->costs(); }
    void apply(lp::protocol::Action action) override {
      if (const auto* s = std::get_if<lp::protocol::Send>(&action)) {
        if (const auto* cr = dynamic_cast<const lp::proto::ClientRequestMsg*>(s->payload.get())) {
          auto& sub = owner_.submitted_;
          for (const auto& r : cr->requests) {
            if (sub.size() <= r.seq) sub.resize(std::max<std::size_t>(r.seq + 1, sub.size() * 2));
            sub[r.seq] = r.submitted_at;
          }
        }
      }
      env_->apply(std::move(action));
    }

   private:
    CheckedClient& owner_;
    lp::protocol::Env* env_ = nullptr;
  };

  lp::core::LeopardClient& inner_;
  Checker& checker_;
  lp::sim::NodeId maker_;
  Tap tap_;
  std::vector<lp::sim::SimTime> submitted_;  // by seq
};

/// Exact quantile (nearest rank) of `v`, in seconds.
double quantile_s(std::vector<lp::sim::SimTime>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return lp::sim::to_seconds(v[k]);
}

constexpr std::uint32_t kN = 256;
constexpr std::uint32_t kAlpha = 4000;
constexpr std::uint32_t kTau = 300;
constexpr std::uint32_t kPayload = 128;
constexpr double kRate = 100000;          // offered req/s over all clients
constexpr std::uint32_t kBacklog = 4000;  // per client group, injected at start
constexpr double kWindow = 4.0 * kTau * kAlpha / kRate;  // 48 s simulated
constexpr auto kStallS = 4 * lp::sim::kSecond;

struct Args {
  std::uint64_t seed = 1;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else {
      std::fprintf(stderr, "pb_sim: unknown flag %s\n", k.c_str());
      std::exit(2);
    }
  }
  return a;
}

std::size_t vm_hwm_kib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtoull(line + 6, nullptr, 10);
  }
  std::fclose(f);
  return kib;
}

/// Feeds the checker doctored execution streams and acks; every doctored
/// case must be flagged and the clean one must not. Returns the number of
/// cases that went unflagged (or were flagged when clean).
int self_test() {
  const auto block = [](lp::proto::ReplicaId maker, std::uint64_t counter,
                        std::vector<std::uint64_t> seqs) {
    lp::proto::Datablock db;
    db.maker = maker;
    db.counter = counter;
    for (const auto seq : seqs) {
      lp::proto::Request r;
      r.client_id = 100 + maker;
      r.seq = seq;
      r.payload_size = 8;
      db.requests.push_back(r);
    }
    return std::make_shared<lp::proto::DatablockMsg>(std::move(db));
  };
  const auto exec = [](Checker& c, std::uint32_t replica, const lp::sim::PayloadPtr& b,
                       std::uint64_t seq, std::uint32_t ordinal) {
    const auto* db = dynamic_cast<const lp::proto::DatablockMsg*>(b.get());
    c.on_execute(replica, lp::protocol::Execute{b, db->datablock.requests.size(), seq, ordinal},
                 0);
  };
  const auto fresh = [] {
    Checker c;
    c.last_exec.assign(4, {0, 0});
    c.any_exec.assign(4, false);
    return c;
  };
  const auto a = block(0, 1, {0, 1, 2});
  const auto b = block(2, 1, {0, 1});
  const auto clean = [&](Checker& c) {
    for (std::uint32_t r = 0; r < 4; ++r) {
      exec(c, r, a, 1, 0);
      exec(c, r, b, 1, 1);
    }
  };
  int wrong = 0;
  const auto expect = [&](const char* name, bool flagged, bool want) {
    std::printf("%-32s %s\n", name, flagged == want ? "ok" : "WRONG");
    if (flagged != want) ++wrong;
  };
  {
    auto c = fresh();
    clean(c);
    c.on_ack(0, 0, 100, 1);
    expect("clean stream", c.digest_mismatch_reqs + c.reexecuted_reqs + c.duplicate_reqs +
                               c.bad_acks > 0, false);
  }
  {
    auto c = fresh();
    clean(c);
    exec(c, 0, block(0, 2, {2, 3}), 2, 0);  // request (100, 2) again in a new block
    expect("request in two blocks", c.duplicate_reqs > 0, true);
  }
  {
    auto c = fresh();
    clean(c);
    exec(c, 1, a, 1, 0);  // replica 1 replays (1, 0)
    expect("block executed twice", c.reexecuted_reqs > 0, true);
  }
  {
    auto c = fresh();
    exec(c, 0, a, 1, 0);
    exec(c, 3, block(0, 1, {0, 1, 5}), 1, 0);  // different content at (1, 0)
    expect("replicas diverge", c.digest_mismatch_reqs > 0, true);
  }
  {
    auto c = fresh();
    exec(c, 1, a, 1, 0);  // executed, but not at its maker (replica 0)
    c.on_ack(0, 0, 100, 1);
    expect("ack before maker executed", c.bad_acks > 0, true);
  }
  {
    auto c = fresh();
    clean(c);
    c.on_ack(3, 0, 100, 1);  // ack from a replica that is not the maker
    expect("ack from a non-maker", c.bad_acks > 0, true);
  }
  return wrong;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return self_test() == 0 ? 0 : 1;
  const Args args = parse(argc, argv);
  const auto setup_t0 = Clock::now();

  lp::sim::Simulator sim;
  lp::sim::NetworkConfig net_cfg;
  lp::sim::Network net(sim, net_cfg);
  const std::uint32_t n = kN;
  const std::uint32_t f = (n - 1) / 3;
  const lp::crypto::ThresholdScheme ts(n, 2 * f + 1, args.seed);
  lp::core::ProtocolMetrics metrics;
  const lp::sim::NodeId leader = 1;

  lp::core::LeopardConfig lcfg;
  lcfg.n = n;
  lcfg.datablock_requests = kAlpha;
  lcfg.bftblock_links = kTau;
  lcfg.payload_size = kPayload;
  lcfg.mempool_capacity = std::max<std::uint32_t>(3 * kAlpha, kBacklog);
  lcfg.view_timeout = 3600 * lp::sim::kSecond;  // saturation: no spurious view changes
  lp::protocol::ProtocolSpec spec;
  spec.config = lcfg;

  Checker checker;
  checker.last_exec.assign(n, {0, 0});
  checker.any_exec.assign(n, false);

  std::vector<std::unique_ptr<lp::protocol::Protocol>> cores;
  std::vector<TracedCore*> traced;
  std::vector<std::unique_ptr<lp::protocol::SimEnv>> envs;
  for (std::uint32_t id = 0; id < n; ++id) {
    auto core = lp::protocol::make_protocol(spec, ts, static_cast<lp::proto::ReplicaId>(id));
    if (args.trace) {
      auto t = std::make_unique<TracedCore>(std::move(core), n, net_cfg.frame_overhead_bytes);
      traced.push_back(t.get());
      core = std::move(t);
    }
    auto env = std::make_unique<lp::protocol::SimEnv>(net, metrics, n);
    env->attach(*core);
    const auto node = net.add_node(env.get());
    if (node != id) return 2;
    env->set_node_id(node);
    env->set_execute_observer(
        [&checker, &sim, id](const lp::protocol::Execute& e) { checker.on_execute(id, e, sim.now()); });
    cores.push_back(std::move(core));
    envs.push_back(std::move(env));
  }

  std::vector<std::unique_ptr<lp::core::LeopardClient>> clients;
  std::vector<std::unique_ptr<CheckedClient>> checked;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (id == leader) continue;
    lp::core::ClientConfig ccfg;
    ccfg.request_rate = kRate / static_cast<double>(n - 1);
    ccfg.payload_size = kPayload;
    ccfg.initial_backlog = kBacklog;
    auto client = std::make_unique<lp::core::LeopardClient>(ccfg, id, n, leader,
                                                            args.seed * 1000003ULL + id);
    auto wrap = std::make_unique<CheckedClient>(*client, checker, id);
    auto env = std::make_unique<lp::protocol::SimEnv>(net, metrics, n);
    env->attach(*wrap);
    const auto node = net.add_node(env.get(), /*metered=*/false);
    client->set_self_id(node);
    env->set_node_id(node);
    clients.push_back(std::move(client));
    checked.push_back(std::move(wrap));
    envs.push_back(std::move(env));
  }
  net.start_all();
  const double setup_s = secs_since(setup_t0);

  const auto run_t0 = Clock::now();
  const auto measure = lp::sim::from_seconds(kWindow);
  std::size_t events = 0;
  const double cpu0 = cpu_seconds();

  // The window runs in 1-s slices; the per-slice commits at the observer go
  // to stderr, so a window that has not reached steady state shows.
  std::fprintf(stderr, "commits per simulated second:");
  lp::sim::SimTime t = 0;
  bool stalled = false;
  while (t < measure && !stalled) {
    const auto next = std::min(t + lp::sim::kSecond, measure);
    const auto before = checker.observer_executed;
    events += sim.run_until(next);
    std::fprintf(stderr, " %llu", static_cast<unsigned long long>(checker.observer_executed - before));
    t = next;
    stalled = checker.observer_executed > 0 && t - checker.last_commit_at >= kStallS;
  }
  std::fprintf(stderr, "\n");
  const double run_wall_s = secs_since(run_t0);
  const auto committed = checker.observer_executed;
  const double commit_s = lp::sim::to_seconds(checker.last_commit_at);
  const double commit_cpu_s = committed > 0 ? checker.last_commit_cpu_s - cpu0 : 0.0;
  std::uint64_t injected = 0;
  for (const auto& c : clients) injected += c->submitted();

  // Failures: requests executed twice or differently, acks without a prior
  // execution at the maker, and more commits than injections.
  std::uint64_t failed = checker.digest_mismatch_reqs + checker.reexecuted_reqs +
                         checker.duplicate_reqs + checker.bad_acks;
  if (checker.observer_executed > injected) failed += checker.observer_executed - injected;
  const std::uint64_t queued =
      injected > checker.observer_executed ? injected - checker.observer_executed : 0;

  const auto& traffic = net.traffic();
  const double payload_bits = static_cast<double>(committed) * kPayload * 8.0;
  double scaling = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const double bits =
        8.0 * static_cast<double>(traffic.total_bytes(r, lp::sim::Direction::kSend) +
                                  traffic.total_bytes(r, lp::sim::Direction::kReceive));
    if (payload_bits > 0) scaling = std::max(scaling, bits / payload_bits);
  }
  const auto per_req = [&](lp::sim::NodeId r, lp::sim::Direction d) {
    return committed > 0 ? static_cast<double>(traffic.total_bytes(r, d)) /
                               static_cast<double>(committed)
                         : 0.0;
  };
  double replica_send = 0;
  double replica_recv = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    if (r == leader) continue;
    replica_send += per_req(r, lp::sim::Direction::kSend);
    replica_recv += per_req(r, lp::sim::Direction::kReceive);
  }
  replica_send /= (n - 1);
  replica_recv /= (n - 1);

  std::printf("{\"setup_s\": %.6f, \"run_wall_s\": %.6f, \"commit_cpu_s\": %.6f,"
              " \"injected\": %llu, \"failed\": %llu, \"queued\": %llu, \"committed\": %llu,"
              " \"bftblocks\": %llu, \"last_commit_s\": %.6f, \"window_s\": %.6f, \"stalled\": %s,",
              setup_s, run_wall_s, commit_cpu_s, static_cast<unsigned long long>(injected),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(queued),
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(checker.observer_blocks), commit_s,
              lp::sim::to_seconds(t), stalled ? "true" : "false");
  std::printf(" \"checks\": {\"digest_mismatch_reqs\": %llu, \"reexecuted_reqs\": %llu,"
              " \"duplicate_reqs\": %llu, \"bad_acks\": %llu,"
              " \"observer_executed\": %llu},",
              static_cast<unsigned long long>(checker.digest_mismatch_reqs),
              static_cast<unsigned long long>(checker.reexecuted_reqs),
              static_cast<unsigned long long>(checker.duplicate_reqs),
              static_cast<unsigned long long>(checker.bad_acks),
              static_cast<unsigned long long>(checker.observer_executed));
  std::printf(" \"sim_kreq_s\": %.6f, \"sim_commit_p50_s\": %.6f, \"sim_commit_p99_s\": %.6f,"
              " \"ack_samples\": %llu, \"peak_rss_mib\": %.3f, \"safety_violation\": %s,",
              commit_s > 0 ? static_cast<double>(committed) / commit_s / 1e3 : 0.0, quantile_s(checker.latencies, 0.50),
              quantile_s(checker.latencies, 0.99),
              static_cast<unsigned long long>(checker.latencies.size()),
              static_cast<double>(vm_hwm_kib()) / 1024.0,
              metrics.safety_violation ? "true" : "false");
  std::printf(" \"scaling_factor\": %.6f, \"leader_bytes_per_req\": {\"send\": %.4f, \"recv\": %.4f},"
              " \"replica_bytes_per_req\": {\"send\": %.4f, \"recv\": %.4f},"
              " \"events_per_s\": %.1f",
              scaling, per_req(leader, lp::sim::Direction::kSend),
              per_req(leader, lp::sim::Direction::kReceive), replica_send, replica_recv,
              run_wall_s > 0 ? static_cast<double>(events) / run_wall_s : 0.0);
  if (args.trace) {
    // Window deltas of the tracing decorator's tallies.
    double core_wall = 0;
    for (const auto* t : traced) {
      for (const auto w : t->tally().wall_s) core_wall += w;
    }
    const auto window_cpu = [&](std::size_t r, std::size_t slot) {
      return traced[r]->tally().cpu_ns[slot];
    };
    double leader_busy = 0;
    double replica_busy = 0;
    for (std::size_t slot = 0; slot <= kComponents; ++slot) {
      leader_busy += window_cpu(leader, slot);
      for (std::uint32_t r = 0; r < n; ++r) {
        if (r != leader) replica_busy += window_cpu(r, slot);
      }
    }
    const double window_ns = static_cast<double>(t);
    std::printf(", \"core_wall_s\": %.6f, \"engine_self_s\": %.6f,"
                " \"leader_cpu_busy_frac\": %.6f, \"replica_cpu_busy_frac\": %.6f,"
                " \"leader_cpu_ms_per_kreq\": {",
                core_wall, std::max(0.0, run_wall_s - core_wall), leader_busy / window_ns,
                replica_busy / (n - 1) / window_ns);
    const struct {
      const char* name;
      std::size_t slot;
    } kParts[] = {
        {"datablock", static_cast<std::size_t>(lp::sim::Component::kDatablock)},
        {"ready", static_cast<std::size_t>(lp::sim::Component::kReady)},
        {"bftblock", static_cast<std::size_t>(lp::sim::Component::kBftBlock)},
        {"vote", static_cast<std::size_t>(lp::sim::Component::kVote)},
        {"proof", static_cast<std::size_t>(lp::sim::Component::kProof)},
        {"checkpoint", static_cast<std::size_t>(lp::sim::Component::kCheckpoint)},
        {"client_request", static_cast<std::size_t>(lp::sim::Component::kClientRequest)},
    };
    bool first = true;
    for (const auto& part : kParts) {
      const double ms = window_cpu(leader, part.slot) / 1e6;
      std::printf("%s\"%s\": %.6f", first ? "" : ", ", part.name,
                  committed > 0 ? ms / (static_cast<double>(committed) / 1e3) : 0.0);
      first = false;
    }
    std::printf("}");
  }
  std::printf("}\n");
  return 0;
}
