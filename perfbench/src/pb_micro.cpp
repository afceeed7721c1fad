// pb_micro: times the library's public per-datablock functions at one
// workload's shapes, for the benchmark's traced runs.
//
//   pb_micro --n N --alpha A --payload B [--seed S] [--store-dir DIR]
//
// Prints one JSON object (microseconds per call unless named otherwise):
//   datablock_digest_us   proto::Datablock::digest() of one datablock
//   datablock_encode_us   net::encode_frame of one DatablockMsg
//   datablock_decode_us   net::decode_payload of that frame
//   erasure_encode_us     ReedSolomon::encode_into of that frame at k = f+1,
//                         min(n, 255) shards
//   erasure_encode_MBps   the same, as frame bytes per second
//   combine_us            ThresholdScheme::combine of 2f+1 shares
//   verify_share_us       ThresholdScheme::verify_share of one share
// and, with --store-dir (a fresh directory the WAL is written in):
//   wal_fsync_us          ReplicaStore::flush after one append of that frame
// Each other figure is the median over repeated batches within 150 ms.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "crypto/threshold_sig.hpp"
#include "erasure/reed_solomon.hpp"
#include "net/wire.hpp"
#include "proto/messages.hpp"
#include "store/replica_store.hpp"
#include "util/rng.hpp"

namespace {

namespace lp = leopard;
using Clock = std::chrono::steady_clock;

/// Median microseconds per call of `fn`, over batches sized to ~1 ms,
/// within `budget_ms`.
double time_us(const std::function<void()>& fn, double budget_ms) {
  fn();  // warm caches and lazy tables
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (us > 1000 || batch > (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 ||
         std::chrono::duration<double, std::milli>(Clock::now() - start).count() < budget_ms) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    samples.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
                      static_cast<double>(batch));
    if (samples.size() >= 1000) break;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median time of ReplicaStore::flush (the WAL's fsync) after one append of
/// `frame`, over 50 append-then-flush rounds: a bounded amount written,
/// whatever the disk's speed.
bool time_fsync(const std::string& dir, const lp::util::Bytes& frame,
                const lp::crypto::Digest& digest, std::uint64_t requests, double& fsync_us) {
  lp::store::StoreOptions opts;
  opts.dir = dir;
  // Group commit whose clock never fires: append leaves the fsync to flush.
  opts.fsync_policy = lp::store::FsyncPolicy::kInterval;
  opts.fsync_interval = std::numeric_limits<lp::sim::SimTime>::max();
  opts.snapshot_every = 0;
  lp::store::ReplicaStore store(opts);
  if (!store.open(lp::store::RecoverMode::kStrict).ok()) return false;
  std::vector<double> samples;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    if (!store.append(i, 0, digest, requests, frame, 0)) return false;
    const auto t0 = Clock::now();
    if (!store.flush()) return false;
    samples.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  fsync_us = samples[samples.size() / 2];
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 4;
  std::uint32_t alpha = 100;
  std::uint32_t payload = 128;
  std::uint64_t seed = 1;
  std::string store_dir;
  const double budget_ms = 150;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--n") n = static_cast<std::uint32_t>(std::atoi(v));
    else if (k == "--alpha") alpha = static_cast<std::uint32_t>(std::atoi(v));
    else if (k == "--payload") payload = static_cast<std::uint32_t>(std::atoi(v));
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--store-dir") store_dir = v;
    else {
      std::fprintf(stderr, "pb_micro: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (n < 4 || alpha == 0) return 2;
  const std::uint32_t f = (n - 1) / 3;

  lp::util::Rng rng(seed);
  lp::proto::Datablock db;
  db.maker = 0;
  db.counter = 1;
  for (std::uint32_t i = 0; i < alpha; ++i) {
    lp::proto::Request r;
    r.client_id = 100;
    r.seq = i;
    r.payload_size = payload;
    r.payload.resize(payload);
    rng.fill(r.payload.data(), payload);
    db.requests.push_back(std::move(r));
  }
  volatile std::uint64_t sink = 0;

  const double digest_us = time_us([&] { sink = sink + db.digest().prefix64(); }, budget_ms);

  const auto msg = std::make_shared<lp::proto::DatablockMsg>(db);
  lp::util::Bytes frame;
  const double encode_us = time_us(
      [&] {
        frame.clear();
        lp::net::encode_frame(*msg, 0, frame);
      },
      budget_ms);
  const auto body = std::span<const std::uint8_t>(frame).subspan(lp::net::kFrameHeaderBytes + 1);
  const double decode_us = time_us(
      [&] {
        const auto p = lp::net::decode_payload(lp::net::MsgType::kDatablock, body, 0);
        sink = sink + (p != nullptr ? 1 : 0);
      },
      budget_ms);

  // GF(2^8) caps a code at 255 shards; larger clusters are timed at 255.
  const lp::erasure::ReedSolomon rs(f + 1, std::min(n, 255u));
  lp::erasure::RsScratch scratch;
  const double rs_us = time_us(
      [&] {
        const auto shards = rs.encode_into(frame, scratch);
        sink = sink + shards.width;
      },
      budget_ms);
  const double rs_mbps = static_cast<double>(frame.size()) / rs_us;  // bytes/µs = MB/s

  const lp::crypto::ThresholdScheme ts(n, 2 * f + 1, seed);
  const auto digest = db.digest();
  std::vector<lp::crypto::SignatureShare> shares;
  for (std::uint32_t i = 0; i < 2 * f + 1; ++i) {
    shares.push_back(ts.sign_share(static_cast<lp::crypto::SignerIndex>(i), digest));
  }
  const double combine_us = time_us(
      [&] {
        const auto sig = ts.combine(digest, shares);
        sink = sink + (sig ? 1 : 0);
      },
      budget_ms);
  const double verify_us =
      time_us([&] { sink = sink + (ts.verify_share(digest, shares[0]) ? 1 : 0); }, budget_ms);

  double fsync_us = 0;
  if (!store_dir.empty() && !time_fsync(store_dir, frame, digest, alpha, fsync_us)) {
    std::fprintf(stderr, "pb_micro: cannot write a WAL in %s\n", store_dir.c_str());
    return 1;
  }

  std::printf(
      "{\"datablock_bytes\": %zu, \"datablock_digest_us\": %.4f, \"datablock_encode_us\": %.4f, "
      "\"datablock_decode_us\": %.4f, \"erasure_encode_us\": %.4f, \"erasure_encode_MBps\": %.3f, "
      "\"combine_us\": %.4f, \"verify_share_us\": %.4f, \"shares\": %u, \"wal_fsync_us\": %.4f}\n",
      frame.size(), digest_us, encode_us, decode_us, rs_us, rs_mbps, combine_us, verify_us,
      2 * f + 1, fsync_us);
  return sink == 0xFFFFFFFFFFFFFFFFULL ? 1 : 0;
}
