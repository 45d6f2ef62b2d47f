// Emulator hot-path throughput: zero-copy message fabric + compact-key heap
// dispatch vs the pre-fabric design, on a 100-node fleet.
//
// The measured side is the real netem::Emulator (refcounted MessageBuf views
// for fragmentation/reassembly, a binary heap of 24-byte (at, seq, node*)
// keys over slab-pooled event nodes, flat link/reassembly tables). The
// baseline reimplements, faithfully and in this file, the algorithm the
// emulator used before the fabric: a binary heap of whole events whose
// packets own freshly copied Bytes payloads, per-fragment payload copies at
// fragmentation, memcpy-into-place std::map reassembly, and a std::map probe
// for link overrides on every transmit. Both sides run the identical message
// storm with identical link arithmetic and the identical per-packet bundled
// device work (header sanity + 16-bit checksum scan), so the ratio isolates
// the data-path change.
//
// Output: one JSON object. --min-ratio R exits nonzero when the fabric
// path fails to beat the baseline by at least R× events/sec — CI runs this
// with --min-ratio 2 as the emulator-perf regression gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "netem/emulator.h"

namespace {

using namespace turret;

struct StormSpec {
  std::uint32_t nodes = 100;
  std::size_t payload_bytes = 4000;  ///< ~3 fragments at the 1500-byte MTU
  int rounds = 60;                   ///< full all-to-one waves per run
};

netem::NetConfig storm_config(const StormSpec& s) {
  netem::NetConfig cfg;
  cfg.nodes = s.nodes;
  cfg.mtu = 1500;
  cfg.default_link.delay = kMillisecond;
  cfg.default_link.bandwidth_bps = 1e9;
  // A real topology has heterogeneous links; a sprinkle of overrides makes
  // the per-transmit link lookup honest for both sides (the baseline probes
  // the std::map exactly like the old emulator did).
  for (std::uint32_t src = 0; src < s.nodes; ++src) {
    for (std::uint32_t dst = 0; dst < s.nodes; ++dst) {
      if ((src + dst) % 7 != 0) continue;
      netem::LinkSpec wan = cfg.default_link;
      wan.delay = 2 * kMillisecond;
      cfg.link_overrides[netem::NetConfig::pair_key(src, dst)] = wan;
    }
  }
  return cfg;
}

struct Result {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t checksum = 0;
  double wall_ns = 0;
  double events_per_sec() const {
    return wall_ns <= 0 ? 0 : static_cast<double>(events) * 1e9 / wall_ns;
  }
};

/// Every message of every round, built before the clock starts: producing
/// the bytes is the guest's cost, not the emulator's, and it would otherwise
/// dominate both sides equally and flatten the ratio. The storm moves these
/// into send_message, exactly like a guest handing off an encoded message.
std::vector<std::vector<Bytes>> build_storm(const StormSpec& s) {
  std::vector<std::vector<Bytes>> rounds(s.rounds);
  for (int round = 0; round < s.rounds; ++round) {
    rounds[round].reserve(s.nodes);
    for (std::uint32_t src = 0; src < s.nodes; ++src) {
      Bytes payload(s.payload_bytes);
      for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i + src + round);
      rounds[round].push_back(std::move(payload));
    }
  }
  return rounds;
}

// ---------------------------------------------------------------------------
// Measured side: the real emulator.
// ---------------------------------------------------------------------------

struct CountingSink : netem::MessageSink {
  std::uint64_t messages = 0;
  std::uint64_t checksum = 0;
  void on_message(NodeId, NodeId, MessageBuf m) override {
    ++messages;
    checksum += m.empty() ? 0 : m[0];
  }
  void on_event(const netem::Event&) override {}
};

Result run_emulator(const StormSpec& s, std::vector<std::vector<Bytes>> storm) {
  netem::Emulator emu(storm_config(s));
  CountingSink sink;
  emu.set_sink(&sink);
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < s.rounds; ++round) {
    for (std::uint32_t src = 0; src < s.nodes; ++src) {
      const NodeId dst =
          static_cast<NodeId>((src + 1 + round % (s.nodes - 1)) % s.nodes);
      emu.send_message(src, dst, std::move(storm[round][src]));
    }
    emu.run_for(kSecond);  // drain the wave
  }
  const auto t1 = std::chrono::steady_clock::now();
  Result r;
  r.events = emu.stats().events_processed;
  r.messages = sink.messages;
  r.checksum = sink.checksum;
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return r;
}

// ---------------------------------------------------------------------------
// Baseline: the pre-change algorithm, verbatim in miniature.
// ---------------------------------------------------------------------------

struct BaselinePacket {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::uint32_t msg_bytes = 0;
  Bytes payload;  ///< owned copy, as the old Packet carried
  std::size_t wire_size() const { return payload.size() + 54; }
};

struct BaselineEvent {
  Time at = 0;
  std::uint64_t seq = 0;
  BaselinePacket packet;
  bool operator>(const BaselineEvent& o) const {
    if (at != o.at) return at > o.at;
    return seq > o.seq;
  }
};

class BaselineEmulator {
 public:
  explicit BaselineEmulator(netem::NetConfig cfg) : cfg_(std::move(cfg)) {
    links_.resize(static_cast<std::size_t>(cfg_.nodes) * cfg_.nodes);
  }

  void send_message(NodeId src, NodeId dst, Bytes message) {
    const netem::LinkSpec& spec = link_spec(src, dst);
    const std::uint64_t msg_id = next_msg_id_++;
    const std::size_t total = message.size();
    const std::size_t mtu = cfg_.mtu;
    const auto frag_count = static_cast<std::uint16_t>(
        total == 0 ? 1 : (total + mtu - 1) / mtu);
    Time& busy_until = links_[static_cast<std::size_t>(src) * cfg_.nodes + dst];
    Time cursor = std::max(now_, busy_until);
    for (std::uint16_t i = 0; i < frag_count; ++i) {
      BaselinePacket p;
      p.src = src;
      p.dst = dst;
      p.msg_id = msg_id;
      p.frag_index = i;
      p.frag_count = frag_count;
      p.msg_bytes = static_cast<std::uint32_t>(total);
      const std::size_t off = static_cast<std::size_t>(i) * mtu;
      const std::size_t len = std::min(mtu, total - off);
      // The old hot path: one owned copy per fragment.
      p.payload.assign(message.begin() + static_cast<std::ptrdiff_t>(off),
                       message.begin() + static_cast<std::ptrdiff_t>(off + len));
      const double bits = static_cast<double>(p.wire_size()) * 8.0;
      const auto ser =
          static_cast<Duration>(bits / spec.bandwidth_bps * kSecond);
      cursor += std::max<Duration>(ser, 1);
      BaselineEvent e;
      e.at = cursor + spec.delay;
      e.seq = next_seq_++;
      e.packet = std::move(p);
      queue_.push_back(std::move(e));
      std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
    }
    busy_until = cursor;
  }

  void run_until(Time t) {
    while (!queue_.empty() && queue_.front().at <= t) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
      BaselineEvent ev = std::move(queue_.back());
      queue_.pop_back();
      now_ = ev.at;
      ++events_;
      deliver(ev.packet);
    }
    if (now_ < t) now_ = t;
  }

  std::uint64_t events() const { return events_; }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  struct Reassembly {
    std::uint32_t received = 0;
    Bytes data;
    std::vector<bool> have;
  };

  const netem::LinkSpec& link_spec(NodeId src, NodeId dst) const {
    // The old per-send probe of the config's override map.
    auto it = cfg_.link_overrides.find(netem::NetConfig::pair_key(src, dst));
    return it == cfg_.link_overrides.end() ? cfg_.default_link : it->second;
  }

  /// BundledDevice::receive, verbatim for the baseline's packet type: the
  /// old emulator ran this per fragment, so the baseline must too.
  bool device_receive(const BaselinePacket& p) {
    if (p.frag_index >= p.frag_count || p.payload.size() > p.msg_bytes)
      return false;
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i + 1 < p.payload.size(); i += 2)
      sum += static_cast<std::uint32_t>(p.payload[i] << 8) | p.payload[i + 1];
    sum = (sum & 0xffff) + (sum >> 16);
    if (sum == 0xdead) ++device_drops_;
    ++device_packets_;
    device_bytes_ += p.wire_size();
    return true;
  }

  void deliver(const BaselinePacket& p) {
    if (!device_receive(p)) return;
    if (p.frag_count == 1) {
      ++messages_;
      checksum_ += p.payload.empty() ? 0 : p.payload[0];
      return;
    }
    Reassembly& re = reassembly_[p.msg_id];
    if (re.data.empty() && re.received == 0) {
      re.data.resize(p.msg_bytes);
      re.have.assign(p.frag_count, false);
    }
    if (re.have[p.frag_index]) return;
    re.have[p.frag_index] = true;
    ++re.received;
    const std::size_t off = static_cast<std::size_t>(p.frag_index) * cfg_.mtu;
    std::memcpy(re.data.data() + off, p.payload.data(), p.payload.size());
    if (re.received == p.frag_count) {
      Bytes whole = std::move(re.data);
      reassembly_.erase(p.msg_id);
      ++messages_;
      checksum_ += whole.empty() ? 0 : whole[0];
    }
  }

  netem::NetConfig cfg_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_msg_id_ = 1;
  std::vector<BaselineEvent> queue_;
  std::vector<Time> links_;  ///< busy_until per ordered pair
  std::map<std::uint64_t, Reassembly> reassembly_;
  std::uint64_t events_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint64_t device_packets_ = 0;
  std::uint64_t device_bytes_ = 0;
  std::uint64_t device_drops_ = 0;
};

Result run_baseline(const StormSpec& s, std::vector<std::vector<Bytes>> storm) {
  BaselineEmulator emu(storm_config(s));
  const auto t0 = std::chrono::steady_clock::now();
  Time horizon = 0;
  for (int round = 0; round < s.rounds; ++round) {
    for (std::uint32_t src = 0; src < s.nodes; ++src) {
      const NodeId dst =
          static_cast<NodeId>((src + 1 + round % (s.nodes - 1)) % s.nodes);
      emu.send_message(src, dst, std::move(storm[round][src]));
    }
    horizon += kSecond;
    emu.run_until(horizon);
  }
  const auto t1 = std::chrono::steady_clock::now();
  Result r;
  r.events = emu.events();
  r.messages = emu.messages();
  r.checksum = emu.checksum();
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return r;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  StormSpec spec;
  double min_ratio = 0;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--nodes") spec.nodes = static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--rounds") spec.rounds = std::stoi(next());
    else if (arg == "--payload") spec.payload_bytes = std::stoul(next());
    else if (arg == "--min-ratio") min_ratio = std::stod(next());
    else if (arg == "--reps") reps = std::max(1, std::stoi(next()));
  }

  // Warmup (page in, size tables), then best-of-N measured runs per side,
  // interleaved so transient machine load penalizes both sides alike. Both
  // sides are deterministic, so the minimum wall is the least-perturbed run.
  {
    StormSpec warm = spec;
    warm.rounds = std::max(2, spec.rounds / 10);
    (void)run_emulator(warm, build_storm(warm));
    (void)run_baseline(warm, build_storm(warm));
  }
  Result fabric = run_emulator(spec, build_storm(spec));
  Result baseline = run_baseline(spec, build_storm(spec));
  for (int rep = 1; rep < reps; ++rep) {
    const Result f = run_emulator(spec, build_storm(spec));
    if (f.wall_ns < fabric.wall_ns) fabric = f;
    const Result b = run_baseline(spec, build_storm(spec));
    if (b.wall_ns < baseline.wall_ns) baseline = b;
  }

  // Identical storms must deliver identical traffic; a mismatch means the
  // baseline is no longer faithful and the ratio is meaningless.
  if (fabric.messages != baseline.messages ||
      fabric.checksum != baseline.checksum) {
    std::fprintf(stderr,
                 "bench_emulator: sides disagree (messages %llu vs %llu)\n",
                 static_cast<unsigned long long>(fabric.messages),
                 static_cast<unsigned long long>(baseline.messages));
    return 2;
  }

  const double ratio =
      baseline.events_per_sec() > 0
          ? fabric.events_per_sec() / baseline.events_per_sec()
          : 0;
  std::printf(
      "{\"schema_version\":1,\"nodes\":%u,\"payload_bytes\":%zu,"
      "\"rounds\":%d,\"messages_delivered\":%llu,"
      "\"fabric\":{\"events\":%llu,\"wall_ns\":%.0f,\"events_per_sec\":%s},"
      "\"heap_baseline\":{\"events\":%llu,\"wall_ns\":%.0f,"
      "\"events_per_sec\":%s},\"ratio\":%s}\n",
      spec.nodes, spec.payload_bytes, spec.rounds,
      static_cast<unsigned long long>(fabric.messages),
      static_cast<unsigned long long>(fabric.events), fabric.wall_ns,
      fmt(fabric.events_per_sec()).c_str(),
      static_cast<unsigned long long>(baseline.events), baseline.wall_ns,
      fmt(baseline.events_per_sec()).c_str(), fmt(ratio).c_str());

  if (min_ratio > 0 && ratio < min_ratio) {
    std::fprintf(stderr,
                 "bench_emulator: ratio %.3f below required %.3f\n", ratio,
                 min_ratio);
    return 1;
  }
  return 0;
}
