// Per-link network flight recorder (opt-in observability).
//
// When NetConfig::capture.enabled is set, the emulator records every packet
// decision — scheduled, lost, partitioned, delivered, rejected, or consumed
// by the malicious proxy — into a bounded ring buffer plus per-link counters
// (bytes, packets, drops, queue-delay histogram). The recorder is part of
// Emulator::save()/load(), so a restored branch replays byte-identical
// capture state: the flight recorder obeys the same determinism contract as
// the event queue it observes. Disabled (the default) the emulator carries a
// null pointer and the packet hot path pays a single branch, no allocations.
//
// write_pcapng() exports records for external tooling (Wireshark et al.) as
// a pcapng section with LINKTYPE_USER0 frames: a fixed 24-byte metadata
// header (src, dst, msg_id, fragment, disposition) followed by the captured
// payload head.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "serial/serial.h"

namespace turret::netem {

/// What happened to a packet (or whole message, for pre-fragmentation sites).
enum class PacketDisposition : std::uint8_t {
  kSent = 0,          ///< scheduled for delivery (cleared the sender NIC)
  kLost = 1,          ///< random per-packet loss on the link
  kPartitioned = 2,   ///< link down: whole message silently dropped
  kDelivered = 3,     ///< accepted by the destination net device
  kRejected = 4,      ///< destination net device refused the frame
  kProxyDropped = 5,  ///< malicious proxy returned no deliveries
  kProxyHeld = 6,     ///< malicious proxy held the whole message
  kUnroutable = 7,    ///< guest addressed a node outside the fleet: dropped
};

std::string_view disposition_name(PacketDisposition d);

struct PacketRecord {
  Time t = 0;  ///< emulated time of the decision
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t msg_id = 0;      ///< 0 for pre-fragmentation records
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 0;  ///< 0 = record covers a whole message
  std::uint32_t size = 0;        ///< payload bytes
  PacketDisposition disposition = PacketDisposition::kSent;
  /// kSent: scheduled NIC-queue + link time until delivery. kProxyHeld: the
  /// proxy's hold time. 0 elsewhere.
  Duration delay = 0;
  /// First CaptureSpec::snaplen payload bytes; recorded at origination sites
  /// (kSent, kLost, kPartitioned, kProxy*), empty on the delivery side.
  Bytes head;

  void save(serial::Writer& w) const;
  static PacketRecord load(serial::Reader& r);
};

/// log2 histogram of delays: bucket i counts delays in [2^(i-1), 2^i) µs
/// (bucket 0: < 1 µs, last bucket: everything ≥ 2^14 µs). A thin Duration
/// adapter over the shared common/metrics log2 histogram — bucket layout,
/// quantile semantics, and the 16-raw-u64 snapshot format are inherited, so
/// pre-refactor capture snapshots remain byte-identical.
struct DelayHistogram : metrics::BasicHistogram<16> {
  /// Bucket the delay by whole microseconds (negative clamps to 0).
  void add(Duration d) {
    const std::uint64_t us =
        d <= 0 ? 0 : static_cast<std::uint64_t>(d) / kMicrosecond;
    BasicHistogram::add(us);
  }
};

/// Per ordered (src, dst) pair. `packets`/`bytes` count scheduled
/// transmissions; `drops` counts packets/messages that never reached the
/// destination guest (loss, partition, device reject, proxy drop).
struct LinkCounters {
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  DelayHistogram queue_delay;

  void save(serial::Writer& w) const;
  void load(serial::Reader& r);
};

struct CaptureSpec {
  bool enabled = false;
  std::uint32_t ring_capacity = 4096;   ///< packet records kept (oldest evicted)
  std::uint32_t snaplen = 64;           ///< payload bytes retained per record
  std::uint32_t audit_capacity = 4096;  ///< proxy audit records kept
};

struct CaptureSummary {
  std::uint32_t nodes = 0;
  std::uint64_t total_records = 0;  ///< records ever made
  std::uint64_t overwritten = 0;    ///< evicted by the bounded ring
};

class FlightRecorder {
 public:
  FlightRecorder(const CaptureSpec& spec, std::uint32_t nodes);

  /// Append one record (head truncated to snaplen; oldest evicted when full)
  /// and update the link counters.
  void record(PacketRecord rec);

  /// Records still in the ring, oldest first.
  std::vector<PacketRecord> records() const;

  std::uint64_t total_records() const { return total_; }
  std::uint64_t overwritten() const;
  const LinkCounters& link(NodeId src, NodeId dst) const;
  const std::vector<LinkCounters>& links() const { return links_; }
  CaptureSummary summary() const;
  const CaptureSpec& spec() const { return spec_; }

  void save(serial::Writer& w) const;
  void load(serial::Reader& r);

 private:
  CaptureSpec spec_;
  std::uint32_t nodes_;
  std::vector<PacketRecord> ring_;  ///< grows to ring_capacity, then wraps
  std::size_t head_ = 0;            ///< next slot to overwrite once wrapped
  std::uint64_t total_ = 0;
  std::vector<LinkCounters> links_;  ///< nodes*nodes, row-major by src
};

/// Export records as a pcapng file (one section, one LINKTYPE_USER0
/// interface, one enhanced packet block per record). Throws std::runtime_error
/// when the file cannot be written.
void write_pcapng(const std::string& path,
                  const std::vector<PacketRecord>& records,
                  std::uint32_t snaplen);

}  // namespace turret::netem
