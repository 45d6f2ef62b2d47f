#include "netem/capture.h"

#include <bit>
#include <cstdio>

#include "common/check.h"

namespace turret::netem {

std::string_view disposition_name(PacketDisposition d) {
  switch (d) {
    case PacketDisposition::kSent: return "sent";
    case PacketDisposition::kLost: return "lost";
    case PacketDisposition::kPartitioned: return "partitioned";
    case PacketDisposition::kDelivered: return "delivered";
    case PacketDisposition::kRejected: return "rejected";
    case PacketDisposition::kProxyDropped: return "proxy-dropped";
    case PacketDisposition::kProxyHeld: return "proxy-held";
    case PacketDisposition::kUnroutable: return "unroutable";
  }
  return "?";
}

void PacketRecord::save(serial::Writer& w) const {
  w.i64(t);
  w.u32(src);
  w.u32(dst);
  w.u64(msg_id);
  w.u16(frag_index);
  w.u16(frag_count);
  w.u32(size);
  w.u8(static_cast<std::uint8_t>(disposition));
  w.i64(delay);
  w.bytes(head);
}

PacketRecord PacketRecord::load(serial::Reader& r) {
  PacketRecord p;
  p.t = r.i64();
  p.src = r.u32();
  p.dst = r.u32();
  p.msg_id = r.u64();
  p.frag_index = r.u16();
  p.frag_count = r.u16();
  p.size = r.u32();
  p.disposition = static_cast<PacketDisposition>(r.u8());
  p.delay = r.i64();
  p.head = r.bytes();
  return p;
}

void LinkCounters::save(serial::Writer& w) const {
  w.u64(bytes);
  w.u64(packets);
  w.u64(drops);
  queue_delay.save(w);
}

void LinkCounters::load(serial::Reader& r) {
  bytes = r.u64();
  packets = r.u64();
  drops = r.u64();
  queue_delay.load(r);
}

FlightRecorder::FlightRecorder(const CaptureSpec& spec, std::uint32_t nodes)
    : spec_(spec), nodes_(nodes) {
  TURRET_CHECK_MSG(spec_.ring_capacity > 0, "flight recorder needs capacity");
  links_.resize(static_cast<std::size_t>(nodes_) * nodes_);
}

void FlightRecorder::record(PacketRecord rec) {
  if (rec.head.size() > spec_.snaplen) rec.head.resize(spec_.snaplen);
  if (rec.src < nodes_ && rec.dst < nodes_) {
    LinkCounters& c =
        links_[static_cast<std::size_t>(rec.src) * nodes_ + rec.dst];
    switch (rec.disposition) {
      case PacketDisposition::kSent:
        c.bytes += rec.size;
        ++c.packets;
        c.queue_delay.add(rec.delay);
        break;
      case PacketDisposition::kLost:
      case PacketDisposition::kPartitioned:
      case PacketDisposition::kRejected:
      case PacketDisposition::kProxyDropped:
        ++c.drops;
        break;
      case PacketDisposition::kDelivered:
      case PacketDisposition::kProxyHeld:
      case PacketDisposition::kUnroutable:  // no link: dst is out of range
        break;  // ring-only: neither a transmission nor a loss
    }
  }
  if (ring_.size() < spec_.ring_capacity) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[head_] = std::move(rec);
    head_ = (head_ + 1) % ring_.size();
  }
  ++total_;
}

std::vector<PacketRecord> FlightRecorder::records() const {
  std::vector<PacketRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::uint64_t FlightRecorder::overwritten() const {
  return total_ - std::min<std::uint64_t>(total_, ring_.size());
}

const LinkCounters& FlightRecorder::link(NodeId src, NodeId dst) const {
  TURRET_CHECK(src < nodes_ && dst < nodes_);
  return links_[static_cast<std::size_t>(src) * nodes_ + dst];
}

CaptureSummary FlightRecorder::summary() const {
  CaptureSummary s;
  s.nodes = nodes_;
  s.total_records = total_;
  s.overwritten = overwritten();
  return s;
}

void FlightRecorder::save(serial::Writer& w) const {
  w.vec(ring_, [](serial::Writer& ww, const PacketRecord& p) { p.save(ww); });
  w.u64(head_);
  w.u64(total_);
  w.vec(links_, [](serial::Writer& ww, const LinkCounters& c) { c.save(ww); });
}

void FlightRecorder::load(serial::Reader& r) {
  ring_ = r.vec<PacketRecord>(
      [](serial::Reader& rr) { return PacketRecord::load(rr); });
  TURRET_CHECK_MSG(ring_.size() <= spec_.ring_capacity,
                   "capture snapshot exceeds the configured ring capacity");
  head_ = static_cast<std::size_t>(r.u64());
  total_ = r.u64();
  auto links = r.vec<LinkCounters>([](serial::Reader& rr) {
    LinkCounters c;
    c.load(rr);
    return c;
  });
  TURRET_CHECK_MSG(links.size() == links_.size(),
                   "capture snapshot topology does not match config");
  links_ = std::move(links);
}

// ---------------------------------------------------------------------------
// pcapng export
// ---------------------------------------------------------------------------

namespace {

// Fixed per-frame metadata prefix in exported packets (see capture.h).
constexpr std::size_t kFrameHeader = 24;
constexpr std::uint16_t kLinktypeUser0 = 147;

void pad32(serial::Writer& w) {
  while (w.size() % 4 != 0) w.u8(0);
}

}  // namespace

void write_pcapng(const std::string& path,
                  const std::vector<PacketRecord>& records,
                  std::uint32_t snaplen) {
  serial::Writer w;

  // Section Header Block.
  w.u32(0x0A0D0D0A);
  w.u32(28);
  w.u32(0x1A2B3C4D);  // byte-order magic: we always write little-endian
  w.u16(1);
  w.u16(0);
  w.u64(0xFFFFFFFFFFFFFFFFull);  // section length unknown
  w.u32(28);

  // Interface Description Block: USER0, nanosecond timestamps.
  w.u32(0x00000001);
  w.u32(32);
  w.u16(kLinktypeUser0);
  w.u16(0);
  w.u32(snaplen + kFrameHeader);
  w.u16(9);  // if_tsresol
  w.u16(1);
  w.u8(9);  // 10^-9 seconds
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u16(0);  // opt_endofopt
  w.u16(0);
  w.u32(32);

  for (const PacketRecord& p : records) {
    const std::uint32_t cap =
        static_cast<std::uint32_t>(kFrameHeader + p.head.size());
    const std::uint32_t orig =
        static_cast<std::uint32_t>(kFrameHeader) + p.size;
    const std::uint32_t padded = (cap + 3u) & ~3u;
    const std::uint32_t block_len = 32 + padded;
    const std::uint64_t ts = static_cast<std::uint64_t>(p.t);

    w.u32(0x00000006);  // Enhanced Packet Block
    w.u32(block_len);
    w.u32(0);  // interface id
    w.u32(static_cast<std::uint32_t>(ts >> 32));
    w.u32(static_cast<std::uint32_t>(ts & 0xFFFFFFFFull));
    w.u32(cap);
    w.u32(orig);
    w.u32(p.src);
    w.u32(p.dst);
    w.u64(p.msg_id);
    w.u16(p.frag_index);
    w.u16(p.frag_count);
    w.u16(static_cast<std::uint16_t>(p.disposition));
    w.u16(0);
    w.raw_bytes(p.head);
    pad32(w);
    w.u32(block_len);
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot write pcapng file: " + path);
  const Bytes& buf = w.data();
  const std::size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (written != buf.size())
    throw std::runtime_error("short write to pcapng file: " + path);
}

}  // namespace turret::netem
