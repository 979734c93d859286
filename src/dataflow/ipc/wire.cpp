#include "dataflow/ipc/wire.hpp"

#include "util/checksum.hpp"

namespace drapid::ipc {

namespace {

// magic, kind, partition, error_kind, nine TaskMetrics counters,
// payload_len.
constexpr std::size_t kHeaderWords = 14;
constexpr std::size_t kHeaderBytes = kHeaderWords * sizeof(std::uint64_t);

std::uint64_t read_u64(const char* data) {
  std::uint64_t v;
  std::memcpy(&v, data, sizeof(v));
  return v;
}

}  // namespace

namespace {

void put_header(WireWriter& w, const FrameHeader& frame,
                std::uint64_t payload_len) {
  w.put_u64(kWireMagic);
  w.put_u64(static_cast<std::uint64_t>(frame.kind));
  w.put_u64(frame.partition);
  w.put_u64(static_cast<std::uint64_t>(frame.error_kind));
  w.put_u64(frame.metrics.records_in);
  w.put_u64(frame.metrics.bytes_in);
  w.put_u64(frame.metrics.records_out);
  w.put_u64(frame.metrics.bytes_out);
  w.put_u64(frame.metrics.shuffle_bytes);
  w.put_u64(frame.metrics.spill_bytes);
  w.put_u64(frame.metrics.compute_cost);
  w.put_u64(frame.metrics.attempts);
  w.put_u64(frame.metrics.retry_cost);
  w.put_u64(payload_len);
}

}  // namespace

std::string encode_frame(const TaskFrame& frame) {
  WireWriter w;
  put_header(w, frame, frame.payload.size());
  w.put_bytes(frame.payload.data(), frame.payload.size());
  // Checksum covers every byte after the magic: header words + payload.
  const std::string& bytes = w.buffer();
  Checksum sum;
  sum.update(bytes.data() + sizeof(std::uint64_t),
             bytes.size() - sizeof(std::uint64_t));
  w.put_u64(sum.digest());
  return w.take();
}

FrameParts encode_frame_parts(const FrameHeader& frame, const FrameSpan* spans,
                              std::size_t num_spans) {
  std::uint64_t payload_len = 0;
  for (std::size_t i = 0; i < num_spans; ++i) payload_len += spans[i].size;
  WireWriter w;
  put_header(w, frame, payload_len);
  FrameParts parts;
  parts.header = w.take();
  // Streaming the header tail, then each span in order, digests the same
  // bytes as the equivalent contiguous frame.
  Checksum sum;
  sum.update(parts.header.data() + sizeof(std::uint64_t),
             parts.header.size() - sizeof(std::uint64_t));
  for (std::size_t i = 0; i < num_spans; ++i) {
    sum.update(spans[i].data, spans[i].size);
  }
  WireWriter t;
  t.put_u64(sum.digest());
  parts.trailer = t.take();
  return parts;
}

DecodeStatus try_decode_frame(const char* data, std::size_t size,
                              FrameView& out, std::size_t& consumed) {
  if (size < sizeof(std::uint64_t)) return DecodeStatus::kIncomplete;
  if (read_u64(data) != kWireMagic) return DecodeStatus::kCorrupt;
  if (size < kHeaderBytes) return DecodeStatus::kIncomplete;

  const std::uint64_t kind = read_u64(data + 1 * sizeof(std::uint64_t));
  const std::uint64_t error_kind = read_u64(data + 3 * sizeof(std::uint64_t));
  const std::uint64_t payload_len =
      read_u64(data + (kHeaderWords - 1) * sizeof(std::uint64_t));
  // Reject absurd claims before waiting on them: a flipped length bit must
  // surface as corruption now, not as a coordinator hung on a read.
  if (kind > kMaxFrameKind ||
      error_kind > static_cast<std::uint64_t>(WireErrorKind::kTaskFailure) ||
      payload_len > kMaxWirePayload) {
    return DecodeStatus::kCorrupt;
  }

  const std::size_t total =
      kHeaderBytes + static_cast<std::size_t>(payload_len) +
      sizeof(std::uint64_t);
  if (size < total) return DecodeStatus::kIncomplete;

  const std::uint64_t stored =
      read_u64(data + total - sizeof(std::uint64_t));
  Checksum sum;
  sum.update(data + sizeof(std::uint64_t), total - 2 * sizeof(std::uint64_t));
  if (stored != sum.digest()) return DecodeStatus::kCorrupt;

  WireReader r(data, total - sizeof(std::uint64_t));
  r.get_u64();  // magic
  out.kind = static_cast<FrameKind>(r.get_u64());
  out.partition = r.get_u64();
  out.error_kind = static_cast<WireErrorKind>(r.get_u64());
  out.metrics = TaskMetrics{};
  out.metrics.partition = static_cast<std::size_t>(out.partition);
  out.metrics.records_in = static_cast<std::size_t>(r.get_u64());
  out.metrics.bytes_in = static_cast<std::size_t>(r.get_u64());
  out.metrics.records_out = static_cast<std::size_t>(r.get_u64());
  out.metrics.bytes_out = static_cast<std::size_t>(r.get_u64());
  out.metrics.shuffle_bytes = static_cast<std::size_t>(r.get_u64());
  out.metrics.spill_bytes = static_cast<std::size_t>(r.get_u64());
  out.metrics.compute_cost = static_cast<std::size_t>(r.get_u64());
  out.metrics.attempts = static_cast<std::size_t>(r.get_u64());
  out.metrics.retry_cost = static_cast<std::size_t>(r.get_u64());
  r.get_u64();  // payload_len, already validated
  out.payload_size = static_cast<std::size_t>(payload_len);
  out.payload = r.get_bytes(out.payload_size);
  consumed = total;
  return DecodeStatus::kOk;
}

}  // namespace drapid::ipc
