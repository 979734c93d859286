// Checksummed framing for the process backend's worker pool.
//
// The coordinator and each pool worker talk in frames over one Unix-domain
// socket per worker. The format shares the integrity scheme of the spill
// files and archive segments (util/checksum.hpp): a leading 8-byte magic,
// fixed u64 header words, a length-prefixed payload, and a trailing
// word checksum over every byte between magic and checksum. The
// coordinator distinguishes three outcomes per buffered frame — complete
// and valid, incomplete (keep reading), corrupt (treat the worker as dead)
// — so a worker SIGKILLed mid-write is indistinguishable from socket EOF
// and recovers through the same retry path.
//
// The header also carries the task's TaskMetrics counters: kernels run in
// the worker, so the counters they fill live in the worker's heap and must
// ride the wire back with the payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dataflow/metrics.hpp"

namespace drapid::ipc {

/// "DRASPIPC" — same family as the spill magic, distinct stream type.
inline constexpr std::uint64_t kWireMagic = 0x4350495053415244ULL;

/// Frames claiming a payload larger than this are corrupt, not pending: a
/// single flipped length bit must not make the coordinator wait forever for
/// bytes that will never arrive. No real stage partition approaches 1 GiB.
inline constexpr std::uint64_t kMaxWirePayload = 1ull << 30;

/// Thrown by decoders on malformed value payloads (truncated vectors,
/// length overruns). The process executor converts it into a worker death.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class FrameKind : std::uint64_t {
  /// Worker -> parent: task completed. The data stays resident; the payload
  /// is the output's byte size (u64) for narrow stages, empty for wide ones.
  kResult = 0,
  kError = 1,  ///< task or request failed; payload = exception message

  // Stage-protocol frames (PR 10). They share the 14-word header; any
  // kind-specific metadata (set ids, source indices, stage names) rides
  // inside the payload through the value codecs below.
  kStageBegin = 2,  ///< parent -> worker: stage name, kind, kernel, state
  kTaskAssign = 3,  ///< parent -> worker: one task with resolved inputs
  kStageEnd = 4,    ///< parent -> worker: barrier; wide stages assemble now
  kAck = 5,         ///< worker -> parent: stage-end barrier reply
  kFetch = 6,       ///< parent -> worker: send resident partition bytes
  kData = 7,        ///< worker -> parent: kFetch reply
  kRelease = 8,     ///< parent -> worker: drop a resident set
  kShutdown = 9,    ///< parent -> worker: drain and exit cleanly
};

/// Highest kind a well-formed frame may carry; greater values are corruption
/// (a flipped bit), not a protocol from the future.
inline constexpr std::uint64_t kMaxFrameKind =
    static_cast<std::uint64_t>(FrameKind::kShutdown);

/// Exception type carried by a kError frame, so the coordinator rethrows
/// what the body actually threw.
enum class WireErrorKind : std::uint64_t {
  kRuntime = 0,      ///< std::exception -> std::runtime_error
  kTaskFailure = 1,  ///< TaskFailure (attempt budget exhausted in the child)
};

/// The fixed header words of one frame.
struct FrameHeader {
  FrameKind kind = FrameKind::kResult;
  std::uint64_t partition = 0;
  WireErrorKind error_kind = WireErrorKind::kRuntime;
  TaskMetrics metrics;  // partition/records/bytes/attempts/retry_cost
};

/// One task result (or error) as it crosses the socket.
struct TaskFrame : FrameHeader {
  std::string payload;
};

/// A verified frame whose payload is still in the receive buffer: valid
/// until the buffer is consumed past it.
struct FrameView : FrameHeader {
  const char* payload = nullptr;
  std::size_t payload_size = 0;
};

enum class DecodeStatus {
  kOk,          ///< frame decoded; `consumed` bytes may be discarded
  kIncomplete,  ///< prefix of a valid frame; read more bytes
  kCorrupt,     ///< bad magic, absurd length, or checksum mismatch
};

/// Serializes one frame (magic + header + payload + checksum).
std::string encode_frame(const TaskFrame& frame);

/// One span of payload bytes for the vectored send path.
struct FrameSpan {
  const char* data = nullptr;
  std::size_t size = 0;
};

/// Header and trailer for a frame whose payload is supplied as spans, so a
/// sender can writev([header][span...][trailer]) without first copying the
/// payload into one contiguous buffer. The payload is the concatenation of
/// the spans. The byte stream produced by writing header + spans + trailer
/// is identical to encode_frame on a TaskFrame whose payload equals that
/// concatenation (the streaming checksum depends only on the bytes, not on
/// how they were split).
struct FrameParts {
  std::string header;   ///< magic + 13 header words
  std::string trailer;  ///< the 8-byte checksum word
};
FrameParts encode_frame_parts(const FrameHeader& frame, const FrameSpan* spans,
                              std::size_t num_spans);

/// Attempts to decode one frame from the front of `data`, verifying its
/// checksum, without copying the payload. On kOk fills `out` (its payload
/// points into `data`) and sets `consumed` to the frame's full encoded
/// size; otherwise leaves both untouched.
DecodeStatus try_decode_frame(const char* data, std::size_t size,
                              FrameView& out, std::size_t& consumed);

// ---------------------------------------------------------------------------
// Value codecs: the vocabulary pool kernels and frame payloads are built
// from. Every codec is an exact round-trip (decode(encode(x)) == x, byte for
// byte), which is what makes process-backend stage outputs byte-identical to
// locally-computed ones.

class WireWriter {
 public:
  void put_u64(std::uint64_t v) {
    buffer_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void put_bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  std::string take() { return std::move(buffer_); }
  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint64_t get_u64() {
    std::uint64_t v;
    need(sizeof(v));
    std::memcpy(&v, data_ + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  const char* get_bytes(std::size_t size) {
    need(size);
    const char* p = data_ + pos_;
    pos_ += size;
    return p;
  }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t size) const {
    if (size_ - pos_ < size) {
      throw WireError("wire payload truncated: need " + std::to_string(size) +
                      " bytes, have " + std::to_string(size_ - pos_));
    }
  }
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

inline void encode_value(WireWriter& w, const std::string& v) {
  w.put_u64(v.size());
  w.put_bytes(v.data(), v.size());
}
inline void decode_value(WireReader& r, std::string& v) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining()) {
    throw WireError("wire string length exceeds payload");
  }
  v.assign(r.get_bytes(static_cast<std::size_t>(n)),
           static_cast<std::size_t>(n));
}

/// Arithmetic types and trivially-copyable aggregates (the typed-RDD record
/// structs) ship as raw in-memory bytes: both ends are the same binary.
template <typename T,
          typename = std::enable_if_t<std::is_trivially_copyable_v<T> &&
                                      !std::is_same_v<T, std::string>>>
inline void encode_value(WireWriter& w, const T& v) {
  w.put_bytes(&v, sizeof(T));
}
template <typename T,
          typename = std::enable_if_t<std::is_trivially_copyable_v<T> &&
                                      !std::is_same_v<T, std::string>>>
inline void decode_value(WireReader& r, T& v) {
  std::memcpy(&v, r.get_bytes(sizeof(T)), sizeof(T));
}

template <typename A, typename B>
inline void encode_value(WireWriter& w, const std::pair<A, B>& v) {
  encode_value(w, v.first);
  encode_value(w, v.second);
}
template <typename A, typename B>
inline void decode_value(WireReader& r, std::pair<A, B>& v) {
  decode_value(r, v.first);
  decode_value(r, v.second);
}

template <typename T>
inline void encode_value(WireWriter& w, const std::optional<T>& v) {
  w.put_u64(v.has_value() ? 1 : 0);
  if (v.has_value()) encode_value(w, *v);
}
template <typename T>
inline void decode_value(WireReader& r, std::optional<T>& v) {
  const std::uint64_t has = r.get_u64();
  if (has > 1) throw WireError("wire optional tag out of range");
  if (has) {
    T value{};
    decode_value(r, value);
    v = std::move(value);
  } else {
    v.reset();
  }
}

template <typename T>
inline void encode_value(WireWriter& w, const std::vector<T>& v) {
  w.put_u64(v.size());
  for (const auto& item : v) encode_value(w, item);
}
template <typename T>
inline void decode_value(WireReader& r, std::vector<T>& v) {
  const std::uint64_t n = r.get_u64();
  // Every element costs at least one byte on the wire, so a count beyond
  // the remaining bytes can only come from corruption.
  if (n > r.remaining()) {
    throw WireError("wire vector length exceeds payload");
  }
  v.clear();
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    T item{};
    decode_value(r, item);
    v.push_back(std::move(item));
  }
}

/// Convenience: encode a whole vector as a standalone payload string.
template <typename T>
inline std::string encode_payload(const std::vector<T>& v) {
  WireWriter w;
  encode_value(w, v);
  return w.take();
}
/// Decodes a standalone payload produced by encode_payload; requires the
/// payload to be fully consumed (trailing garbage is corruption).
template <typename T>
inline std::vector<T> decode_payload(const std::string& bytes) {
  WireReader r(bytes);
  std::vector<T> v;
  decode_value(r, v);
  if (!r.done()) throw WireError("wire payload has trailing bytes");
  return v;
}

}  // namespace drapid::ipc
