// Wire-format tests for the process executor's task frames: exact
// round-trips, streaming decode, and the integrity properties the failure
// model depends on — every truncation reads as "incomplete or corrupt"
// (never a valid frame) and every single-bit flip is rejected, so a worker
// SIGKILLed mid-write can never smuggle a half-result past the coordinator.
#include "dataflow/ipc/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace drapid::ipc {
namespace {

/// try_decode_frame with the payload copied out of the receive buffer, so a
/// decoded frame outlives the bytes it came from.
DecodeStatus try_decode_frame(const char* data, std::size_t size,
                              TaskFrame& out, std::size_t& consumed) {
  FrameView view;
  const DecodeStatus status = ipc::try_decode_frame(data, size, view, consumed);
  if (status == DecodeStatus::kOk) {
    static_cast<FrameHeader&>(out) = view;
    out.payload.assign(view.payload, view.payload_size);
  }
  return status;
}

TaskFrame sample_frame() {
  TaskFrame frame;
  frame.kind = FrameKind::kResult;
  frame.partition = 17;
  frame.metrics.partition = 17;
  frame.metrics.records_in = 1000;
  frame.metrics.bytes_in = 123456;
  frame.metrics.records_out = 900;
  frame.metrics.bytes_out = 98765;
  frame.metrics.shuffle_bytes = 4242;
  frame.metrics.spill_bytes = 7;
  frame.metrics.compute_cost = 250;
  frame.metrics.attempts = 3;
  frame.metrics.retry_cost = 500;
  frame.payload = std::string("payload \x00\xff bytes", 16);
  return frame;
}

TEST(WireFrame, RoundTripsEveryField) {
  const TaskFrame in = sample_frame();
  const std::string bytes = encode_frame(in);
  TaskFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode_frame(bytes.data(), bytes.size(), out, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.partition, in.partition);
  EXPECT_EQ(out.metrics.records_in, in.metrics.records_in);
  EXPECT_EQ(out.metrics.bytes_in, in.metrics.bytes_in);
  EXPECT_EQ(out.metrics.records_out, in.metrics.records_out);
  EXPECT_EQ(out.metrics.bytes_out, in.metrics.bytes_out);
  EXPECT_EQ(out.metrics.shuffle_bytes, in.metrics.shuffle_bytes);
  EXPECT_EQ(out.metrics.spill_bytes, in.metrics.spill_bytes);
  EXPECT_EQ(out.metrics.compute_cost, in.metrics.compute_cost);
  EXPECT_EQ(out.metrics.attempts, in.metrics.attempts);
  EXPECT_EQ(out.metrics.retry_cost, in.metrics.retry_cost);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(WireFrame, ErrorFrameRoundTripsKind) {
  TaskFrame in;
  in.kind = FrameKind::kError;
  in.error_kind = WireErrorKind::kTaskFailure;
  in.partition = 3;
  in.payload = "task failed permanently";
  const std::string bytes = encode_frame(in);
  TaskFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode_frame(bytes.data(), bytes.size(), out, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(out.kind, FrameKind::kError);
  EXPECT_EQ(out.error_kind, WireErrorKind::kTaskFailure);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(WireFrame, EveryTruncationIsIncompleteNeverValid) {
  const std::string bytes = encode_frame(sample_frame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    TaskFrame out;
    std::size_t consumed = 0;
    const auto status = try_decode_frame(bytes.data(), len, out, consumed);
    EXPECT_NE(status, DecodeStatus::kOk) << "truncated to " << len;
  }
}

TEST(WireFrame, EverySingleBitFlipIsRejected) {
  const std::string bytes = encode_frame(sample_frame());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      TaskFrame out;
      std::size_t consumed = 0;
      const auto status =
          try_decode_frame(flipped.data(), flipped.size(), out, consumed);
      // A flip may read as corruption or (when it inflates payload_len
      // within the sanity cap) as an incomplete frame the coordinator would
      // keep waiting on until EOF — but never as a valid frame.
      EXPECT_NE(status, DecodeStatus::kOk)
          << "bit " << bit << " of byte " << byte;
    }
  }
}

TEST(WireFrame, AbsurdPayloadLengthIsCorruptNotIncomplete) {
  // A flipped high bit in payload_len must not make the coordinator wait
  // for exabytes that will never arrive: past the cap it is corruption.
  std::string bytes = encode_frame(sample_frame());
  const std::size_t len_offset = 13 * sizeof(std::uint64_t);
  std::uint64_t huge = kMaxWirePayload + 1;
  std::memcpy(bytes.data() + len_offset, &huge, sizeof(huge));
  TaskFrame out;
  std::size_t consumed = 0;
  EXPECT_EQ(try_decode_frame(bytes.data(), bytes.size(), out, consumed),
            DecodeStatus::kCorrupt);
}

TEST(WireFrame, RandomGarbageNeverDecodes) {
  Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.below(512)), '\0');
    for (auto& c : garbage) {
      c = static_cast<char>(rng.below(256));
    }
    TaskFrame out;
    std::size_t consumed = 0;
    const auto status =
        try_decode_frame(garbage.data(), garbage.size(), out, consumed);
    EXPECT_NE(status, DecodeStatus::kOk) << "trial " << trial;
  }
}

TEST(WireFrame, StreamedFramesDecodeAcrossArbitraryChunks) {
  // Two frames arriving byte-by-byte must decode exactly twice, at the
  // exact completion points — the coordinator's buffering loop in miniature.
  TaskFrame second = sample_frame();
  second.partition = 99;
  second.payload = "second";
  const std::string stream =
      encode_frame(sample_frame()) + encode_frame(second);
  std::string buffer;
  std::vector<TaskFrame> decoded;
  for (const char c : stream) {
    buffer.push_back(c);
    while (true) {
      TaskFrame out;
      std::size_t consumed = 0;
      if (try_decode_frame(buffer.data(), buffer.size(), out, consumed) !=
          DecodeStatus::kOk) {
        break;
      }
      decoded.push_back(out);
      buffer.erase(0, consumed);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].partition, 17u);
  EXPECT_EQ(decoded[1].partition, 99u);
  EXPECT_EQ(decoded[1].payload, "second");
  EXPECT_TRUE(buffer.empty());
}

struct FlatRecord {
  double dm;
  float snr;
  int width;
  bool operator==(const FlatRecord&) const = default;
};

TEST(WireCodec, ValueRoundTrips) {
  using KvPair = std::pair<std::string, std::string>;
  const std::vector<KvPair> kv = {
      {"PALFA|56000.01|213.77|15.22|3", "line one\nline two"},
      {"", std::string("\x00\x01\x02", 3)},
  };
  EXPECT_EQ(decode_payload<KvPair>(encode_payload(kv)), kv);

  using OptPair = std::pair<std::string, std::optional<double>>;
  const std::vector<OptPair> opt = {{"a", 1.5}, {"b", std::nullopt}};
  EXPECT_EQ(decode_payload<OptPair>(encode_payload(opt)), opt);

  const std::vector<FlatRecord> flat = {{56.25, 7.5f, 4}, {0.0, -1.0f, 0}};
  EXPECT_EQ(decode_payload<FlatRecord>(encode_payload(flat)), flat);

  const std::vector<std::uint32_t> routing = {0, 3, 1, 2, 3, 0};
  EXPECT_EQ(decode_payload<std::uint32_t>(encode_payload(routing)), routing);
}

TEST(WireCodec, TruncatedPayloadThrows) {
  using KvPair = std::pair<std::string, std::string>;
  const std::vector<KvPair> kv = {{"key", "value"}};
  std::string payload = encode_payload(kv);
  payload.resize(payload.size() - 3);
  EXPECT_THROW(decode_payload<KvPair>(payload), WireError);
  EXPECT_THROW(decode_payload<std::string>(std::string("\xff\xff\xff", 3)),
               WireError);
}

TEST(WireCodec, TrailingBytesThrow) {
  std::string payload = encode_payload(std::vector<std::uint32_t>{1, 2});
  payload.push_back('x');
  EXPECT_THROW(decode_payload<std::uint32_t>(payload), WireError);
}

TEST(WireFrame, PoolFrameKindsRoundTrip) {
  // Every pool-protocol kind must survive the wire unchanged — a kind that
  // maps onto another would route a shuffle segment as a task result.
  for (const FrameKind kind :
       {FrameKind::kStageBegin, FrameKind::kTaskAssign, FrameKind::kStageEnd,
        FrameKind::kAck, FrameKind::kFetch, FrameKind::kData,
        FrameKind::kRelease, FrameKind::kShutdown}) {
    TaskFrame in = sample_frame();
    in.kind = kind;
    const std::string bytes = encode_frame(in);
    TaskFrame out;
    std::size_t consumed = 0;
    ASSERT_EQ(try_decode_frame(bytes.data(), bytes.size(), out, consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(WireFrame, KindBeyondMaximumIsCorrupt) {
  // The kind word is the first header field after the magic; a value past
  // kShutdown is a protocol error, not a frame to wait on.
  std::string bytes = encode_frame(sample_frame());
  const std::size_t kind_offset = sizeof(std::uint64_t);  // after the magic
  std::uint64_t bad = kMaxFrameKind + 1;
  std::memcpy(bytes.data() + kind_offset, &bad, sizeof(bad));
  TaskFrame out;
  std::size_t consumed = 0;
  EXPECT_EQ(try_decode_frame(bytes.data(), bytes.size(), out, consumed),
            DecodeStatus::kCorrupt);
}

TEST(WireFrame, FramePartsMatchContiguousEncodingExactly) {
  // The vectored send path must produce the same byte stream as
  // encode_frame: header + spans + trailer == encode_frame(payload).
  TaskFrame frame = sample_frame();
  frame.kind = FrameKind::kData;
  const std::string contiguous = encode_frame(frame);

  // Split the payload into three uneven spans (including an empty one).
  TaskFrame spanned = frame;
  const std::string payload = std::move(spanned.payload);
  spanned.payload.clear();
  const FrameSpan spans[] = {
      {payload.data(), 5},
      {payload.data() + 5, 0},
      {payload.data() + 5, payload.size() - 5},
  };
  const FrameParts parts = encode_frame_parts(spanned, spans, 3);
  EXPECT_EQ(parts.header + payload + parts.trailer, contiguous);

  // And an empty payload still frames correctly.
  TaskFrame empty = sample_frame();
  empty.payload.clear();
  const FrameParts empty_parts = encode_frame_parts(empty, nullptr, 0);
  EXPECT_EQ(empty_parts.header + empty_parts.trailer, encode_frame(empty));
}

TEST(WireFrame, FramePartsStreamSurvivesTruncationFuzz) {
  // Assemble a frame from parts, then check the same integrity properties
  // the contiguous path has: every prefix is incomplete-or-corrupt, every
  // single-bit flip is rejected.
  TaskFrame frame = sample_frame();
  frame.kind = FrameKind::kTaskAssign;
  const std::string payload = frame.payload;
  frame.payload.clear();
  const FrameSpan span{payload.data(), payload.size()};
  const FrameParts parts = encode_frame_parts(frame, &span, 1);
  const std::string bytes = parts.header + payload + parts.trailer;

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    TaskFrame out;
    std::size_t consumed = 0;
    EXPECT_NE(try_decode_frame(bytes.data(), len, out, consumed),
              DecodeStatus::kOk)
        << "truncated to " << len;
  }
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      TaskFrame out;
      std::size_t consumed = 0;
      EXPECT_NE(try_decode_frame(flipped.data(), flipped.size(), out,
                                 consumed),
                DecodeStatus::kOk)
          << "bit " << bit << " of byte " << byte;
    }
  }
}

}  // namespace
}  // namespace drapid::ipc
