#include "serve/segment.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/checksum.hpp"

namespace drapid {

namespace {

// The version digit names the checksum (util/checksum.hpp), so a segment
// written with another one fails on its magic, not as corruption.
constexpr std::uint64_t kSegmentMagic = 0x3247455353415244ULL;  // "DRASSEG2"
constexpr std::size_t kHeaderBytes = 16;  // magic + count
constexpr std::size_t kTrailerBytes = 8;  // checksum

[[noreturn]] void segment_fail(const std::string& file,
                               const std::string& why) {
  throw ArchiveError("archive segment " + file + ": " + why);
}

}  // namespace

void write_segment_file(const std::string& path,
                        const std::vector<CandidateRecord>& records) {
  std::ofstream out(path, std::ios::binary);
  if (!out) segment_fail(path, "cannot open for writing");
  std::string buffer;
  const auto append_u64 = [&buffer](std::uint64_t v) {
    buffer.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_u64(kSegmentMagic);
  append_u64(records.size());
  for (const auto& rec : records) append_candidate_record(buffer, rec);
  Checksum sum;
  sum.update(buffer.data() + sizeof(kSegmentMagic),
             buffer.size() - sizeof(kSegmentMagic));
  append_u64(sum.digest());
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!out) segment_fail(path, "write failed");
}

std::vector<CandidateRecord> read_segment_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) segment_fail(path, "missing or unreadable");
  std::error_code ec;
  const auto file_size =
      static_cast<std::size_t>(std::filesystem::file_size(path, ec));
  if (ec) segment_fail(path, "cannot stat: " + ec.message());
  if (file_size < kHeaderBytes + kTrailerBytes) {
    segment_fail(path, "truncated: " + std::to_string(file_size) +
                           " bytes is smaller than header + checksum");
  }
  std::string buffer(file_size, '\0');
  in.read(buffer.data(), static_cast<std::streamsize>(file_size));
  if (!in) segment_fail(path, "read failed");

  std::uint64_t magic = 0;
  std::memcpy(&magic, buffer.data(), sizeof(magic));
  if (magic != kSegmentMagic) {
    segment_fail(path, "bad header magic (not a segment, or corrupted)");
  }
  // Validate the checksum over the whole payload before trusting any length
  // prefix inside it: a corrupt prefix then cannot cause a bogus allocation
  // or a silently-short decode.
  Checksum sum;
  sum.update(buffer.data() + sizeof(kSegmentMagic),
             file_size - sizeof(kSegmentMagic) - kTrailerBytes);
  const std::uint64_t expected = sum.digest();
  std::uint64_t stored = 0;
  std::memcpy(&stored, buffer.data() + file_size - kTrailerBytes,
              sizeof(stored));
  if (stored != expected) {
    segment_fail(path, "checksum mismatch (corrupted on disk)");
  }

  std::uint64_t count = 0;
  std::memcpy(&count, buffer.data() + sizeof(kSegmentMagic), sizeof(count));
  const std::size_t payload_end = file_size - kTrailerBytes;
  std::size_t offset = kHeaderBytes;
  std::vector<CandidateRecord> records;
  if (count > (payload_end - offset) / 4) {
    segment_fail(path, "record count " + std::to_string(count) +
                           " impossible for the payload size");
  }
  records.reserve(count);
  try {
    for (std::uint64_t i = 0; i < count; ++i) {
      records.push_back(
          decode_candidate_record(buffer.data(), payload_end, offset));
    }
  } catch (const std::exception& e) {
    segment_fail(path, e.what());
  }
  if (offset != payload_end) {
    segment_fail(path, std::to_string(payload_end - offset) +
                           " unexpected trailing payload bytes");
  }
  return records;
}

}  // namespace drapid
