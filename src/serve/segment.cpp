#include "serve/segment.hpp"

#include <cstdint>
#include <cstring>

#include "util/sealed_file.hpp"

namespace drapid {

namespace {

// The version digit names the container's checksum (util/sealed_file.hpp),
// so a segment written with another one fails on its magic, not as
// corruption.
constexpr std::uint64_t kSegmentMagic = 0x3247455353415244ULL;  // "DRASSEG2"

[[noreturn]] void segment_fail(const std::string& file,
                               const std::string& why) {
  throw ArchiveError("archive segment " + file + ": " + why);
}

}  // namespace

void write_segment_file(const std::string& path,
                        const std::vector<CandidateRecord>& records) {
  const std::uint64_t count = records.size();
  std::string body(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& rec : records) append_candidate_record(body, rec);
  try {
    write_sealed(path, kSegmentMagic, body);
  } catch (const SealedFileError& e) {
    segment_fail(path, e.what());
  }
}

std::vector<CandidateRecord> read_segment_file(const std::string& path) {
  try {
    // read_sealed verifies the checksum before any length in the body is
    // trusted; the bounds checks below still reject a body that is sealed
    // intact but malformed.
    const std::string body = read_sealed(path, kSegmentMagic);
    std::uint64_t count = 0;
    if (body.size() < sizeof(count)) {
      throw std::runtime_error("body too short for a record count");
    }
    std::memcpy(&count, body.data(), sizeof(count));
    std::size_t offset = sizeof(count);
    if (count > (body.size() - offset) / 4) {
      throw std::runtime_error("record count " + std::to_string(count) +
                               " impossible for the payload size");
    }
    std::vector<CandidateRecord> records;
    records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      records.push_back(
          decode_candidate_record(body.data(), body.size(), offset));
    }
    if (offset != body.size()) {
      throw std::runtime_error(std::to_string(body.size() - offset) +
                               " unexpected trailing payload bytes");
    }
    return records;
  } catch (const std::runtime_error& e) {
    segment_fail(path, e.what());
  }
}

}  // namespace drapid
