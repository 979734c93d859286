// On-disk candidate-archive segments.
//
// A segment is one immutable, append-once batch of keyed candidates, sealed
// by the archive writer and never modified again. It is a sealed file
// (util/sealed_file.hpp), the container the dataflow spill files use too:
//
//   u64 magic ("DRASSEG2") | body | u64 checksum of the body
//
// and its body is a u64 record count followed by the candidate records
// (spe_io.hpp binary encoding). The checksum is verified before the count
// or any key length is trusted, so a flipped bit anywhere — count, a key
// length, a payload double — fails validation. The archive treats a failing
// segment as quarantined data, not a crash (see archive.hpp).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "spe/spe_io.hpp"

namespace drapid {

struct ArchiveError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes one sealed segment. Throws ArchiveError on I/O failure, a full
/// disk at the final flush included.
void write_segment_file(const std::string& path,
                        const std::vector<CandidateRecord>& records);

/// Reads and validates one segment. Throws ArchiveError on a missing,
/// truncated, malformed or checksum-failing file.
std::vector<CandidateRecord> read_segment_file(const std::string& path);

}  // namespace drapid
