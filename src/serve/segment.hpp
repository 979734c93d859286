// On-disk candidate-archive segments.
//
// A segment is one immutable, append-once batch of keyed candidates, sealed
// by the archive writer and never modified again. The byte layout mirrors
// the dataflow spill files (src/dataflow/spill.cpp) and shares their word
// checksum (util/checksum.hpp):
//
//   u64 magic ("DRASSEG2") | u64 record count |
//   candidate records (spe_io.hpp binary encoding) | u64 checksum
//
// The trailing checksum covers every byte between the magic and itself, so
// a flipped bit anywhere — count, a key length, a payload double — fails
// validation. The archive treats a failing segment as quarantined data, not
// a crash (see archive.hpp).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "spe/spe_io.hpp"

namespace drapid {

struct ArchiveError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes one sealed segment. Throws ArchiveError on I/O failure.
void write_segment_file(const std::string& path,
                        const std::vector<CandidateRecord>& records);

/// Reads and validates one segment. Throws ArchiveError on a missing,
/// truncated, malformed or checksum-failing file.
std::vector<CandidateRecord> read_segment_file(const std::string& path);

}  // namespace drapid
