// The sealed-file container behind every checksummed on-disk format: the
// dataflow spill files (dataflow/spill.cpp) and the candidate-archive
// segments (serve/segment.cpp).
//
//   u64 magic | body | u64 Checksum(body)
//
// The checksum (util/checksum.hpp) covers every body byte, so a flipped bit
// anywhere in it fails validation, and read_sealed verifies it before the
// caller decodes a single length prefix from the body. The magic names both
// the format and its checksum version: a file of another kind, or from a
// build with another checksum, fails on its magic rather than as corruption.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace drapid {

/// A sealed file could not be written, or failed validation on read.
/// Messages name the failure, not the path: callers add the context.
struct SealedFileError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes `magic | body | checksum` to `path`, replacing any file there.
/// Throws SealedFileError if the file cannot be opened or any byte of it,
/// the final flush included, fails to reach the file.
void write_sealed(const std::string& path, std::uint64_t magic,
                  const std::string& body);

/// Reads a file written by write_sealed and returns its body. Throws
/// SealedFileError on a missing or unreadable file, one shorter than magic
/// plus checksum, a magic other than `magic`, or a checksum mismatch.
std::string read_sealed(const std::string& path, std::uint64_t magic);

}  // namespace drapid
