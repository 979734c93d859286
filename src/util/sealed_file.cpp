#include "util/sealed_file.hpp"

#include <filesystem>
#include <fstream>

#include "util/checksum.hpp"

namespace drapid {

namespace {

constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

std::uint64_t body_digest(const std::string& body) {
  Checksum sum;
  sum.update(body.data(), body.size());
  return sum.digest();
}

}  // namespace

void write_sealed(const std::string& path, std::uint64_t magic,
                  const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SealedFileError("cannot open for writing");
  const std::uint64_t digest = body_digest(body);
  // The words and the body go through the stream's one buffer: no copy of
  // the body is assembled. close() flushes that buffer, and a failure there
  // (a full disk) sets the stream's failbit like any other write error.
  out.write(reinterpret_cast<const char*>(&magic), kWordBytes);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.write(reinterpret_cast<const char*>(&digest), kWordBytes);
  out.close();
  if (!out) throw SealedFileError("write failed");
}

std::string read_sealed(const std::string& path, std::uint64_t magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SealedFileError("missing or unreadable");
  std::error_code ec;
  const auto file_size =
      static_cast<std::size_t>(std::filesystem::file_size(path, ec));
  if (ec) throw SealedFileError("cannot stat: " + ec.message());
  if (file_size < 2 * kWordBytes) {
    throw SealedFileError("truncated: " + std::to_string(file_size) +
                          " bytes is smaller than magic + checksum");
  }
  std::uint64_t stored_magic = 0;
  in.read(reinterpret_cast<char*>(&stored_magic), kWordBytes);
  if (!in) throw SealedFileError("read failed");
  if (stored_magic != magic) {
    throw SealedFileError("bad header magic (wrong file type, or corrupted)");
  }
  // The body lands in its own string in one read, so the caller decodes it
  // in place; nothing inside it is trusted until the checksum agrees.
  std::string body(file_size - 2 * kWordBytes, '\0');
  in.read(body.data(), static_cast<std::streamsize>(body.size()));
  std::uint64_t stored_digest = 0;
  in.read(reinterpret_cast<char*>(&stored_digest), kWordBytes);
  if (!in) throw SealedFileError("read failed");
  if (stored_digest != body_digest(body)) {
    throw SealedFileError("checksum mismatch (corrupted on disk)");
  }
  return body;
}

}  // namespace drapid
