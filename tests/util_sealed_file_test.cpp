// The sealed-file container shared by spill files and archive segments:
// round trips, the exact byte layout, a missing file and a wrong magic, and
// writes that fail, one of them only at the final flush. Every flipped byte
// and every truncation is swept through both callers (SpillFile.* in
// dataflow_spill_test, SegmentFile.* in serve_archive_test).
#include "util/sealed_file.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "util/checksum.hpp"

namespace drapid {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMagic = 0x54534554414553ULL;  // "SEATEST"

struct TempFile {
  fs::path path;
  TempFile() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("drapid_sealed_") + info->name() + ".bin");
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string file_bytes(const TempFile& file) {
  std::ifstream in(file.path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string sample_body() {
  std::string body;
  for (int i = 0; i < 100; ++i) body.push_back(static_cast<char>(i * 37));
  return body;
}

std::string read_error(const TempFile& file, std::uint64_t magic = kMagic) {
  try {
    read_sealed(file.str(), magic);
  } catch (const SealedFileError& e) {
    return e.what();
  }
  return "";
}

TEST(SealedFile, RoundTripsBodies) {
  TempFile file;
  for (const std::string& body :
       {std::string(), std::string("x"), sample_body(),
        std::string(100000, '\x7f')}) {
    write_sealed(file.str(), kMagic, body);
    EXPECT_EQ(read_sealed(file.str(), kMagic), body);
  }
}

TEST(SealedFile, LayoutIsMagicBodyChecksum) {
  TempFile file;
  const std::string body = sample_body();
  write_sealed(file.str(), kMagic, body);
  const std::string bytes = file_bytes(file);
  ASSERT_EQ(bytes.size(), body.size() + 16);
  std::uint64_t magic = 0, digest = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&digest, bytes.data() + 8 + body.size(), sizeof(digest));
  EXPECT_EQ(magic, kMagic);
  EXPECT_EQ(bytes.substr(8, body.size()), body);
  Checksum sum;
  sum.update(body.data(), body.size());
  EXPECT_EQ(digest, sum.digest());
}

TEST(SealedFile, RejectsMissingFileAndWrongMagic) {
  TempFile file;
  EXPECT_NE(read_error(file).find("missing"), std::string::npos);
  write_sealed(file.str(), kMagic, sample_body());
  EXPECT_NE(read_error(file, kMagic + 1).find("magic"), std::string::npos);
}

TEST(SealedFile, FullDiskFailsTheWrite) {
  // A one-byte body sits in the stream's buffer until close(), so only the
  // final flush hits the full device and that failure must surface; a
  // 1 MiB body fails on the write itself.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(write_sealed("/dev/full", kMagic, "x"), SealedFileError);
  EXPECT_THROW(write_sealed("/dev/full", kMagic, std::string(1 << 20, 'y')),
               SealedFileError);
}

TEST(SealedFile, UnwritablePathThrows) {
  EXPECT_THROW(write_sealed("/nonexistent-dir/sealed.bin", kMagic, "x"),
               SealedFileError);
}

}  // namespace
}  // namespace drapid
