// SIGPROC .fil I/O: round trip, and the short-read/validation regressions —
// a truncated or zero-channel file must fail with a clear FilterbankError,
// never construct a broken Filterbank or crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

namespace fs = std::filesystem;

/// Unique per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("drapid_fil_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

FilterbankConfig small_config() {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 100.0;
  cfg.num_channels = 16;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 1.0;
  return cfg;
}

// Hand-rolled SIGPROC header pieces, for crafting deliberately-broken files.
void put_string(std::string& out, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(s.size());
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(s);
}
void put_int(std::string& out, const std::string& name, std::int32_t v) {
  put_string(out, name);
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_double(std::string& out, const std::string& name, double v) {
  put_string(out, name);
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string header(std::int32_t nchans, std::int32_t nbits,
                   std::int32_t nifs = 1, double tsamp = 0.002) {
  std::string h;
  put_string(h, "HEADER_START");
  put_int(h, "nchans", nchans);
  put_int(h, "nbits", nbits);
  put_int(h, "nifs", nifs);
  put_double(h, "tsamp", tsamp);
  put_double(h, "fch1", 399.0);
  put_double(h, "foff", -6.25);
  put_string(h, "HEADER_END");
  return h;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string frames(std::size_t count, std::size_t nchans) {
  std::string data;
  for (std::size_t i = 0; i < count * nchans; ++i) {
    const float v = static_cast<float>(i) * 0.25f;
    data.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return data;
}

TEST(FilterbankIo, RoundTripsDataAndGeometry) {
  TempDir dir;
  FilterbankConfig cfg = small_config();
  Filterbank fb(cfg);
  Rng rng(42);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(0.4, 25.0, 3.0, 10.0);

  const std::string path = dir.file("obs.fil");
  fb.write_fil(path);
  const Filterbank back = Filterbank::read_fil(path);

  ASSERT_EQ(back.num_channels(), fb.num_channels());
  ASSERT_EQ(back.num_samples(), fb.num_samples());
  EXPECT_DOUBLE_EQ(back.config().sample_time_ms, cfg.sample_time_ms);
  for (std::size_t c = 0; c < fb.num_channels(); ++c) {
    // Frequencies follow the file's fch1 + c*foff ladder — equal to the
    // in-memory ladder up to the f64 round trip through the header.
    EXPECT_NEAR(back.channel_freq_mhz(c), fb.channel_freq_mhz(c), 1e-9);
    for (std::size_t s = 0; s < fb.num_samples(); ++s) {
      ASSERT_EQ(back.at(c, s), fb.at(c, s)) << "c=" << c << " s=" << s;
    }
  }
}

TEST(FilterbankIo, MissingFileFails) {
  EXPECT_THROW(Filterbank::read_fil("/nonexistent/no.fil"), FilterbankError);
}

TEST(FilterbankIo, TruncatedHeaderFails) {
  TempDir dir;
  Filterbank fb(small_config());
  const std::string path = dir.file("obs.fil");
  fb.write_fil(path);
  const auto full = static_cast<std::size_t>(fs::file_size(path));
  // Cut the file inside the header at several depths, including mid-token.
  for (std::size_t keep : {0ul, 3ul, 12ul, 17ul, 40ul}) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes(keep, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(keep));
    const std::string cut = dir.file("cut.fil");
    write_file(cut, bytes);
    EXPECT_THROW(Filterbank::read_fil(cut), FilterbankError) << keep;
  }
  ASSERT_GT(full, 40u);
}

TEST(FilterbankIo, TruncatedDataSectionFails) {
  TempDir dir;
  Filterbank fb(small_config());
  const std::string path = dir.file("obs.fil");
  fb.write_fil(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Chop off half a frame: the byte count stops being a whole number of
  // frames AND contradicts the declared nsamples.
  bytes.resize(bytes.size() - fb.num_channels() * sizeof(float) / 2);
  const std::string cut = dir.file("cut.fil");
  write_file(cut, bytes);
  EXPECT_THROW(Filterbank::read_fil(cut), FilterbankError);

  // Whole frames missing: caught by the nsamples cross-check.
  bytes.resize(bytes.size() - fb.num_channels() * sizeof(float) / 2);
  write_file(cut, bytes);
  EXPECT_THROW(Filterbank::read_fil(cut), FilterbankError);
}

TEST(FilterbankIo, ZeroChannelFileFails) {
  TempDir dir;
  const std::string path = dir.file("zero.fil");
  write_file(path, header(0, 32) + frames(4, 1));
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
  write_file(path, header(-3, 32) + frames(4, 1));
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
}

TEST(FilterbankIo, UnsupportedEncodingsFail) {
  TempDir dir;
  const std::string path = dir.file("bad.fil");
  write_file(path, header(16, 8) + frames(4, 16));  // 8-bit samples
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
  write_file(path, header(16, 32, 2) + frames(4, 16));  // two IFs
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
  write_file(path, header(16, 32, 1, 0.0) + frames(4, 16));  // tsamp == 0
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
}

TEST(FilterbankIo, NotAFilterbankFails) {
  TempDir dir;
  const std::string path = dir.file("not.fil");
  write_file(path, "this is not a filterbank file at all, sorry");
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
  std::string no_start;
  put_string(no_start, "HEADER_END");
  write_file(path, no_start);
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
}

TEST(FilterbankIo, UnknownHeaderKeyFails) {
  TempDir dir;
  std::string h;
  put_string(h, "HEADER_START");
  put_int(h, "nchans", 16);
  put_int(h, "wibble", 7);  // unknown key: value width is unknowable
  put_string(h, "HEADER_END");
  const std::string path = dir.file("unk.fil");
  write_file(path, h + frames(4, 16));
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
}

TEST(FilterbankIo, EmptyDataSectionFails) {
  TempDir dir;
  const std::string path = dir.file("empty.fil");
  write_file(path, header(16, 32));  // header only, zero frames
  EXPECT_THROW(Filterbank::read_fil(path), FilterbankError);
}

TEST(FilterbankIo, NonFiniteSampleFails) {
  // One NaN or infinity used to load silently and blank the whole sweep
  // (every series it fed standardized to nothing). The reader must refuse
  // it and name where it sits.
  TempDir dir;
  const std::string path = dir.file("nonfinite.fil");
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const float value : bad) {
    std::string data = frames(4, 16);
    const std::size_t frame = 2;
    const std::size_t channel = 5;
    std::memcpy(&data[(frame * 16 + channel) * sizeof(float)], &value,
                sizeof(value));
    write_file(path, header(16, 32) + data);
    try {
      (void)Filterbank::read_fil(path);
      ADD_FAILURE() << "accepted a non-finite sample " << value;
    } catch (const FilterbankError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("frame 2"), std::string::npos) << what;
      EXPECT_NE(what.find("channel 5"), std::string::npos) << what;
    }
  }
}

TEST(FilterbankIo, ReadBackSearchesLikeTheOriginal) {
  // End to end: a written-and-reloaded filterbank must carry the pulse.
  TempDir dir;
  FilterbankConfig cfg = small_config();
  cfg.obs_length_s = 4.0;
  Filterbank fb(cfg);
  Rng rng(7);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(2.0, 30.0, 5.0, 20.0);
  const std::string path = dir.file("obs.fil");
  fb.write_fil(path);
  const Filterbank back = Filterbank::read_fil(path);
  ASSERT_EQ(back.num_samples(), fb.num_samples());
  // Identical payloads, bit for bit.
  for (std::size_t c = 0; c < fb.num_channels(); ++c) {
    for (std::size_t s = 0; s < fb.num_samples(); ++s) {
      ASSERT_EQ(back.at(c, s), fb.at(c, s));
    }
  }
}

}  // namespace
}  // namespace drapid
