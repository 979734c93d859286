// Candidate archive: binary record adapters, segment round trip + checksum
// validation, quarantine of corrupt segments, reopen persistence, and index
// queries checked against brute-force scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "serve/archive.hpp"
#include "serve/segment.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("drapid_serve_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

ObservationId obs_id(int beam) {
  ObservationId id;
  id.dataset = "PALFA";
  id.mjd = 55555.125;
  id.ra_deg = 290.25;
  id.dec_deg = 11.5;
  id.beam = beam;
  return id;
}

CandidateRecord make_record(Rng& rng, int beam) {
  CandidateRecord rec;
  rec.obs = obs_id(beam);
  rec.event.dm = rng.uniform(0.0, 500.0);
  rec.event.snr = rng.uniform(5.0, 40.0);
  rec.event.time_s = rng.uniform(0.0, 120.0);
  rec.event.sample = static_cast<std::int64_t>(rec.event.time_s * 500.0);
  rec.event.downfact = 1 << rng.below(5);
  return rec;
}

std::int64_t counter(const char* name) {
  for (const auto& [key, value] :
       obs::global_counters().counters_snapshot()) {
    if (key == name) return value;
  }
  return 0;
}

TEST(CandidateRecordCodec, RoundTrips) {
  Rng rng(1);
  std::string buffer;
  std::vector<CandidateRecord> originals;
  for (int i = 0; i < 100; ++i) {
    originals.push_back(make_record(rng, i % 7));
    append_candidate_record(buffer, originals.back());
  }
  std::size_t offset = 0;
  for (const auto& want : originals) {
    const CandidateRecord got =
        decode_candidate_record(buffer.data(), buffer.size(), offset);
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(CandidateRecordCodec, RejectsTruncationAtEveryLength) {
  Rng rng(2);
  std::string buffer;
  append_candidate_record(buffer, make_record(rng, 0));
  for (std::size_t len = 0; len < buffer.size(); ++len) {
    std::size_t offset = 0;
    EXPECT_THROW(decode_candidate_record(buffer.data(), len, offset),
                 std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(CandidateRecordCodec, RejectsMalformedKey) {
  // A record whose key field is not an ObservationId::key() spelling.
  std::string buffer;
  const std::string bad_key = "not-a-key";
  const auto len = static_cast<std::uint32_t>(bad_key.size());
  buffer.append(reinterpret_cast<const char*>(&len), sizeof(len));
  buffer.append(bad_key);
  buffer.append(36, '\0');  // dm, snr, time, sample, downfact
  std::size_t offset = 0;
  EXPECT_THROW(decode_candidate_record(buffer.data(), buffer.size(), offset),
               std::runtime_error);
}

TEST(SegmentFile, RoundTripsRecords) {
  TempDir dir;
  Rng rng(3);
  std::vector<CandidateRecord> records;
  for (int i = 0; i < 250; ++i) records.push_back(make_record(rng, i % 4));
  const std::string path = (dir.path / "a.seg").string();
  write_segment_file(path, records);
  EXPECT_EQ(read_segment_file(path), records);
}

TEST(SegmentFile, RoundTripsEmptySegment) {
  TempDir dir;
  const std::string path = (dir.path / "e.seg").string();
  write_segment_file(path, {});
  EXPECT_TRUE(read_segment_file(path).empty());
}

TEST(SegmentFile, DetectsEveryFlippedByte) {
  TempDir dir;
  Rng rng(4);
  std::vector<CandidateRecord> records;
  for (int i = 0; i < 5; ++i) records.push_back(make_record(rng, i));
  const std::string path = (dir.path / "a.seg").string();
  write_segment_file(path, records);
  std::ifstream in(path, std::ios::binary);
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    std::ofstream(path, std::ios::binary).write(bad.data(), bad.size());
    EXPECT_THROW(read_segment_file(path), ArchiveError) << "byte " << i;
  }
}

TEST(SegmentFile, RejectsTruncation) {
  TempDir dir;
  Rng rng(5);
  std::vector<CandidateRecord> records{make_record(rng, 1)};
  const std::string path = (dir.path / "a.seg").string();
  write_segment_file(path, records);
  const auto size = static_cast<std::size_t>(fs::file_size(path));
  std::ifstream in(path, std::ios::binary);
  std::string good(size, '\0');
  in.read(good.data(), static_cast<std::streamsize>(size));
  for (std::size_t keep = 0; keep < size; ++keep) {
    std::ofstream(path, std::ios::binary).write(good.data(), keep);
    EXPECT_THROW(read_segment_file(path), ArchiveError) << "kept " << keep;
  }
}

TEST(SegmentFile, BytesMatchPinnedDigest) {
  // The segment layout is an on-disk format: archives written by one build
  // must open in the next. This size and digest were recorded from the
  // writer that predates the shared sealed-file container.
  TempDir dir;
  std::vector<CandidateRecord> records(3);
  for (int i = 0; i < 3; ++i) {
    auto& rec = records[static_cast<std::size_t>(i)];
    rec.obs = obs_id(i);
    rec.event.dm = 12.5 + 100.0 * i;
    rec.event.snr = 6.25 + i;
    rec.event.time_s = 0.125 * (i + 1);
    rec.event.sample = 1000 * (i + 1);
    rec.event.downfact = 1 << i;
  }
  const std::string path = (dir.path / "pinned.seg").string();
  write_segment_file(path, records);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Checksum sum;
  sum.update(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), 231u);
  EXPECT_EQ(sum.digest(), 0xE69E6B7DF1B552BBULL);
  EXPECT_EQ(bytes.substr(0, 8), "DRASSEG2");
  EXPECT_EQ(read_segment_file(path), records);
}

TEST(SegmentFile, FullDiskFailsTheWrite) {
  // A one-record segment fits in the stream's buffer, so the write itself
  // succeeds and only the final flush hits the full device: that failure
  // must surface, not be dropped in the stream's destructor.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Rng rng(6);
  EXPECT_THROW(write_segment_file("/dev/full", {make_record(rng, 0)}),
               ArchiveError);
}

TEST(Archive, AppendSealQueryAndReopen) {
  TempDir dir;
  Rng rng(6);
  std::vector<CandidateRecord> all;
  {
    CandidateArchive archive(dir.str());
    for (int batch = 0; batch < 3; ++batch) {
      for (int i = 0; i < 50; ++i) {
        all.push_back(make_record(rng, batch));
        archive.append(all.back());
      }
      EXPECT_EQ(archive.pending(), 50u);
      archive.seal();
      EXPECT_EQ(archive.pending(), 0u);
    }
    EXPECT_EQ(archive.size(), all.size());
    EXPECT_EQ(archive.num_segments(), 3u);
  }
  // Reopen: every sealed record is still there, in canonical order.
  CandidateArchive archive(dir.str());
  EXPECT_EQ(archive.size(), all.size());
  auto expected = all;
  std::sort(expected.begin(), expected.end(), candidate_order);
  EXPECT_EQ(archive.query({}), expected);
}

TEST(Archive, PendingRecordsInvisibleUntilSeal) {
  TempDir dir;
  Rng rng(7);
  CandidateArchive archive(dir.str());
  archive.append(make_record(rng, 0));
  EXPECT_EQ(archive.size(), 0u);
  EXPECT_TRUE(archive.query({}).empty());
  archive.seal();
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.query({}).size(), 1u);
}

TEST(Archive, QueriesMatchBruteForce) {
  TempDir dir;
  Rng rng(8);
  CandidateArchive archive(dir.str());
  std::vector<CandidateRecord> all;
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 200; ++i) {
      all.push_back(make_record(rng, i % 5));
      archive.append(all.back());
    }
    archive.seal();
  }

  const auto brute = [&](const Query& q) {
    std::vector<CandidateRecord> out;
    for (const auto& r : all) {
      if (r.event.dm >= q.dm_min && r.event.dm <= q.dm_max &&
          r.event.snr >= q.min_snr && r.event.time_s >= q.time_min &&
          r.event.time_s <= q.time_max &&
          (q.key.empty() || r.obs.key() == q.key)) {
        out.push_back(r);
      }
    }
    std::sort(out.begin(), out.end(), candidate_order);
    return out;
  };

  std::vector<Query> queries;
  queries.push_back({});                                  // full scan
  {
    Query q;
    q.dm_min = 100.0;
    q.dm_max = 300.0;
    queries.push_back(q);                                 // DM range
  }
  {
    Query q;
    q.min_snr = 20.0;
    queries.push_back(q);                                 // S/N threshold
  }
  {
    Query q;
    q.time_min = 30.0;
    q.time_max = 90.0;
    queries.push_back(q);                                 // time window
  }
  {
    Query q;
    q.key = obs_id(2).key();
    queries.push_back(q);                                 // one observation
  }
  {
    Query q;                                              // all at once
    q.key = obs_id(3).key();
    q.dm_min = 50.0;
    q.dm_max = 450.0;
    q.min_snr = 10.0;
    q.time_min = 10.0;
    q.time_max = 110.0;
    queries.push_back(q);
  }
  {
    Query q;
    q.dm_min = 900.0;                                     // empty result
    queries.push_back(q);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(archive.query(queries[i]), brute(queries[i])) << "query " << i;
  }
}

TEST(Archive, QuarantinesCorruptSegmentOnOpen) {
  TempDir dir;
  Rng rng(9);
  std::vector<CandidateRecord> good_batch, bad_batch;
  {
    CandidateArchive archive(dir.str());
    for (int i = 0; i < 20; ++i) {
      good_batch.push_back(make_record(rng, 1));
      archive.append(good_batch.back());
    }
    archive.seal();
    for (int i = 0; i < 20; ++i) {
      bad_batch.push_back(make_record(rng, 2));
      archive.append(bad_batch.back());
    }
    archive.seal();
  }
  // Corrupt the second segment on disk.
  const std::string victim = (dir.path / "seg-000001.seg").string();
  ASSERT_TRUE(fs::exists(victim));
  {
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    char b = 0;
    f.seekg(30);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xff);
    f.seekp(30);
    f.write(&b, 1);
  }

  const std::int64_t before = counter("serve.segments_quarantined");
  CandidateArchive archive(dir.str());
  EXPECT_EQ(counter("serve.segments_quarantined") - before, 1);
  ASSERT_EQ(archive.quarantined().size(), 1u);
  EXPECT_EQ(archive.quarantined().front(), victim);
  // The good segment survives untouched; the corrupt one is parked aside.
  auto expected = good_batch;
  std::sort(expected.begin(), expected.end(), candidate_order);
  EXPECT_EQ(archive.query({}), expected);
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_TRUE(fs::exists(victim + ".quarantined"));

  // New seals do not collide with the quarantined slot's numbering.
  CandidateArchive again(dir.str());
  again.append(make_record(rng, 3));
  again.seal();
  EXPECT_EQ(again.num_segments(), 2u);
}

}  // namespace
}  // namespace serve
}  // namespace drapid
