// Robustness fuzzing for every format the pipeline parses: randomly
// mutated inputs must either parse cleanly or throw std::runtime_error —
// never crash, hang, or corrupt memory. (Survey files in the wild are
// truncated, re-encoded and hand-edited; a production pipeline sees all of
// it.) The binary targets — sealed spill, shuffle and segment bodies,
// worker-pool frames — aim their mutations at the length and kind words,
// and re-seal or re-checksum the result so the mutation gets past the
// checksum and reaches the decoder behind it. Seeds are fixed and rounds
// bounded, so every run replays the same cases.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "dataflow/ipc/pool.hpp"
#include "dataflow/ipc/wire.hpp"
#include "dataflow/spill.hpp"
#include "rapid/features.hpp"
#include "serve/segment.hpp"
#include "spe/catalog.hpp"
#include "spe/spe_io.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/sealed_file.hpp"

namespace drapid {
namespace {

/// Applies `mutations` random byte edits (replace/insert/delete).
std::string mutate(const std::string& input, Rng& rng, int mutations) {
  std::string s = input;
  for (int m = 0; m < mutations && !s.empty(); ++m) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(3)) {
      case 0:
        s[pos] = static_cast<char>(32 + rng.below(95));
        break;
      case 1:
        s.insert(pos, 1, static_cast<char>(32 + rng.below(95)));
        break;
      default:
        s.erase(pos, 1);
        break;
    }
  }
  return s;
}

std::string sample_data_file() {
  ObservationId id;
  id.dataset = "FUZZ";
  id.mjd = 56000.25;
  id.ra_deg = 123.4;
  id.dec_deg = -5.6;
  std::ostringstream out;
  std::vector<ObservationData> observations(1);
  observations[0].id = id;
  for (int i = 0; i < 20; ++i) {
    SinglePulseEvent e;
    e.dm = 10.0 + i;
    e.snr = 6.0;
    e.time_s = i * 0.5;
    e.sample = i * 100;
    e.downfact = 2;
    observations[0].events.push_back(e);
  }
  write_data_file(out, observations);
  return out.str();
}

/// Feeds `rounds` mutants of `valid` to `parse`; `mutate_fn(valid, rng)`
/// makes each one. Anything but a clean parse or a std::runtime_error
/// fails the test.
template <typename Mutate, typename Parse>
void fuzz_with(const std::string& valid, Mutate&& mutate_fn, Parse&& parse,
               std::uint64_t seed, int rounds) {
  Rng rng(seed);
  for (int r = 0; r < rounds; ++r) {
    const auto corrupted = mutate_fn(valid, rng);
    try {
      parse(corrupted);  // either works...
    } catch (const std::runtime_error&) {
      // ...or reports the corruption; both are acceptable.
    }
  }
}

/// Text formats: printable-byte edits anywhere.
template <typename Parse>
void fuzz(const std::string& valid, Parse&& parse, std::uint64_t seed,
          int rounds) {
  fuzz_with(
      valid,
      [](const std::string& text, Rng& rng) {
        return mutate(text, rng, 1 + static_cast<int>(rng.below(8)));
      },
      parse, seed, rounds);
}

/// A length or kind word of a binary format: `width` bytes at `offset`.
struct Word {
  std::size_t offset;
  std::size_t width;
};

/// A value on some decoder boundary for a `width`-byte word that held
/// `original` in an input of `size` bytes.
std::uint64_t boundary_value(Rng& rng, std::size_t width, std::size_t size,
                             std::uint64_t original) {
  const std::uint64_t max = width == 8 ? ~0ULL : (1ULL << (8 * width)) - 1;
  switch (rng.below(7)) {
    case 0:
      return 0;
    case 1:
      return original + 1;
    case 2:
      return original - 1;
    case 3:
      return size + rng.below(16);  // just past the input
    case 4:
      return max;
    case 5:
      return (max >> 1) + 1;  // only the top bit
    default:
      return rng.below(2 * size + 1);
  }
}

/// Binary mutations: mostly boundary values written into `words`, else a
/// flipped bit, a cut or a few inserted bytes anywhere.
std::string mutate_binary(const std::string& input,
                          const std::vector<Word>& words, Rng& rng) {
  std::string s = input;
  const int mutations = 1 + static_cast<int>(rng.below(3));
  for (int m = 0; m < mutations && !s.empty(); ++m) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(5)) {
      case 0:
        s[pos] = static_cast<char>(s[pos] ^ (1 << rng.below(8)));
        break;
      case 1:
        s.resize(pos);
        break;
      case 2:
        s.insert(pos, 1 + rng.below(8), static_cast<char>(rng.below(256)));
        break;
      default: {
        const Word w = words[rng.below(words.size())];
        if (w.offset + w.width > s.size()) break;
        std::uint64_t value = 0;  // little-endian: the low `width` bytes
        std::memcpy(&value, s.data() + w.offset, w.width);
        value = boundary_value(rng, w.width, s.size(), value);
        std::memcpy(s.data() + w.offset, &value, w.width);
      }
    }
  }
  return s;
}

/// The magic and body of a sealed file on disk.
std::pair<std::uint64_t, std::string> unseal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  return {magic, bytes.substr(8, bytes.size() - 16)};
}

std::vector<CandidateRecord> sample_candidates() {
  std::vector<CandidateRecord> records(4);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].obs = ObservationId{"FUZZ", 56000.5 + static_cast<double>(i),
                                   1.5, -2.5, static_cast<int>(i)};
    records[i].event.dm = 10.0 * static_cast<double>(i + 1);
    records[i].event.snr = 7.0;
    records[i].event.sample = static_cast<std::int64_t>(i) * 100;
    records[i].event.downfact = 2;
  }
  return records;
}

std::vector<std::pair<std::string, std::string>> sample_pairs() {
  return {{"k0", "first value"}, {"", "empty key"}, {"k2", ""},
          {"PALFA|56000.01|213.77|15.22|3", std::string(24, 'v')}};
}

TEST(FormatFuzz, DataFileNeverCrashes) {
  fuzz(sample_data_file(),
       [](const std::string& text) {
         std::istringstream in(text);
         read_data_file(in);
       },
       101, 400);
}

TEST(FormatFuzz, ClusterFileNeverCrashes) {
  std::vector<ClusterRecord> clusters(5);
  for (int i = 0; i < 5; ++i) {
    clusters[static_cast<std::size_t>(i)].obs.dataset = "FUZZ";
    clusters[static_cast<std::size_t>(i)].cluster_id = i;
    clusters[static_cast<std::size_t>(i)].num_spes = 10;
  }
  std::ostringstream out;
  write_cluster_file(out, clusters);
  fuzz(out.str(),
       [](const std::string& text) {
         std::istringstream in(text);
         read_cluster_file(in);
       },
       103, 400);
}

TEST(FormatFuzz, SinglepulseFileNeverCrashes) {
  std::ostringstream out;
  std::vector<SinglePulseEvent> events(10);
  write_singlepulse(out, events);
  fuzz(out.str(),
       [](const std::string& text) {
         std::istringstream in(text);
         read_singlepulse(in);
       },
       107, 400);
}

TEST(FormatFuzz, MlFileNeverCrashes) {
  std::vector<MlRecord> records(3);
  for (auto& rec : records) rec.obs.dataset = "FUZZ";
  std::ostringstream out;
  write_ml_file(out, records);
  fuzz(out.str(),
       [](const std::string& text) {
         std::istringstream in(text);
         read_ml_file(in);
       },
       109, 400);
}

TEST(FormatFuzz, CatalogNeverCrashes) {
  SourceCatalog catalog;
  catalog.add({"J0001+01", 1.0, 1.0, 10.0, 1.0, false});
  catalog.add({"R0002-02", 2.0, -2.0, 20.0, 0.0, true});
  std::ostringstream out;
  catalog.save(out);
  fuzz(out.str(),
       [](const std::string& text) {
         std::istringstream in(text);
         SourceCatalog::load(in);
       },
       113, 400);
}

TEST(FormatFuzz, ObservationKeyNeverCrashes) {
  const std::string valid = ObservationId{"FUZZ", 56000.5, 1, 2, 3}.key();
  fuzz(valid,
       [](const std::string& text) { ObservationId::from_key(text); }, 127,
       400);
}


TEST(FormatFuzz, SegmentBodyNeverCrashes) {
  // Mutated bodies are re-sealed, so they pass the checksum and every
  // mutation reaches the record count and decode_candidate_record.
  const std::string path =
      (std::filesystem::temp_directory_path() / "drapid_fuzz_segment.seg")
          .string();
  const auto records = sample_candidates();
  write_segment_file(path, records);
  const auto [magic, body] = unseal(path);
  std::vector<Word> words{{0, 8}};  // the record count
  std::size_t offset = 8;
  for (const auto& rec : records) {
    words.push_back({offset, 4});  // the key length
    offset += 4 + rec.obs.key().size() + 36;
  }
  ASSERT_EQ(offset, body.size());
  fuzz_with(
      body,
      [&words](const std::string& b, Rng& rng) {
        return mutate_binary(b, words, rng);
      },
      [&path, magic = magic](const std::string& mutated) {
        write_sealed(path, magic, mutated);
        read_segment_file(path);
      },
      131, 600);
  std::filesystem::remove(path);
}

TEST(FormatFuzz, SpillBodyNeverCrashes) {
  // The same through a spilled cache with no producer: each re-sealed
  // mutant is read back by materialize() and decoded by the wire codec.
  EngineConfig cfg;
  cfg.num_executors = 1;
  cfg.executor_memory_bytes = 1;
  cfg.exec.threads_per_worker = 1;
  Engine engine(cfg);
  CachedStringRdd cached(engine, parallelize(engine, sample_pairs(), 1),
                         "fuzz");
  ASSERT_TRUE(cached.spilled());
  const auto dir =
      std::filesystem::path(engine.next_spill_path()).parent_path();
  const std::string path =
      std::filesystem::directory_iterator(dir)->path().string();
  const auto [magic, body] = unseal(path);
  std::vector<Word> words{{0, 8}};  // the record count
  std::size_t offset = 8;
  for (const auto& [k, v] : sample_pairs()) {
    words.push_back({offset, 8});  // the key length
    offset += 8 + k.size();
    words.push_back({offset, 8});  // the value length
    offset += 8 + v.size();
  }
  ASSERT_EQ(offset, body.size());
  fuzz_with(
      body,
      [&words](const std::string& b, Rng& rng) {
        return mutate_binary(b, words, rng);
      },
      [&path, &cached, magic = magic](const std::string& mutated) {
        write_sealed(path, magic, mutated);
        cached.materialize();
      },
      137, 400);
}

TEST(FormatFuzz, ShuffleBodyNeverCrashes) {
  // One source's shuffle file for one worker slot: each re-sealed mutant is
  // assembled into its target partitions, which the wire codec decodes.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "drapid_fuzz_shuffle";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto pairs = sample_pairs();
  const std::vector<std::vector<std::pair<std::string, std::string>>> runs = {
      {pairs[0], pairs[1]}, {pairs[2], pairs[3]}};
  pooldetail::write_shuffle_files(dir.string(), 1, 0, 1,
                                  detail::encode_bundle(runs));
  const auto assemble = [&dir, &runs] {
    return pooldetail::assemble_targets(dir.string(), 1, 1, 1, 0,
                                        runs.size());
  };
  const auto targets = assemble();
  ASSERT_EQ(targets.size(), runs.size());
  for (std::size_t t = 0; t < runs.size(); ++t) {
    EXPECT_EQ(targets[t].bytes, ipc::encode_payload(runs[t]));
  }
  const std::string path = fs::directory_iterator(dir)->path().string();
  const auto [magic, body] = unseal(path);
  std::vector<Word> words{{0, 8}};  // the segment count
  std::size_t offset = 8;
  for (const auto& run : runs) {
    for (int field = 0; field < 3; ++field) {  // target, records, bytes
      words.push_back({offset, 8});
      offset += 8;
    }
    for (const auto& [k, v] : run) {
      words.push_back({offset, 8});  // the key length
      offset += 8 + k.size();
      words.push_back({offset, 8});  // the value length
      offset += 8 + v.size();
    }
  }
  ASSERT_EQ(offset, body.size());
  fuzz_with(
      body,
      [&words](const std::string& b, Rng& rng) {
        return mutate_binary(b, words, rng);
      },
      [&path, &assemble, magic = magic](const std::string& mutated) {
        write_sealed(path, magic, mutated);
        for (const auto& target : assemble()) {
          ipc::decode_payload<std::pair<std::string, std::string>>(
              target.bytes);
        }
      },
      151, 600);
  fs::remove_all(dir);
}

/// Fuzzes ipc::try_decode_frame on mutants of one frame whose payload is a
/// wire-codec string-pair vector; a frame that decodes has its payload
/// decoded too. With `reseal`, each mutant's checksum is recomputed over
/// the extent its (possibly mutated) payload length claims, so mutations
/// reach past the checksum.
void fuzz_frames(bool reseal, std::uint64_t seed) {
  constexpr std::size_t kHeaderBytes = 14 * 8;
  ipc::TaskFrame frame;
  frame.kind = ipc::FrameKind::kData;
  frame.partition = 3;
  frame.payload = ipc::encode_payload(sample_pairs());
  const std::string valid = ipc::encode_frame(frame);
  std::vector<Word> words{{8, 8}, {24, 8}, {13 * 8, 8}};  // kind, error, len
  words.push_back({kHeaderBytes, 8});  // the payload's vector count
  std::size_t offset = kHeaderBytes + 8;
  for (const auto& [k, v] : sample_pairs()) {
    words.push_back({offset, 8});
    offset += 8 + k.size();
    words.push_back({offset, 8});
    offset += 8 + v.size();
  }
  fuzz_with(
      valid,
      [&words, reseal](const std::string& f, Rng& rng) {
        std::string s = mutate_binary(f, words, rng);
        if (!reseal || s.size() < kHeaderBytes + 8) return s;
        std::uint64_t len = 0;
        std::memcpy(&len, s.data() + 13 * 8, sizeof(len));
        if (len > s.size() - kHeaderBytes - 8) return s;
        const std::size_t end = kHeaderBytes + static_cast<std::size_t>(len);
        Checksum sum;
        sum.update(s.data() + 8, end - 8);
        const std::uint64_t digest = sum.digest();
        std::memcpy(s.data() + end, &digest, sizeof(digest));
        return s;
      },
      [](const std::string& mutated) {
        // An exact-size heap copy, so a read past the frame is caught.
        const std::vector<char> bytes(mutated.begin(), mutated.end());
        ipc::FrameView view;
        std::size_t consumed = 0;
        if (ipc::try_decode_frame(bytes.data(), bytes.size(), view,
                                  consumed) != ipc::DecodeStatus::kOk) {
          return;
        }
        ASSERT_LE(consumed, bytes.size());
        ASSERT_LE(view.payload_size, bytes.size());
        ipc::decode_payload<std::pair<std::string, std::string>>(
            std::string(view.payload, view.payload_size));
      },
      seed, 3000);
}

TEST(FormatFuzz, WireFrameNeverCrashes) { fuzz_frames(false, 139); }

TEST(FormatFuzz, ResealedWireFrameNeverCrashes) { fuzz_frames(true, 149); }

}  // namespace
}  // namespace drapid
