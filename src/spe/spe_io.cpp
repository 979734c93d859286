#include "spe/spe_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <locale>
#include <map>
#include <sstream>
#include <stdexcept>

namespace drapid {

namespace {

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  return in;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write file: " + path);
  return out;
}

}  // namespace

void write_singlepulse(std::ostream& out,
                       const std::vector<SinglePulseEvent>& events) {
  out << "# DM      Sigma      Time (s)     Sample    Downfact\n";
  for (const auto& e : events) {
    out << format_double(e.dm) << ' ' << format_double(e.snr) << ' '
        << format_double(e.time_s, 9) << ' ' << std::to_string(e.sample) << ' '
        << std::to_string(e.downfact) << '\n';
  }
}

std::vector<SinglePulseEvent> read_singlepulse(std::istream& in) {
  std::vector<SinglePulseEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    row.imbue(std::locale::classic());  // PRESTO files always use '.'
    SinglePulseEvent e;
    if (!(row >> e.dm >> e.snr >> e.time_s >> e.sample >> e.downfact)) {
      throw std::runtime_error("malformed .singlepulse row: " + line);
    }
    events.push_back(e);
  }
  return events;
}

const char kDataFileHeader[] =
    "dataset,mjd,ra_deg,dec_deg,beam,dm,snr,time_s,sample,downfact";

CsvRow format_data_row(const ObservationId& obs, const SinglePulseEvent& spe) {
  return CsvRow{obs.dataset,
                format_double(obs.mjd, 17),
                format_double(obs.ra_deg, 17),
                format_double(obs.dec_deg, 17),
                std::to_string(obs.beam),
                format_double(spe.dm),
                format_double(spe.snr),
                format_double(spe.time_s, 9),
                std::to_string(spe.sample),
                std::to_string(spe.downfact)};
}

void parse_data_row(const CsvRow& row, ObservationId& obs,
                    SinglePulseEvent& spe) {
  if (row.size() != 10) {
    throw std::runtime_error("data row must have 10 fields, got " +
                             std::to_string(row.size()));
  }
  obs.dataset = row[0];
  obs.mjd = parse_double(row[1]);
  obs.ra_deg = parse_double(row[2]);
  obs.dec_deg = parse_double(row[3]);
  obs.beam = static_cast<int>(parse_int(row[4]));
  spe.dm = parse_double(row[5]);
  spe.snr = parse_double(row[6]);
  spe.time_s = parse_double(row[7]);
  spe.sample = parse_int(row[8]);
  spe.downfact = static_cast<int>(parse_int(row[9]));
}

void write_data_file(std::ostream& out,
                     const std::vector<ObservationData>& observations) {
  out << kDataFileHeader << '\n';
  for (const auto& obs : observations) {
    for (const auto& spe : obs.events) {
      out << format_csv_row(format_data_row(obs.id, spe)) << '\n';
    }
  }
}

void write_data_file(const std::string& path,
                     const std::vector<ObservationData>& observations) {
  auto out = open_output(path);
  write_data_file(out, observations);
}

std::vector<ObservationData> read_data_file(std::istream& in) {
  std::vector<ObservationData> result;
  std::map<std::string, std::size_t> index_by_key;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;  // first non-empty line is the header
      continue;
    }
    ObservationId id;
    SinglePulseEvent spe;
    parse_data_row(parse_csv_line(line), id, spe);
    const std::string key = id.key();
    auto [it, inserted] = index_by_key.try_emplace(key, result.size());
    if (inserted) result.push_back(ObservationData{id, {}});
    result[it->second].events.push_back(spe);
  }
  return result;
}

std::vector<ObservationData> read_data_file(const std::string& path) {
  auto in = open_input(path);
  return read_data_file(in);
}

const char kClusterFileHeader[] =
    "dataset,mjd,ra_deg,dec_deg,beam,cluster_id,num_spes,dm_min,dm_max,"
    "time_min,time_max,snr_max,rank";

CsvRow format_cluster_row(const ClusterRecord& rec) {
  return CsvRow{rec.obs.dataset,
                format_double(rec.obs.mjd, 17),
                format_double(rec.obs.ra_deg, 17),
                format_double(rec.obs.dec_deg, 17),
                std::to_string(rec.obs.beam),
                std::to_string(rec.cluster_id),
                std::to_string(rec.num_spes),
                format_double(rec.dm_min),
                format_double(rec.dm_max),
                format_double(rec.time_min, 9),
                format_double(rec.time_max, 9),
                format_double(rec.snr_max),
                std::to_string(rec.rank)};
}

ClusterRecord parse_cluster_row(const CsvRow& row) {
  if (row.size() != 13) {
    throw std::runtime_error("cluster row must have 13 fields, got " +
                             std::to_string(row.size()));
  }
  ClusterRecord rec;
  rec.obs.dataset = row[0];
  rec.obs.mjd = parse_double(row[1]);
  rec.obs.ra_deg = parse_double(row[2]);
  rec.obs.dec_deg = parse_double(row[3]);
  rec.obs.beam = static_cast<int>(parse_int(row[4]));
  rec.cluster_id = static_cast<int>(parse_int(row[5]));
  rec.num_spes = static_cast<std::uint32_t>(parse_int(row[6]));
  rec.dm_min = parse_double(row[7]);
  rec.dm_max = parse_double(row[8]);
  rec.time_min = parse_double(row[9]);
  rec.time_max = parse_double(row[10]);
  rec.snr_max = parse_double(row[11]);
  rec.rank = static_cast<int>(parse_int(row[12]));
  return rec;
}

void write_cluster_file(std::ostream& out,
                        const std::vector<ClusterRecord>& clusters) {
  out << kClusterFileHeader << '\n';
  for (const auto& rec : clusters) {
    out << format_csv_row(format_cluster_row(rec)) << '\n';
  }
}

void write_cluster_file(const std::string& path,
                        const std::vector<ClusterRecord>& clusters) {
  auto out = open_output(path);
  write_cluster_file(out, clusters);
}

std::vector<ClusterRecord> read_cluster_file(std::istream& in) {
  std::vector<ClusterRecord> clusters;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;
      continue;
    }
    clusters.push_back(parse_cluster_row(parse_csv_line(line)));
  }
  return clusters;
}

std::vector<ClusterRecord> read_cluster_file(const std::string& path) {
  auto in = open_input(path);
  return read_cluster_file(in);
}

// --- Binary candidate records (archive segments) ----------------------------

namespace {

template <typename T>
void append_raw(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_raw(const char* data, std::size_t size, std::size_t& offset) {
  if (size - offset < sizeof(T)) {
    throw std::runtime_error("truncated candidate record");
  }
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

void append_candidate_record(std::string& out, const CandidateRecord& rec) {
  const std::string key = rec.obs.key();  // validates the id
  append_raw(out, static_cast<std::uint32_t>(key.size()));
  out.append(key);
  append_raw(out, rec.event.dm);
  append_raw(out, rec.event.snr);
  append_raw(out, rec.event.time_s);
  append_raw(out, rec.event.sample);
  append_raw(out, static_cast<std::int32_t>(rec.event.downfact));
}

CandidateRecord decode_candidate_record(const char* data, std::size_t size,
                                        std::size_t& offset) {
  if (offset > size) throw std::runtime_error("truncated candidate record");
  const auto key_len = read_raw<std::uint32_t>(data, size, offset);
  if (key_len == 0 || key_len > size - offset) {
    throw std::runtime_error("truncated candidate record");
  }
  const std::string key(data + offset, key_len);
  offset += key_len;
  CandidateRecord rec;
  rec.obs = ObservationId::from_key(key);  // rejects malformed keys
  rec.event.dm = read_raw<double>(data, size, offset);
  rec.event.snr = read_raw<double>(data, size, offset);
  rec.event.time_s = read_raw<double>(data, size, offset);
  rec.event.sample = read_raw<std::int64_t>(data, size, offset);
  rec.event.downfact = read_raw<std::int32_t>(data, size, offset);
  return rec;
}

}  // namespace drapid
