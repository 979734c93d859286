// The one number formatter every survey file writes through: byte-for-byte
// what a classic-locale ostream writes, and blind to the global locale.
#include <gtest/gtest.h>

#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rapid/features.hpp"
#include "spe/spe_io.hpp"
#include "util/csv.hpp"

namespace drapid {
namespace {

/// Decimal comma and '.'-grouped thousands, the way de_DE spells numbers —
/// built from a facet, so the test needs no system locale.
struct DecimalComma : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs the decimal-comma locale globally for one scope.
class GlobalDecimalComma {
 public:
  GlobalDecimalComma()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new DecimalComma))) {}
  ~GlobalDecimalComma() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

std::string classic_stream(double v, int precision) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(precision);
  out << v;
  return out.str();
}

std::vector<double> corpus() {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0,
      -0.0,
      limits::denorm_min(),
      -limits::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      limits::min(),
      limits::max(),
      -limits::max(),
      1e21,
      -1e21,
      1e-21,
      -1e-21,
      1e-5,
      1e-4,
      123456.0,
      1234567.0,
      9.9999995,
      0.1,
      1.0 / 3.0,
      59000.010000000002,
      123.45678901234568,
      -45.678901234567891,
      limits::infinity(),
      -limits::infinity(),
      limits::quiet_NaN(),
      -limits::quiet_NaN(),
  };
  return values;
}

TEST(NumberFormat, MatchesClassicLocaleStreamAtEveryPrecision) {
  for (const int precision : {6, 9, 17}) {
    for (const double v : corpus()) {
      std::string appended = "x";
      append_double(appended, v, precision);
      const std::string want = classic_stream(v, precision);
      EXPECT_EQ(format_double(v, precision), want)
          << "precision " << precision;
      EXPECT_EQ(appended, "x" + want) << "precision " << precision;
    }
  }
}

TEST(NumberFormat, RejectsPrecisionAboveSeventeen) {
  EXPECT_THROW(format_double(1.0, 18), std::invalid_argument);
}

TEST(NumberFormat, SurveyRowsIgnoreTheGlobalLocale) {
  ObservationId id;
  id.dataset = "GBT350Drift";
  id.mjd = 59000.010000000002;
  id.ra_deg = 123.45678901234568;
  id.dec_deg = -12.3456789;
  id.beam = 3;
  SinglePulseEvent spe;
  spe.dm = 1234.5;
  spe.snr = 7.25;
  spe.time_s = 1234.5625;  // 9 significant digits round-trip
  spe.sample = 1234567;
  spe.downfact = 4;
  ClusterRecord rec;
  rec.obs = id;
  rec.cluster_id = 1234;
  rec.num_spes = 5678;
  rec.dm_min = 1000.5;
  rec.dm_max = 1001.25;
  rec.time_min = 1234.5;
  rec.time_max = 1234.75;
  rec.snr_max = 12.5;
  rec.rank = 1;
  MlRecord ml;
  ml.obs = id;
  ml.cluster_id = 1234;
  ml.pulse_index = 2;
  for (std::size_t f = 0; f < PulseFeatures::kCount; ++f) {
    ml.features.values[f] = 1000.0 / 3.0 * static_cast<double>(f + 1);
  }
  ml.truth_label = "1";

  const CsvRow data = format_data_row(id, spe);
  const CsvRow cluster = format_cluster_row(rec);
  const CsvRow ml_row = format_ml_row(ml);
  EXPECT_EQ(data[1], "59000.010000000002");
  EXPECT_EQ(data[5], "1234.5");
  {
    const GlobalDecimalComma comma;
    std::ostringstream probe;
    probe << 1234.5;
    ASSERT_EQ(probe.str(), "1.234,5") << "the facet must reach new streams";
    EXPECT_EQ(format_data_row(id, spe), data);
    EXPECT_EQ(format_cluster_row(rec), cluster);
    EXPECT_EQ(format_ml_row(ml), ml_row);
    EXPECT_EQ(format_double(59000.010000000002, 17), "59000.010000000002");
    // What is written parses back, under the same locale.
    ObservationId id_back;
    SinglePulseEvent spe_back;
    parse_data_row(parse_csv_line(format_csv_row(data)), id_back, spe_back);
    EXPECT_EQ(id_back.mjd, id.mjd);
    EXPECT_EQ(spe_back.time_s, spe.time_s);
    EXPECT_EQ(parse_ml_row(format_ml_row(ml)).features.values,
              ml.features.values);
  }
}

TEST(NumberFormat, SinglepulseFilesIgnoreTheGlobalLocale) {
  SinglePulseEvent spe;
  spe.dm = 1234.5;
  spe.snr = 7.25;
  spe.time_s = 1234.5625;
  spe.sample = 1234567;
  spe.downfact = 4;
  std::ostringstream classic;
  write_singlepulse(classic, {spe});
  const GlobalDecimalComma comma;
  std::ostringstream written;  // imbued with the decimal-comma locale
  write_singlepulse(written, {spe});
  EXPECT_EQ(written.str(), classic.str());
  std::istringstream in(written.str());
  const auto events = read_singlepulse(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dm, spe.dm);
  EXPECT_EQ(events[0].time_s, spe.time_s);
  EXPECT_EQ(events[0].sample, spe.sample);
}

}  // namespace
}  // namespace drapid
