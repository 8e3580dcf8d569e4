// Prometheus text-exposition coverage: a golden-file test pinning the
// rendered bytes (label escaping, label ordering, `le` bucket rendering,
// the +Inf bucket) plus a promtool-style format validator that is run
// over both the golden registry and a live engine's metrics() output.

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;

// A promtool-like validator for the text exposition format. Returns one
// human-readable string per violation (empty = valid). Checks:
//   * every line is a HELP/TYPE comment or a sample,
//   * metric and label names match the Prometheus grammar,
//   * label values are quoted and use only the \\ \" \n escapes,
//   * every sample belongs to a declared TYPE family (histogram samples
//     resolve through their _bucket/_sum/_count suffix),
//   * per histogram series: `le` bounds strictly increase, cumulative
//     counts never decrease, the +Inf bucket exists and equals _count,
//     and _sum is present.
std::vector<std::string> ValidateExposition(const std::string& text) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> types;
  struct HistSeries {
    std::vector<std::pair<double, uint64_t>> buckets;
    bool has_inf = false;
    uint64_t inf_count = 0;
    bool has_count = false;
    uint64_t count = 0;
    bool has_sum = false;
  };
  std::map<std::string, HistSeries> histograms;

  const auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    if (!(std::isalpha(static_cast<unsigned char>(name[0])) ||
          name[0] == '_' || name[0] == ':')) {
      return false;
    }
    for (char c : name) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == ':')) {
        return false;
      }
    }
    return true;
  };

  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const auto fail = [&errors, line_no, &line](const std::string& msg) {
      errors.push_back("line " + std::to_string(line_no) + ": " + msg +
                       " [" + line + "]");
    };
    if (line.empty()) {
      fail("blank line");
      continue;
    }
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, name, type;
      comment >> hash >> keyword >> name >> type;
      if (keyword == "HELP") continue;
      if (keyword != "TYPE") {
        fail("unknown comment keyword '" + keyword + "'");
        continue;
      }
      if (!valid_name(name)) fail("invalid family name '" + name + "'");
      if (type != "counter" && type != "gauge" && type != "histogram") {
        fail("invalid family type '" + type + "'");
      }
      if (!types.emplace(name, type).second) {
        fail("family '" + name + "' declared twice");
      }
      continue;
    }

    // Sample line: name[{labels}] SP value
    size_t pos = 0;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_' || line[pos] == ':')) {
      ++pos;
    }
    const std::string name = line.substr(0, pos);
    if (!valid_name(name)) {
      fail("invalid metric name '" + name + "'");
      continue;
    }
    std::vector<std::pair<std::string, std::string>> labels;
    bool malformed = false;
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      bool closed = false;
      while (pos < line.size() && !closed && !malformed) {
        const size_t key_start = pos;
        while (pos < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[pos])) ||
                line[pos] == '_')) {
          ++pos;
        }
        const std::string key = line.substr(key_start, pos - key_start);
        if (key.empty() || pos >= line.size() || line[pos] != '=') {
          fail("malformed label key");
          malformed = true;
          break;
        }
        ++pos;
        if (pos >= line.size() || line[pos] != '"') {
          fail("label value not quoted");
          malformed = true;
          break;
        }
        ++pos;
        std::string value;
        bool terminated = false;
        while (pos < line.size()) {
          const char c = line[pos];
          if (c == '\\') {
            if (pos + 1 >= line.size()) break;
            const char esc = line[pos + 1];
            if (esc != '\\' && esc != '"' && esc != 'n') {
              fail(std::string("invalid escape '\\") + esc + "'");
            }
            value += esc == 'n' ? '\n' : esc;
            pos += 2;
            continue;
          }
          if (c == '"') {
            terminated = true;
            ++pos;
            break;
          }
          value += c;
          ++pos;
        }
        if (!terminated) {
          fail("unterminated label value");
          malformed = true;
          break;
        }
        labels.emplace_back(key, value);
        if (pos < line.size() && line[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < line.size() && line[pos] == '}') {
          closed = true;
          ++pos;
          break;
        }
        fail("malformed label separator");
        malformed = true;
      }
      if (!closed && !malformed) {
        fail("unterminated label block");
        malformed = true;
      }
    }
    if (malformed) continue;
    if (pos >= line.size() || line[pos] != ' ') {
      fail("missing value separator");
      continue;
    }
    const std::string value_text = line.substr(pos + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      fail("unparseable sample value '" + value_text + "'");
      continue;
    }

    // Resolve the sample to its declared family.
    std::string family = name;
    std::string suffix;
    if (types.find(name) == types.end()) {
      for (const char* candidate : {"_bucket", "_sum", "_count"}) {
        const std::string suf = candidate;
        if (name.size() > suf.size() &&
            name.compare(name.size() - suf.size(), suf.size(), suf) == 0) {
          const std::string base = name.substr(0, name.size() - suf.size());
          auto it = types.find(base);
          if (it != types.end() && it->second == "histogram") {
            family = base;
            suffix = suf;
            break;
          }
        }
      }
      if (suffix.empty()) {
        fail("sample without a TYPE declaration");
        continue;
      }
    } else if (types[name] == "histogram") {
      fail("bare sample for a histogram family");
      continue;
    }

    if (suffix.empty()) continue;  // plain counter/gauge sample: done
    std::string le;
    std::string series_key = family;
    for (const auto& [key, label_value] : labels) {
      if (suffix == "_bucket" && key == "le") {
        le = label_value;
        continue;
      }
      series_key += ";" + key + "=" + label_value;
    }
    HistSeries& series = histograms[series_key];
    if (suffix == "_bucket") {
      if (le.empty()) {
        fail("bucket sample without an le label");
        continue;
      }
      if (le == "+Inf") {
        series.has_inf = true;
        series.inf_count = static_cast<uint64_t>(value);
      } else {
        char* le_end = nullptr;
        const double bound = std::strtod(le.c_str(), &le_end);
        if (le_end == le.c_str() || *le_end != '\0') {
          fail("unparseable le bound '" + le + "'");
          continue;
        }
        series.buckets.emplace_back(bound, static_cast<uint64_t>(value));
      }
    } else if (suffix == "_count") {
      series.has_count = true;
      series.count = static_cast<uint64_t>(value);
    } else {
      series.has_sum = true;
    }
  }

  for (const auto& [key, series] : histograms) {
    for (size_t i = 1; i < series.buckets.size(); ++i) {
      if (series.buckets[i - 1].first >= series.buckets[i].first) {
        errors.push_back(key + ": le bounds not strictly increasing");
      }
      if (series.buckets[i - 1].second > series.buckets[i].second) {
        errors.push_back(key + ": cumulative bucket counts decreased");
      }
    }
    if (!series.has_inf) errors.push_back(key + ": missing +Inf bucket");
    if (!series.has_count) errors.push_back(key + ": missing _count");
    if (!series.has_sum) errors.push_back(key + ": missing _sum");
    if (series.has_inf && !series.buckets.empty() &&
        series.buckets.back().second > series.inf_count) {
      errors.push_back(key + ": +Inf bucket below the last finite bucket");
    }
    if (series.has_inf && series.has_count &&
        series.inf_count != series.count) {
      errors.push_back(key + ": _count disagrees with the +Inf bucket");
    }
  }
  return errors;
}

// One registry exercising every rendering edge: escaped label values
// (backslash, quote, newline), label-key ordering, bucket `le` labels,
// and the +Inf bucket.
MetricsRegistry& GoldenRegistry() {
  static MetricsRegistry registry;
  static const bool initialized = [] {
    registry
        .GetCounter("swope_a_total", {{"path", "a\"b\\c\nd"}, {"kind", "x"}})
        ->Increment(3);
    registry.GetGauge("swope_g")->Set(-2);
    Histogram* h =
        registry.GetHistogram("swope_h_ms", {{"pool", "p"}}, {0.5, 2});
    h->Observe(0.25);
    h->Observe(1.0);
    h->Observe(99.0);
    return true;
  }();
  (void)initialized;
  return registry;
}

TEST(PrometheusGoldenTest, RendersExactExpositionText) {
  // Byte-exact golden: label keys sort (kind before path), escapes render
  // as \" \\ \n, buckets carry le plus a final +Inf, then _sum/_count.
  const std::string expected =
      "# TYPE swope_a_total counter\n"
      "swope_a_total{kind=\"x\",path=\"a\\\"b\\\\c\\nd\"} 3\n"
      "# TYPE swope_g gauge\n"
      "swope_g -2\n"
      "# TYPE swope_h_ms histogram\n"
      "swope_h_ms_bucket{pool=\"p\",le=\"0.5\"} 1\n"
      "swope_h_ms_bucket{pool=\"p\",le=\"2\"} 2\n"
      "swope_h_ms_bucket{pool=\"p\",le=\"+Inf\"} 3\n"
      "swope_h_ms_sum{pool=\"p\"} 100.25\n"
      "swope_h_ms_count{pool=\"p\"} 3\n";
  EXPECT_EQ(GoldenRegistry().RenderPrometheusText(), expected);
}

TEST(PrometheusGoldenTest, RenderIsDeterministic) {
  EXPECT_EQ(GoldenRegistry().RenderPrometheusText(),
            GoldenRegistry().RenderPrometheusText());
}

TEST(PrometheusValidatorTest, AcceptsTheGoldenExposition) {
  const std::vector<std::string> errors =
      ValidateExposition(GoldenRegistry().RenderPrometheusText());
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(PrometheusValidatorTest, RejectsMalformedExposition) {
  EXPECT_FALSE(ValidateExposition("undeclared_total 1\n").empty());
  EXPECT_FALSE(ValidateExposition("# TYPE a counter\na{k=unquoted} 1\n")
                   .empty());
  EXPECT_FALSE(
      ValidateExposition("# TYPE a counter\na{k=\"bad\\tescape\"} 1\n")
          .empty());
  EXPECT_FALSE(
      ValidateExposition("# TYPE a counter\na{k=\"open} 1\n").empty());
  EXPECT_FALSE(ValidateExposition("# TYPE a counter\na notanumber\n")
                   .empty());
  EXPECT_FALSE(ValidateExposition("# TYPE 9bad counter\n").empty());
  // Histogram without its +Inf bucket / _count / _sum.
  EXPECT_FALSE(ValidateExposition("# TYPE h histogram\n"
                                  "h_bucket{le=\"1\"} 1\n")
                   .empty());
  // Cumulative counts must never decrease.
  EXPECT_FALSE(ValidateExposition("# TYPE h histogram\n"
                                  "h_bucket{le=\"1\"} 2\n"
                                  "h_bucket{le=\"2\"} 1\n"
                                  "h_bucket{le=\"+Inf\"} 2\n"
                                  "h_sum 3\n"
                                  "h_count 2\n")
                   .empty());
}

TEST(PrometheusValidatorTest, LiveEngineMetricsAreValid) {
  // Exercise the full engine metric surface -- query latencies, pool
  // telemetry, utilization gauges -- and run the validator over the same
  // text `serve metrics` would emit.
  EngineConfig config;
  config.intra_query_threads = 2;
  config.slow_query_ms = 1e-6;  // capture everything as slow
  QueryEngine engine(config);
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0, 1.0}, 2000, 7))
          .ok());
  QuerySpec spec;
  spec.dataset = "ds";
  spec.kind = QueryKind::kEntropyTopK;
  spec.k = 2;
  spec.trace = true;
  spec.profile = true;
  ASSERT_TRUE(engine.Run(spec).ok());
  spec.profile = false;
  spec.trace = false;
  ASSERT_TRUE(engine.Run(spec).ok());  // cache hit
  (void)engine.GetCounters();          // refresh utilization gauges

  const std::string text = engine.metrics().RenderPrometheusText();
  const std::vector<std::string> errors = ValidateExposition(text);
  EXPECT_TRUE(errors.empty()) << errors.front() << " ("
                              << errors.size() << " total)";

  // The worker utilization gauges must be part of the exposition.
  EXPECT_NE(
      text.find("swope_pool_utilization_percent{pool=\"executor\"}"),
      std::string::npos);
  EXPECT_NE(text.find("swope_pool_worker_busy_ms{pool=\"intra\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace swope
