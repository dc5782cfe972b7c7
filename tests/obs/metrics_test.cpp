// Unit tests for the observability layer: thread-safe aggregation, the
// histogram percentile math, the JSON export (validated by re-parsing it
// with a minimal in-test JSON reader), and the phase-timer plumbing.

#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

namespace cpla::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader, just enough to round-trip the exporter's output
// (objects, strings, numbers). Throws std::runtime_error on malformed input
// so a broken exporter fails the test loudly.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<double, std::string, std::shared_ptr<JsonObject>> v;

  double num() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  const JsonObject& obj() const { return *std::get<std::shared_ptr<JsonObject>>(v); }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing bytes");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '"') return JsonValue{string()};
    return number();
  }

  JsonValue object() {
    auto obj = std::make_shared<JsonObject>();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      (*obj)[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{obj};
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': pos_ += 4; out += '?'; break;  // not needed for round-trip keys
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    ++pos_;
    return out;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    return JsonValue{std::stod(s_.substr(start, pos_ - start))};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

/// Runs fn(i) for every i in [0, n) on four std::threads (strided) and
/// joins them: real concurrency whose synchronisation ThreadSanitizer can
/// model, whatever the OpenMP thread count.
template <typename Fn>
void on_four_threads(int n, Fn fn) {
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([=] {
      for (int i = t; i < n; i += kThreads) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.counter");
  constexpr int kIters = 200000;
  on_four_threads(kIters, [&c](int) { c.add(); });
  EXPECT_EQ(c.value(), kIters);

  // Weighted adds from multiple threads are exact too.
  on_four_threads(1000, [&c](int) { c.add(3); });
  EXPECT_EQ(c.value(), kIters + 3000);
}

TEST(HistogramTest, ConcurrentRecordsKeepExactCountAndSum) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.hist");
  constexpr int kIters = 100000;
  on_four_threads(kIters, [&h](int) { h.record(1.0); });
  EXPECT_EQ(h.count(), kIters);
  EXPECT_NEAR(h.sum(), static_cast<double>(kIters), 1e-6);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
}

TEST(HistogramTest, PercentileMath) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Geometric buckets quantize percentiles to ~12% relative resolution.
  EXPECT_NEAR(h.percentile(50.0), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(h.percentile(90.0), 900.0, 900.0 * 0.15);
  EXPECT_NEAR(h.percentile(99.0), 990.0, 990.0 * 0.15);
  // Percentiles are clamped to the observed range.
  EXPECT_GE(h.percentile(0.0), 1.0);
  EXPECT_LE(h.percentile(100.0), 1000.0);
}

TEST(HistogramTest, EdgeCases) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);  // single sample: clamped to [min,max]
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 42.0);

  // Out-of-ladder values land in the saturating end buckets but keep exact
  // min/max; non-finite values are dropped.
  Histogram wide;
  wide.record(1e-9);
  wide.record(1e9);
  wide.record(std::nan(""));
  EXPECT_EQ(wide.count(), 2);
  EXPECT_DOUBLE_EQ(wide.min(), 1e-9);
  EXPECT_DOUBLE_EQ(wide.max(), 1e9);
  EXPECT_LE(wide.percentile(100.0), 1e9);
}

TEST(RegistryTest, HandlesAreStableAcrossReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("stable.counter");
  c.add(7);
  Counter& again = reg.counter("stable.counter");
  EXPECT_EQ(&c, &again);
  reg.reset();
  EXPECT_EQ(c.value(), 0);  // same handle, zeroed value
  c.add();
  EXPECT_EQ(reg.counter("stable.counter").value(), 1);
}

TEST(RegistryTest, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a.count").add(42);
  reg.counter("b.count").add(7);
  reg.gauge("g.value").set(2.5);
  Histogram& h = reg.histogram("h.ms");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));

  const std::string json = reg.to_json();
  const JsonValue doc = JsonReader(json).parse();

  EXPECT_EQ(doc.obj().at("counters").obj().at("a.count").num(), 42.0);
  EXPECT_EQ(doc.obj().at("counters").obj().at("b.count").num(), 7.0);
  EXPECT_DOUBLE_EQ(doc.obj().at("gauges").obj().at("g.value").num(), 2.5);

  const JsonObject& hist = doc.obj().at("histograms").obj().at("h.ms").obj();
  EXPECT_EQ(hist.at("count").num(), 100.0);
  EXPECT_NEAR(hist.at("sum").num(), 5050.0, 1e-6);
  EXPECT_DOUBLE_EQ(hist.at("min").num(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("max").num(), 100.0);
  EXPECT_NEAR(hist.at("p50").num(), 50.0, 50.0 * 0.2);
}

TEST(RegistryTest, JsonEscapesNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with\ttabs").add(1);
  const std::string json = reg.to_json();
  const JsonValue doc = JsonReader(json).parse();
  EXPECT_EQ(doc.obj().at("counters").obj().at("weird\"name\\with\ttabs").num(), 1.0);
}

TEST(ScopedPhaseTest, RecordsIntoPhaseHistogram) {
  MetricsRegistry reg;
  {
    ScopedPhase phase("unit.work", &reg);
  }
  Histogram& h = reg.histogram("phase.unit.work.ms");
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.max(), 0.0);

  // stop() is idempotent and returns the recorded elapsed time.
  ScopedPhase phase2("unit.work", &reg);
  const double ms = phase2.stop();
  EXPECT_DOUBLE_EQ(phase2.stop(), ms);
  EXPECT_EQ(h.count(), 2);
}

TEST(GlobalRegistryTest, SharedAcrossCallSites) {
  const std::int64_t before = metrics().counter("global.test.counter").value();
  metrics().counter("global.test.counter").add(5);
  EXPECT_EQ(metrics().counter("global.test.counter").value(), before + 5);
}

TEST(JsonHelpersTest, NumberFormatting) {
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(std::nan("")), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  const std::string frac = json_number(2.5);
  EXPECT_NEAR(std::stod(frac), 2.5, 1e-12);
}

}  // namespace
}  // namespace cpla::obs
