// report_test.cpp — the JSON reader and the unified run report.
//
// The JsonValue suite pins the reader's contract (full value grammar,
// insertion-order objects, default-on-absence accessors, rejection of
// trailing garbage).  The Report suite renders pages from hand-written
// run documents — every merge rule is observable in the text: rate rows
// with cumulative totals from the time-series counters, watchdog firings
// localized via watchdog.fired deltas, burn attribution summed across
// stream profiles, the audit watchdog context — plus one round-trip over
// a document the real producers wrote.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "telemetry/observability.hpp"
#include "telemetry/report.hpp"
#include "util/json.hpp"

namespace ss {
namespace {

using telemetry::Report;
using util::JsonValue;

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

TEST(JsonReader, ParsesFullValueGrammar) {
  const auto doc = JsonValue::parse(
      R"({"s": "a\"b\\c", "n": -2.5e2, "i": 42, "b": true, "f": false,)"
      R"( "z": null, "arr": [1, [2], {"k": 3}], "obj": {"nested": "yes"}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->str_at("s"), "a\"b\\c");
  EXPECT_EQ(doc->num_at("n"), -250.0);
  EXPECT_EQ(doc->num_at("i"), 42.0);
  EXPECT_TRUE(doc->bool_at("b"));
  EXPECT_FALSE(doc->bool_at("f", true));
  ASSERT_NE(doc->find("z"), nullptr);
  EXPECT_TRUE(doc->find("z")->is_null());
  const JsonValue* arr = doc->find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->as_array().size(), 3u);
  EXPECT_EQ(arr->as_array()[0].as_num(), 1.0);
  EXPECT_EQ(arr->as_array()[2].num_at("k"), 3.0);
  EXPECT_EQ(doc->find("obj")->str_at("nested"), "yes");
}

TEST(JsonReader, RejectsMalformedAndTrailingGarbage) {
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\": }").has_value());
  EXPECT_FALSE(JsonValue::parse("[1, 2,]").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("nul").has_value());
  EXPECT_TRUE(JsonValue::parse("  {\"a\": 1}  ").has_value());
}

TEST(JsonReader, AbsentOrMistypedFieldsYieldDefaults) {
  const auto doc = JsonValue::parse(R"({"str": "x", "num": 7})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->num_at("missing", 3.5), 3.5);
  EXPECT_EQ(doc->str_at("missing", "dflt"), "dflt");
  EXPECT_EQ(doc->num_at("str", 9.0), 9.0) << "string read as number";
  EXPECT_EQ(doc->str_at("num", "d"), "d") << "number read as string";
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonReader, ObjectsPreserveInsertionOrder) {
  const auto doc = JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue::Object& obj = doc->as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(JsonReader, ParseFileHandlesMissingFile) {
  EXPECT_FALSE(util::parse_json_file("/nonexistent/nope.json").has_value());
}

// ---------------------------------------------------------------------------
// build_report
// ---------------------------------------------------------------------------

// One run document carrying all four sections, as `ss_cli run --out`
// writes it.
struct ReportFixture {
  std::string path = tmp_path("rep_run.json");

  ReportFixture() {
    write_file(path,
               R"({"schema":"ss-run-v1","cause":"watchdog:burn_rate_spike",)"
               R"("metrics":{"counters":{)"
               R"("chip.grants":120,"watchdog.polls":4,)"
               R"("watchdog.fired":1},"gauges":{},"histograms":{)"
               R"("es.frame_delay_us":{"count":500,"sum":9000,)"
               R"("p50":10,"p90":20,"p99":30}}},)"
               R"("audit":{"decisions":1000,"comparisons":5000,"health":1,)"
               R"("watchdog":{"rule":"burn_rate_spike","detail":)"
               R"("lost_tiebreak","value":60,"threshold":50,)"
               R"("window_polls":2},"stream_profiles":[)"
               R"({"burn":{"lost_tiebreak":40}},)"
               R"({"burn":{"lost_tiebreak":20,"queue_overflow":5}}]},)"
               R"("profile":{"total_ns":1000000,"stages":[)"
               R"({"name":"decision","parent":"","share_pct":60,)"
               R"("self_ns":600000,"count":100},)"
               R"({"name":"tx","parent":"","share_pct":40,)"
               R"("self_ns":400000,"count":100}]},)"
               R"("timeseries":{"interval_ns":5000000,)"
               R"("capacity":256,"intervals":4,"retained":4,"dropped":0,)"
               R"("t_ns":[5000000,10000000,15000000,20000000],)"
               R"("counters":{"chip.grants":{"cum":[30,60,90,120],)"
               R"("delta":[30,30,30,30],)"
               R"("rate_per_s":[6000,6000,6000,6000]},)"
               R"("watchdog.fired":{"cum":[0,0,1,1],"delta":[0,0,1,0],)"
               R"("rate_per_s":[0,0,200,0]}},"gauges":{},)"
               R"("histograms":{"es.frame_delay_us":{)"
               R"("count":[100,200,300,500],"p50":[5,5,5,25],)"
               R"("p99":[10,10,10,30],"cum_p99":[10,10,10,30]}}}})");
  }

  ~ReportFixture() { std::remove(path.c_str()); }
};

TEST(RunReport, MergesAllFourDocuments) {
  ReportFixture fx;
  const Report rep = telemetry::build_report(fx.path);
  ASSERT_TRUE(rep.loaded);

  const std::string& t = rep.text;
  const auto has = [&](const std::string& s) {
    return t.find(s) != std::string::npos;
  };
  EXPECT_TRUE(has("ShareStreams run report"));
  EXPECT_TRUE(has("sections: metrics yes  audit yes  profile yes  "
                  "timeseries yes"));
  EXPECT_TRUE(has("run: 20.000 ms wall, 4 interval(s) sampled "
                  "(5.0 ms cadence)"));
  // Rate rows carry each counter's cumulative value.
  EXPECT_TRUE(has("chip.grants"));
  EXPECT_TRUE(has("cum 120  mean 6000  max 6000"));
  EXPECT_TRUE(has("es.frame_delay_us")) << t;
  EXPECT_TRUE(has("n=500 p50 10  p90 20  p99 30"));
  // Burn causes summed across stream profiles, totalled, and sorted
  // descending.
  EXPECT_TRUE(has("top burn causes (65 violations attributed):"));
  const auto lost = t.find("lost_tiebreak            60\n");
  const auto overflow = t.find("queue_overflow           5\n");
  ASSERT_NE(lost, std::string::npos) << t;
  ASSERT_NE(overflow, std::string::npos) << t;
  EXPECT_LT(lost, overflow);
  // Firing localized to its interval via the watchdog.fired delta.
  EXPECT_TRUE(has("fired inside interval ending t=15.000 ms"));
  // The audit's watchdog context, rendered field by field.
  EXPECT_TRUE(has("burn_rate_spike detail=lost_tiebreak value=60 "
                  "threshold=50 window_polls=2"));
  EXPECT_TRUE(has("watchdog: 4 poll(s), 1 fired"));
  EXPECT_TRUE(has("decision            60.0%  self 600000 ns"));
  // The document's cause heads the audit line.
  EXPECT_TRUE(has("audit: cause=watchdog:burn_rate_spike decisions=1000 "
                  "comparisons=5000 health=1"));
  EXPECT_TRUE(has("█")) << "no sparkline rendered";
}

TEST(RunReport, NoInputsYieldsEmptyReport) {
  const Report rep = telemetry::build_report("");
  EXPECT_FALSE(rep.loaded);
  EXPECT_TRUE(rep.text.empty());
  const Report rep2 = telemetry::build_report("/nonexistent/a.json");
  EXPECT_FALSE(rep2.loaded);
}

// A document parseable as JSON but carrying another schema is refused,
// not mis-rendered.
TEST(RunReport, WrongSchemaInputIgnored) {
  const std::string path = tmp_path("rep_other_schema.json");
  write_file(path, R"({"schema":"ss-run-v0","cause":"failover",)"
                   R"("audit":{"decisions":7}})");
  const Report rep = telemetry::build_report(path);
  EXPECT_FALSE(rep.loaded) << "only ss-run-v1 documents load";
  EXPECT_EQ(rep.text.find("audit: cause="), std::string::npos);
  std::remove(path.c_str());
}

// Burn attribution falls back to the registry's audit.burn.* counters
// when the document has no audit section (and hence no stream profiles);
// absent sections are marked, not fatal.
TEST(RunReport, BurnFallsBackToMetricsCounters) {
  const std::string path = tmp_path("rep_burn_metrics.json");
  write_file(path, R"({"schema":"ss-run-v1","cause":"on_demand",)"
                   R"("metrics":{"counters":{)"
                   R"("audit.burn.queue_overflow":7,)"
                   R"("audit.burn.lost_tiebreak":0},"gauges":{},)"
                   R"("histograms":{}}})");
  const Report rep = telemetry::build_report(path);
  ASSERT_TRUE(rep.loaded);
  const std::string& t = rep.text;
  EXPECT_NE(t.find("sections: metrics yes  audit -  profile -  "
                   "timeseries -"),
            std::string::npos)
      << t;
  EXPECT_NE(t.find("top burn causes (7 violations attributed):\n"
                   "  queue_overflow           7\n"),
            std::string::npos)
      << t;
  EXPECT_EQ(t.find("lost_tiebreak"), std::string::npos)
      << "zero-valued causes must be elided, nonzero kept";
  std::remove(path.c_str());
}

// Round trip over a document the real producers wrote: Observability's
// registry and hand-sampled time series, written by finish().
TEST(RunReport, RoundTripsRealProducerDocuments) {
  const std::string path = tmp_path("rep_real_run.json");
  telemetry::ObservabilityOptions opts;
  opts.out = path;
  telemetry::Observability obs(opts, 4, /*profiled=*/false);
  telemetry::Counter& grants = obs.registry().counter("chip.grants");
  grants.add(100);
  obs.timeseries().sample_once();
  grants.add(50);
  obs.timeseries().sample_once();
  ASSERT_TRUE(obs.finish("report_test"));

  const Report rep = telemetry::build_report(path);
  ASSERT_TRUE(rep.loaded);
  EXPECT_NE(rep.text.find("sections: metrics yes  audit yes  profile -  "
                          "timeseries yes"),
            std::string::npos)
      << rep.text;
  EXPECT_NE(rep.text.find("cum 150"), std::string::npos) << rep.text;
  EXPECT_NE(rep.text.find("2 interval(s) sampled"), std::string::npos);
  EXPECT_NE(rep.text.find("audit: cause=on_demand"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ss
