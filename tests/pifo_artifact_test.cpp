// pifo_artifact_test.cpp — the committed BENCH_pifo.json is reproduced
// exactly.
//
// Every pifo_inversions row is a deterministic function of the seeded
// rank workloads: the exact-PIFO rows must never invert, the SP-PIFO rows
// pin the approximation error per band count, and the hw-model columns
// pin cycles and area.  This suite reruns the full sweep (binary and
// artifact paths injected by CMake) and compares every field of the
// fresh document with the committed one, except `env`, which records how
// long the run took and how much memory it used.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include "util/json.hpp"

namespace {

#ifndef PIFO_INVERSIONS_BINARY
#error "PIFO_INVERSIONS_BINARY must point at the pifo_inversions executable"
#endif
#ifndef BENCH_PIFO_JSON
#error "BENCH_PIFO_JSON must point at the committed BENCH_pifo.json"
#endif

using ss::util::JsonValue;

void expect_same(const JsonValue& want, const JsonValue& got,
                 const std::string& at);

void expect_same_members(const JsonValue::Object& want,
                         const JsonValue::Object& got, const std::string& at) {
  ASSERT_EQ(want.size(), got.size()) << at;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].first, got[i].first) << at;
    expect_same(want[i].second, got[i].second, at + "." + want[i].first);
  }
}

/// Structural equality; numbers compare as the doubles both files parse
/// to, so a change in any printed digit fails.
void expect_same(const JsonValue& want, const JsonValue& got,
                 const std::string& at) {
  ASSERT_EQ(want.type(), got.type()) << at;
  switch (want.type()) {
    case JsonValue::Type::kNull:
      break;
    case JsonValue::Type::kBool:
      EXPECT_EQ(want.as_bool(), got.as_bool()) << at;
      break;
    case JsonValue::Type::kNumber:
      EXPECT_EQ(want.as_num(), got.as_num()) << at;
      break;
    case JsonValue::Type::kString:
      EXPECT_EQ(want.as_str(), got.as_str()) << at;
      break;
    case JsonValue::Type::kArray: {
      const auto& w = want.as_array();
      const auto& g = got.as_array();
      ASSERT_EQ(w.size(), g.size()) << at;
      for (std::size_t i = 0; i < w.size(); ++i) {
        expect_same(w[i], g[i], at + "[" + std::to_string(i) + "]");
      }
      break;
    }
    case JsonValue::Type::kObject:
      expect_same_members(want.as_object(), got.as_object(), at);
      break;
  }
}

/// The document's top-level members without `env`.
JsonValue::Object without_env(const JsonValue& doc) {
  JsonValue::Object out;
  for (const auto& m : doc.as_object()) {
    if (m.first != "env") out.push_back(m);
  }
  return out;
}

TEST(PifoArtifact, FullSweepMatchesCommittedArtifactExactly) {
  const std::string out = ::testing::TempDir() + "pifo_artifact_test.json";
  const std::string cmd = std::string("'") + PIFO_INVERSIONS_BINARY +
                          "' --out '" + out + "' >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(rc != -1 && WIFEXITED(rc) && WEXITSTATUS(rc) == 0) << cmd;

  const auto committed = ss::util::parse_json_file(BENCH_PIFO_JSON);
  const auto fresh = ss::util::parse_json_file(out);
  std::remove(out.c_str());
  ASSERT_TRUE(committed.has_value()) << BENCH_PIFO_JSON;
  ASSERT_TRUE(fresh.has_value()) << out;

  expect_same_members(without_env(*committed), without_env(*fresh), "");
  // The sweep the artifact records: 3 key distributions x 9 backends.
  const JsonValue* rows = committed->find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->as_array().size(), 27u);
  EXPECT_EQ(committed->num_at("ops"), 40000.0);
  EXPECT_EQ(committed->num_at("capacity"), 256.0);
}

}  // namespace
