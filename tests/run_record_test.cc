// Tests for the BenchResult run-record layer: trial statistics, provenance
// probes, deterministic JSON emission (byte-compared against a checked-in
// golden file), and the file writer round trip.

#include "util/run_record.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace simj::run_record {
namespace {

#ifndef SIMJ_TEST_GOLDEN_DIR
#define SIMJ_TEST_GOLDEN_DIR "tests/golden"
#endif

TEST(StatsTest, FromSamplesComputesOrderStatistics) {
  Stats stats = Stats::FromSamples({3.0, 1.0, 2.0, 5.0, 4.0});
  EXPECT_EQ(stats.trials, 5);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.median, 3.0);
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  // Sample stddev of 1..5 is sqrt(2.5).
  EXPECT_NEAR(stats.stddev, 1.5811388300841898, 1e-12);
}

TEST(StatsTest, EvenCountMedianAveragesMiddlePair) {
  Stats stats = Stats::FromSamples({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(stats.trials, 4);
  EXPECT_DOUBLE_EQ(stats.median, 2.5);
}

TEST(StatsTest, SingleSampleHasZeroStddev) {
  Stats stats = Stats::FromSamples({7.25});
  EXPECT_EQ(stats.trials, 1);
  EXPECT_DOUBLE_EQ(stats.min, 7.25);
  EXPECT_DOUBLE_EQ(stats.median, 7.25);
  EXPECT_DOUBLE_EQ(stats.max, 7.25);
  EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(StatsTest, EmptyYieldsZeroes) {
  Stats stats = Stats::FromSamples({});
  EXPECT_EQ(stats.trials, 0);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.median, 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(ProvenanceTest, BuildInfoIsPopulated) {
  BuildInfo build = CurrentBuildInfo();
  EXPECT_FALSE(build.compiler.empty());
}

TEST(ProvenanceTest, HardwareInfoIsSane) {
  HardwareInfo hardware = CurrentHardwareInfo();
  EXPECT_GE(hardware.hardware_concurrency, 1);
  EXPECT_GT(hardware.page_size_bytes, 0);
}

TEST(ProvenanceTest, ClockIsPostEpoch) {
  EXPECT_GT(NowUnixSeconds(), 1e9);
}

// A fully deterministic record: every environment-dependent field pinned.
BenchResult MakeGoldenRecord() {
  BenchResult result;
  result.harness = "bench_golden";
  result.unix_time_seconds = 0.0;
  result.git.sha = "0123456789abcdef0123456789abcdef01234567";
  result.git.dirty = false;
  result.build.compiler = "testc 1.0";
  result.build.build_type = "Release";
  result.build.sanitizers = "";
  result.build.debug_checks = false;
  result.hardware.hardware_concurrency = 8;
  result.hardware.page_size_bytes = 4096;
  result.params["threads"] = "2";
  result.params["tau"] = "3";
  Sample sample;
  sample.name = "eff tau=3 alpha=0.5 sp=1 pp=1 groups=8 threads=2";
  sample.wall_seconds = Stats::FromSamples({0.5, 0.25, 0.75});
  sample.cpu_seconds = Stats::FromSamples({1.0, 0.5, 1.5});
  sample.values["results"] = 42.0;
  sample.values["candidate_ratio"] = 0.125;
  result.samples.push_back(sample);
  result.wall_seconds_total = 3.5;
  result.peak_rss_bytes = 104857600;
  result.metrics.counters["simj_join_pairs_total"] = 400;
  result.metrics.gauges["simj_join_candidate_set_peak"] = 50.0;
  return result;
}

TEST(ToJsonTest, MatchesGoldenFile) {
  std::string json = ToJson(MakeGoldenRecord());
  std::string golden_path =
      std::string(SIMJ_TEST_GOLDEN_DIR) + "/bench_result_v1.json";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << "; regenerate it from MakeGoldenRecord()";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(json, buffer.str())
      << "ToJson drifted from the golden file — if the schema changed, "
         "bump kSchemaVersion, regenerate the golden, and update "
         "ci.sh's check_record";
}

TEST(ToJsonTest, IsDeterministic) {
  EXPECT_EQ(ToJson(MakeGoldenRecord()), ToJson(MakeGoldenRecord()));
}

TEST(ToJsonTest, SkippedIsSerializedOnlyWhenTrue) {
  // The default (not skipped) record must not mention the key at all —
  // that keeps existing goldens and baselines byte-stable.
  BenchResult record = MakeGoldenRecord();
  EXPECT_EQ(ToJson(record).find("\"skipped\""), std::string::npos);
  // A skipped sample (a scaling row the host cannot measure) carries
  // "skipped": true, which ci.sh's check_record accepts within schema v1.
  Sample skipped;
  skipped.name = "scaling threads=4";
  skipped.skipped = true;
  record.samples.push_back(skipped);
  EXPECT_NE(ToJson(record).find("\"skipped\": true"), std::string::npos);
}

TEST(ToJsonTest, DeclaresCurrentSchemaVersion) {
  std::string json = ToJson(MakeGoldenRecord());
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos) << json;
}

TEST(WriteJsonFileTest, RoundTripsBytes) {
  BenchResult record = MakeGoldenRecord();
  std::string path = ::testing::TempDir() + "/simj_run_record_test.json";
  std::remove(path.c_str());
  Status status = WriteJsonFile(record, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), ToJson(record));
  std::remove(path.c_str());
}

TEST(WriteJsonFileTest, FailsOnUnwritablePath) {
  Status status =
      WriteJsonFile(MakeGoldenRecord(), "/nonexistent-dir/x/y/z.json");
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace simj::run_record
