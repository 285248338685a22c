// The bench_kernels --check gate (bench/bench_util.hpp's
// compare_bench_records): modeled-time regressions AND missing tracked
// records must both fail the check — a bench that silently stops producing
// a record tracked in BENCH_kernels.json is a coverage regression, not a
// pass.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_util.hpp"

namespace phonebit {
namespace {

using bench::BenchRecord;
using bench::compare_bench_records;

std::vector<BenchRecord> baseline() {
  return {
      {"bconv", "3x3/s1/fast", 1.0, 5.0},
      {"bconv", "7x7/s2/fast", 2.0, 8.0},
      {"pack_signs", "32x32/c64", 0.5, 0.0},  // host-only: never time-gated
  };
}

TEST(BenchCompare, PassesWhenAllRecordsMatchWithinTolerance) {
  auto fresh = baseline();
  fresh[0].modeled_ms = 5.05;  // +1% < 2% tolerance
  const auto sum = compare_bench_records(fresh, baseline(), 2.0, nullptr);
  EXPECT_TRUE(sum.ok());
  EXPECT_EQ(sum.checked, 2);  // the host-only record is matched, not gated
  EXPECT_EQ(sum.regressions, 0);
  EXPECT_EQ(sum.missing, 0);
}

TEST(BenchCompare, FailsOnModeledTimeRegression) {
  auto fresh = baseline();
  fresh[1].modeled_ms = 9.0;  // +12.5% > 2%
  const auto sum = compare_bench_records(fresh, baseline(), 2.0, nullptr);
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.regressions, 1);
  EXPECT_EQ(sum.missing, 0);
}

TEST(BenchCompare, FailsWhenTrackedRecordGoesMissing) {
  // A tracked record absent from the fresh run must fail exactly like a
  // regression — even when every record that IS produced looks fine.
  auto fresh = baseline();
  fresh.erase(fresh.begin());  // "bconv 3x3/s1/fast" no longer produced
  const auto sum = compare_bench_records(fresh, baseline(), 2.0, nullptr);
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.missing, 1);
  EXPECT_EQ(sum.regressions, 0);
  EXPECT_EQ(sum.checked, 1);
}

TEST(BenchCompare, MissingHostOnlyRecordStillFails) {
  // Host-only records (modeled <= 0) are exempt from time gating but NOT
  // from the presence gate.
  auto fresh = baseline();
  fresh.pop_back();  // drop "pack_signs"
  const auto sum = compare_bench_records(fresh, baseline(), 2.0, nullptr);
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.missing, 1);
}

/// Records round trip through the JSON writer and reader; a record missing
/// half of the mandatory timing pair is a parse error, not a silently
/// zeroed field.
TEST(BenchCompare, JsonRoundTripsAndRejectsTruncatedRecords) {
  const std::string path =
      std::string(::testing::TempDir()) + "phonebit_bench_json.json";
  const std::vector<BenchRecord> out = baseline();
  ASSERT_TRUE(bench::write_bench_json(path, "kernels", out));
  std::vector<BenchRecord> in;
  ASSERT_TRUE(bench::read_bench_json(path, in));
  ASSERT_EQ(in.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(in[i].op, out[i].op) << i;
    EXPECT_EQ(in[i].geometry, out[i].geometry) << i;
    EXPECT_DOUBLE_EQ(in[i].host_ms, out[i].host_ms) << i;
    EXPECT_DOUBLE_EQ(in[i].modeled_ms, out[i].modeled_ms) << i;
  }

  {
    std::ofstream f(path);
    f << "{\n  \"bench\": \"kernels\",\n  \"records\": [\n"
      << "    {\"op\": \"bconv\", \"geometry\": \"g\", \"host_ms\": 1.0}\n"
         "  ]\n}\n";
  }
  in.clear();
  EXPECT_FALSE(bench::read_bench_json(path, in));
  std::remove(path.c_str());
}

TEST(BenchCompare, ImprovementsAndNewRecordsAreFine) {
  auto fresh = baseline();
  fresh[0].modeled_ms = 3.0;                       // faster: ok
  fresh.push_back({"new_op", "geo", 1.0, 1.0});    // untracked extra: ok
  const auto sum = compare_bench_records(fresh, baseline(), 2.0, nullptr);
  EXPECT_TRUE(sum.ok());
}

}  // namespace
}  // namespace phonebit
