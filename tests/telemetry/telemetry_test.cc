#include <gtest/gtest.h>

#include "telemetry/metric.h"
#include "telemetry/store.h"

namespace ads::telemetry {
namespace {

TEST(StoreTest, RecordAndQueryRange) {
  TelemetryStore store;
  LabelSet labels{{"machine", "1"}};
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(store.Record("cpu", labels, t, t * 0.1).ok());
  }
  auto pts = store.Query("cpu", labels, 3.0, 7.0);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0].time, 3.0);
  EXPECT_DOUBLE_EQ(pts.back().time, 6.0);
  EXPECT_EQ(store.QueryAll("cpu", labels).size(), 10u);
}

TEST(StoreTest, DistinctLabelSetsAreDistinctSeries) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("cpu", {{"m", "1"}}, 0.0, 1.0).ok());
  ASSERT_TRUE(store.Record("cpu", {{"m", "2"}}, 0.0, 2.0).ok());
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.Query("cpu", {{"m", "1"}}, 0.0, 1.0)[0].value, 1.0);
}

TEST(StoreTest, RejectsOutOfOrderSamples) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("cpu", {}, 5.0, 1.0).ok());
  EXPECT_FALSE(store.Record("cpu", {}, 4.0, 1.0).ok());
  // Equal timestamps are allowed.
  EXPECT_TRUE(store.Record("cpu", {}, 5.0, 2.0).ok());
}

TEST(StoreTest, SelectMatchesLabelSubset) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("cpu", {{"m", "1"}, {"sku", "a"}}, 0.0, 1.0).ok());
  ASSERT_TRUE(store.Record("cpu", {{"m", "2"}, {"sku", "a"}}, 0.0, 2.0).ok());
  ASSERT_TRUE(store.Record("cpu", {{"m", "3"}, {"sku", "b"}}, 0.0, 3.0).ok());
  ASSERT_TRUE(store.Record("mem", {{"m", "1"}, {"sku", "a"}}, 0.0, 4.0).ok());
  auto series = store.Select("cpu", {{"sku", "a"}});
  EXPECT_EQ(series.size(), 2u);
  auto all = store.Select("cpu", {});
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(store.sample_count(), 4u);
}

}  // namespace
}  // namespace ads::telemetry
