#include "infra/machine.h"

#include <gtest/gtest.h>

#include "infra/cluster.h"

namespace ads::infra {
namespace {

SkuSpec TestSku() {
  SkuSpec sku;
  sku.name = "gen4";
  sku.cpu_per_container = 0.1;
  sku.util_knee = 0.5;
  sku.slowdown_per_util = 2.0;
  sku.temp_storage_gb = 100.0;
  return sku;
}

TEST(MachineTest, UtilizationLinearInContainers) {
  Machine m(0, TestSku(), 0);
  EXPECT_DOUBLE_EQ(m.CpuUtilization(), 0.0);
  for (int i = 0; i < 3; ++i) m.StartContainer();
  EXPECT_DOUBLE_EQ(m.CpuUtilization(), 0.3);
  m.FinishContainer();
  EXPECT_DOUBLE_EQ(m.CpuUtilization(), 0.2);
}

TEST(MachineTest, UtilizationClampsAtOne) {
  Machine m(0, TestSku(), 0);
  for (int i = 0; i < 20; ++i) m.StartContainer();
  EXPECT_DOUBLE_EQ(m.CpuUtilization(), 1.0);
}

TEST(MachineTest, SlowdownOnlyAboveKnee) {
  Machine m(0, TestSku(), 0);
  for (int i = 0; i < 4; ++i) m.StartContainer();  // util 0.4 < knee 0.5
  EXPECT_DOUBLE_EQ(m.TaskSlowdown(), 1.0);
  for (int i = 0; i < 4; ++i) m.StartContainer();  // util 0.8
  EXPECT_NEAR(m.TaskSlowdown(), 1.0 + 2.0 * 0.3, 1e-12);
}

TEST(MachineTest, TempStorageReservation) {
  Machine m(0, TestSku(), 0);
  EXPECT_TRUE(m.ReserveTempStorage(60.0));
  EXPECT_FALSE(m.ReserveTempStorage(60.0));  // would exceed 100
  EXPECT_DOUBLE_EQ(m.temp_storage_used_gb(), 60.0);
  EXPECT_DOUBLE_EQ(m.temp_storage_free_gb(), 40.0);
  m.ReleaseTempStorage(60.0);
  EXPECT_DOUBLE_EQ(m.temp_storage_used_gb(), 0.0);
  // Over-release clamps to zero rather than going negative.
  m.ReleaseTempStorage(10.0);
  EXPECT_DOUBLE_EQ(m.temp_storage_used_gb(), 0.0);
}

TEST(ClusterTest, AddMachinesAcrossRacks) {
  Cluster cluster;
  cluster.AddMachines(TestSku(), 6, /*racks=*/3);
  EXPECT_EQ(cluster.size(), 6u);
  EXPECT_EQ(cluster.max_rack(), 2);
  int rack0 = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.machine(i).rack() == 0) ++rack0;
  }
  EXPECT_EQ(rack0, 2);
}

TEST(ClusterTest, MachinesOfSkuFilters) {
  Cluster cluster;
  SkuSpec a = TestSku();
  SkuSpec b = TestSku();
  b.name = "gen5";
  cluster.AddMachines(a, 3);
  cluster.AddMachines(b, 2);
  EXPECT_EQ(cluster.MachinesOfSku("gen4").size(), 3u);
  EXPECT_EQ(cluster.MachinesOfSku("gen5").size(), 2u);
  EXPECT_EQ(cluster.sku_names().size(), 2u);
}

}  // namespace
}  // namespace ads::infra
