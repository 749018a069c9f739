#include "infra/chaos.h"

#include <gtest/gtest.h>

namespace ads::infra {
namespace {

SkuSpec SmallSku(const std::string& name = "gen4") {
  SkuSpec sku;
  sku.name = name;
  sku.default_max_containers = 4;
  sku.cpu_per_container = 0.2;
  sku.util_knee = 0.6;
  sku.slowdown_per_util = 3.0;
  sku.temp_storage_gb = 10.0;
  return sku;
}

TEST(MachineStateTest, LifecycleAndAccounting) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 3);
  EXPECT_EQ(cluster.healthy_count(), 3u);
  EXPECT_EQ(cluster.HealthyMachines().size(), 3u);
  cluster.machine(0).SetState(MachineState::kDraining);
  cluster.machine(1).Crash();
  EXPECT_EQ(cluster.healthy_count(), 1u);
  EXPECT_EQ(cluster.dead_count(), 1u);
  // AllMachines keeps the full-fleet view; pointers stay stable.
  EXPECT_EQ(cluster.AllMachines().size(), 3u);
  EXPECT_EQ(cluster.HealthyMachinesOfSku("gen4").size(), 1u);
  EXPECT_EQ(cluster.MachinesOfSku("gen4").size(), 3u);
  EXPECT_STREQ(MachineStateName(cluster.machine(0).state()), "draining");
  EXPECT_STREQ(MachineStateName(cluster.machine(1).state()), "dead");
  EXPECT_STREQ(MachineStateName(cluster.machine(2).state()), "healthy");
}

TEST(MachineStateTest, CrashWipesLoad) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 1);
  Machine& m = cluster.machine(0);
  m.StartContainer();
  ASSERT_TRUE(m.ReserveTempStorage(5.0));
  m.Crash();
  EXPECT_EQ(m.running_containers(), 0);
  EXPECT_DOUBLE_EQ(m.temp_storage_used_gb(), 0.0);
  EXPECT_DOUBLE_EQ(m.CpuUtilization(), 0.0);
}

TEST(SchedulerChaosTest, SkipsUnhealthyMachines) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 2);
  common::EventQueue queue;
  ClusterScheduler sched(&cluster, &queue, nullptr, 1);
  cluster.machine(0).Crash();
  cluster.machine(1).SetState(MachineState::kDraining);
  sched.Submit({.id = 1, .base_duration = 10.0});
  EXPECT_EQ(sched.queued_tasks(), 1u);  // nobody accepts work
  sched.OnMachineRecovered(&cluster.machine(0));
  EXPECT_EQ(sched.queued_tasks(), 0u);
  queue.RunAll();
  EXPECT_EQ(sched.completed_tasks(), 1u);
}

TEST(SchedulerChaosTest, FailureReplacesInFlightTasks) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 2);
  common::EventQueue queue;
  ClusterScheduler sched(&cluster, &queue, nullptr, 1);
  for (uint64_t i = 0; i < 4; ++i) {
    sched.Submit({.id = i, .base_duration = 10.0, .temp_storage_gb = 1.0});
  }
  EXPECT_EQ(sched.running_tasks(), 4u);
  // Kill machine 0 mid-flight: its two tasks restart on machine 1.
  sched.OnMachineFailed(&cluster.machine(0));
  EXPECT_EQ(sched.restarted_tasks(), 2u);
  EXPECT_EQ(cluster.machine(0).running_containers(), 0);
  EXPECT_EQ(cluster.machine(1).running_containers(), 4);
  queue.RunAll();
  EXPECT_EQ(sched.completed_tasks(), 4u);
  EXPECT_EQ(sched.queued_tasks(), 0u);
  // No storage leaked by the ghost completion events.
  EXPECT_DOUBLE_EQ(cluster.machine(1).temp_storage_used_gb(), 0.0);
}

TEST(SchedulerChaosTest, RestartLatencyVisibleInSketch) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 1);
  common::EventQueue queue;
  ClusterScheduler sched(&cluster, &queue, nullptr, 1);
  sched.Submit({.id = 1, .base_duration = 10.0});
  // Fail at t=5: the task restarts and runs ~10 more seconds.
  queue.ScheduleAt(5.0, [&](common::SimTime) {
    sched.OnMachineFailed(&cluster.machine(0));
    sched.OnMachineRecovered(&cluster.machine(0));
  });
  queue.RunAll();
  EXPECT_EQ(sched.completed_tasks(), 1u);
  EXPECT_EQ(sched.restarted_tasks(), 1u);
  EXPECT_GT(sched.task_latency().Quantile(0.5), 14.0);
}

TEST(MachineChaosTest, DisabledChaosScheduesNothing) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 4);
  common::EventQueue queue;
  MachineChaos chaos(&cluster, &queue, nullptr, 7);
  chaos.Start({.mtbf_seconds = 0.0});
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(chaos.failures_injected(), 0);
}

TEST(MachineChaosTest, AllTasksCompleteDespiteFailures) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 4);
  common::EventQueue queue;
  ClusterScheduler sched(&cluster, &queue, nullptr, 1);
  MachineChaos chaos(&cluster, &queue, &sched, 7);
  chaos.Start({.mtbf_seconds = 300.0,
               .mttr_seconds = 60.0,
               .horizon_seconds = 2000.0});
  for (uint64_t i = 0; i < 200; ++i) {
    queue.ScheduleAt(static_cast<double>(i) * 5.0, [&sched, i](common::SimTime) {
      sched.Submit({.id = i, .base_duration = 20.0, .temp_storage_gb = 0.5});
    });
  }
  queue.RunAll();
  EXPECT_GT(chaos.failures_injected(), 0);
  EXPECT_EQ(chaos.recoveries(), chaos.failures_injected());
  EXPECT_EQ(sched.completed_tasks(), 200u);
  EXPECT_EQ(sched.queued_tasks(), 0u);
  EXPECT_GT(sched.restarted_tasks(), 0u);
  // Everything recovered: no storage held, machines all back up.
  EXPECT_EQ(cluster.healthy_count(), 4u);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_DOUBLE_EQ(cluster.machine(i).temp_storage_used_gb(), 0.0);
    EXPECT_EQ(cluster.machine(i).running_containers(), 0);
  }
}

TEST(MachineChaosTest, DrainLifecycleStopsNewPlacements) {
  Cluster cluster;
  cluster.AddMachines(SmallSku(), 2);
  common::EventQueue queue;
  ClusterScheduler sched(&cluster, &queue, nullptr, 1);
  MachineChaos chaos(&cluster, &queue, &sched, 11);
  chaos.Start({.mtbf_seconds = 200.0,
               .mttr_seconds = 30.0,
               .drain_fraction = 1.0,  // every event is a graceful drain
               .drain_lead_seconds = 50.0,
               .horizon_seconds = 1000.0});
  for (uint64_t i = 0; i < 50; ++i) {
    queue.ScheduleAt(static_cast<double>(i) * 10.0,
                     [&sched, i](common::SimTime) {
                       sched.Submit({.id = i, .base_duration = 15.0});
                     });
  }
  queue.RunAll();
  EXPECT_GT(chaos.drains_injected(), 0);
  EXPECT_EQ(sched.completed_tasks(), 50u);
  EXPECT_EQ(cluster.healthy_count(), 2u);
  // Drains give running work a head start: most tasks (15 s) finish inside
  // the 50 s drain lead, so far fewer restarts than failures.
  EXPECT_LE(sched.restarted_tasks(), static_cast<uint64_t>(
                                         chaos.failures_injected()) * 4u);
}

TEST(MachineChaosTest, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    Cluster cluster;
    cluster.AddMachines(SmallSku(), 3);
    common::EventQueue queue;
    ClusterScheduler sched(&cluster, &queue, nullptr, 1);
    MachineChaos chaos(&cluster, &queue, &sched, seed);
    chaos.Start({.mtbf_seconds = 150.0,
                 .mttr_seconds = 40.0,
                 .horizon_seconds = 1500.0});
    for (uint64_t i = 0; i < 100; ++i) {
      queue.ScheduleAt(static_cast<double>(i) * 8.0,
                       [&sched, i](common::SimTime) {
                         sched.Submit({.id = i, .base_duration = 25.0});
                       });
    }
    queue.RunAll();
    return std::tuple<uint64_t, uint64_t, int, double>(
        sched.completed_tasks(), sched.restarted_tasks(),
        chaos.failures_injected(), sched.task_latency().Quantile(0.9));
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace ads::infra
