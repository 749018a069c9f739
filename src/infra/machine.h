#ifndef ADS_INFRA_MACHINE_H_
#define ADS_INFRA_MACHINE_H_

#include <string>

#include "common/logging.h"

namespace ads::infra {

/// Hardware/behaviour description of a machine generation ("SKU").
///
/// The last three fields are the ground-truth *machine behaviour model* of
/// the simulator: CPU utilization grows linearly with running containers,
/// and task execution slows down once utilization passes a knee. The KEA
/// reproduction (bench E1/F1) learns exactly these relationships back from
/// telemetry, as in the paper's Figure 1.
struct SkuSpec {
  std::string name;
  int cores = 16;
  double memory_gb = 64.0;
  double temp_storage_gb = 512.0;
  /// Scheduler knob: default maximum concurrently running containers.
  int default_max_containers = 16;
  double cost_per_hour = 1.0;

  /// CPU utilization contributed by one running container (fraction).
  double cpu_per_container = 0.05;
  /// Utilization beyond which tasks start slowing down.
  double util_knee = 0.75;
  /// Task slowdown per unit utilization above the knee, e.g. 2.0 means
  /// a machine at knee+0.25 runs tasks (1 + 2.0*0.25) = 1.5x slower.
  double slowdown_per_util = 2.0;
};

/// Health lifecycle of a machine. Healthy machines accept work; draining
/// machines finish what they run but take no new placements (graceful
/// decommission); dead machines run nothing and their machine-local
/// temporary storage is lost.
enum class MachineState {
  kHealthy = 0,
  kDraining,
  kDead,
};

const char* MachineStateName(MachineState state);

/// One simulated machine. State is mutated by the scheduler/executor; the
/// class only enforces capacity invariants.
class Machine {
 public:
  Machine(int id, SkuSpec spec, int rack)
      : id_(id), spec_(std::move(spec)), rack_(rack) {}

  int id() const { return id_; }
  const SkuSpec& spec() const { return spec_; }
  int rack() const { return rack_; }

  MachineState state() const { return state_; }
  void SetState(MachineState state) { state_ = state; }
  /// Accepts new placements (healthy only — draining machines are winding
  /// down and dead machines run nothing).
  bool AcceptsWork() const { return state_ == MachineState::kHealthy; }
  bool dead() const { return state_ == MachineState::kDead; }

  /// Models the crash: every running container and all machine-local
  /// temporary storage is lost. The caller (scheduler / chaos driver)
  /// decides what to do about the work that was on board.
  void Crash() {
    state_ = MachineState::kDead;
    running_containers_ = 0;
    temp_used_gb_ = 0.0;
  }

  int running_containers() const { return running_containers_; }
  void StartContainer() { ++running_containers_; }
  void FinishContainer() {
    ADS_CHECK(running_containers_ > 0) << "finish with no running containers";
    --running_containers_;
  }

  /// Modeled CPU utilization in [0, 1] given the current container count.
  double CpuUtilization() const {
    double u = spec_.cpu_per_container * running_containers_;
    return u > 1.0 ? 1.0 : u;
  }

  /// Execution-time multiplier (>= 1) under the current load.
  double TaskSlowdown() const {
    double over = CpuUtilization() - spec_.util_knee;
    return over > 0.0 ? 1.0 + spec_.slowdown_per_util * over : 1.0;
  }

  double temp_storage_used_gb() const { return temp_used_gb_; }
  double temp_storage_free_gb() const {
    return spec_.temp_storage_gb - temp_used_gb_;
  }
  /// Reserves temp storage; returns false (no change) if it would overflow.
  bool ReserveTempStorage(double gb) {
    if (temp_used_gb_ + gb > spec_.temp_storage_gb) return false;
    temp_used_gb_ += gb;
    return true;
  }
  void ReleaseTempStorage(double gb) {
    temp_used_gb_ -= gb;
    if (temp_used_gb_ < 0.0) temp_used_gb_ = 0.0;
  }

 private:
  int id_;
  SkuSpec spec_;
  int rack_;
  MachineState state_ = MachineState::kHealthy;
  int running_containers_ = 0;
  double temp_used_gb_ = 0.0;
};

}  // namespace ads::infra

#endif  // ADS_INFRA_MACHINE_H_
