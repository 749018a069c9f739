#ifndef ADS_INFRA_CLUSTER_H_
#define ADS_INFRA_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "infra/machine.h"

namespace ads::infra {

/// A fleet of machines grouped into racks. Owns the Machine objects;
/// schedulers and executors hold stable pointers into it. Machine objects
/// are never deallocated — a machine leaving service transitions through
/// the explicit MachineState lifecycle (healthy → draining → dead →
/// healthy again on recovery) instead of being removed, so held pointers
/// stay valid across failures.
class Cluster {
 public:
  /// Adds `count` machines of the SKU, round-robining them across
  /// `racks` racks starting at rack `first_rack`.
  void AddMachines(const SkuSpec& sku, int count, int racks = 1,
                   int first_rack = 0);

  size_t size() const { return machines_.size(); }
  Machine& machine(size_t i) { return *machines_[i]; }
  const Machine& machine(size_t i) const { return *machines_[i]; }

  /// Every machine, regardless of health — capacity planning and audits.
  /// Callers placing work should use HealthyMachines() or check
  /// Machine::AcceptsWork() per machine.
  std::vector<Machine*> AllMachines();
  /// Machines currently accepting new work (state == kHealthy).
  std::vector<Machine*> HealthyMachines();
  /// Machines of one SKU, regardless of health.
  std::vector<Machine*> MachinesOfSku(const std::string& sku_name);
  /// Healthy machines of one SKU.
  std::vector<Machine*> HealthyMachinesOfSku(const std::string& sku_name);
  /// Distinct SKU names present, in insertion order.
  const std::vector<std::string>& sku_names() const { return sku_names_; }

  /// Machines currently accepting work.
  size_t healthy_count() const;
  /// Machines currently dead.
  size_t dead_count() const;

  /// Highest rack id present (racks are 0-based).
  int max_rack() const { return max_rack_; }

 private:
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::string> sku_names_;
  int next_id_ = 0;
  int max_rack_ = 0;
};

}  // namespace ads::infra

#endif  // ADS_INFRA_CLUSTER_H_
