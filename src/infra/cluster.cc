#include "infra/cluster.h"

#include <algorithm>

namespace ads::infra {

const char* MachineStateName(MachineState state) {
  switch (state) {
    case MachineState::kHealthy:
      return "healthy";
    case MachineState::kDraining:
      return "draining";
    case MachineState::kDead:
      return "dead";
  }
  return "?";
}

void Cluster::AddMachines(const SkuSpec& sku, int count, int racks,
                          int first_rack) {
  ADS_CHECK(count >= 0) << "negative machine count";
  ADS_CHECK(racks >= 1) << "need at least one rack";
  if (std::find(sku_names_.begin(), sku_names_.end(), sku.name) ==
      sku_names_.end()) {
    sku_names_.push_back(sku.name);
  }
  for (int i = 0; i < count; ++i) {
    int rack = first_rack + (i % racks);
    machines_.push_back(std::make_unique<Machine>(next_id_++, sku, rack));
    max_rack_ = std::max(max_rack_, rack);
  }
}

std::vector<Machine*> Cluster::AllMachines() {
  std::vector<Machine*> out;
  out.reserve(machines_.size());
  for (auto& m : machines_) out.push_back(m.get());
  return out;
}

std::vector<Machine*> Cluster::HealthyMachines() {
  std::vector<Machine*> out;
  for (auto& m : machines_) {
    if (m->AcceptsWork()) out.push_back(m.get());
  }
  return out;
}

std::vector<Machine*> Cluster::MachinesOfSku(const std::string& sku_name) {
  std::vector<Machine*> out;
  for (auto& m : machines_) {
    if (m->spec().name == sku_name) out.push_back(m.get());
  }
  return out;
}

std::vector<Machine*> Cluster::HealthyMachinesOfSku(
    const std::string& sku_name) {
  std::vector<Machine*> out;
  for (auto& m : machines_) {
    if (m->spec().name == sku_name && m->AcceptsWork()) out.push_back(m.get());
  }
  return out;
}

size_t Cluster::healthy_count() const {
  size_t n = 0;
  for (const auto& m : machines_) n += m->AcceptsWork() ? 1 : 0;
  return n;
}

size_t Cluster::dead_count() const {
  size_t n = 0;
  for (const auto& m : machines_) n += m->dead() ? 1 : 0;
  return n;
}

}  // namespace ads::infra
