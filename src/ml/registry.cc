#include "ml/registry.h"

namespace ads::ml {

ModelRegistry::ModelRegistry(const ModelRegistry& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  entries_ = other.entries_;
}

ModelRegistry& ModelRegistry::operator=(const ModelRegistry& other) {
  if (this == &other) return *this;
  std::map<std::string, Entry> snapshot;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    snapshot = other.entries_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(snapshot);
  return *this;
}

uint32_t ModelRegistry::Register(const std::string& name, std::string blob,
                                 std::map<std::string, double> metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  Version v;
  v.version = static_cast<uint32_t>(e.versions.size()) + 1;
  v.blob = std::move(blob);
  v.metrics = std::move(metrics);
  e.versions.push_back(std::move(v));
  return e.versions.back().version;
}

common::Status ModelRegistry::Deploy(const std::string& name,
                                     uint32_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return common::Status::NotFound("unknown model: " + name);
  }
  Entry& e = it->second;
  if (version == 0 || version > e.versions.size()) {
    return common::Status::NotFound("unknown version of " + name);
  }
  if (e.deployed != 0) e.deploy_history.push_back(e.deployed);
  e.deployed = version;
  return common::Status::Ok();
}

common::Status ModelRegistry::Rollback(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return common::Status::NotFound("unknown model: " + name);
  }
  Entry& e = it->second;
  if (e.deploy_history.empty()) {
    return common::Status::FailedPrecondition(
        "no previous deployment to roll back to for " + name);
  }
  e.deployed = e.deploy_history.back();
  e.deploy_history.pop_back();
  // A rollback cancels any flight of the now-withdrawn model.
  e.flight_active = false;
  return common::Status::Ok();
}

uint32_t ModelRegistry::DeployedVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.deployed;
}

uint32_t ModelRegistry::PreviousVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.deploy_history.empty()) return 0;
  return it->second.deploy_history.back();
}

common::Result<std::string> ModelRegistry::DeployedBlobLocked(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.deployed == 0) {
    return common::Status::NotFound("no deployed model for " + name);
  }
  return it->second.versions[it->second.deployed - 1].blob;
}

common::Result<std::unique_ptr<Regressor>> ModelRegistry::DeployedModel(
    const std::string& name) const {
  std::string blob;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto stored = DeployedBlobLocked(name);
    if (!stored.ok()) return stored.status();
    blob = std::move(*stored);
  }
  // Deserialization happens outside the lock: it touches only the copied
  // blob, so slow model materialization never stalls serving readers.
  return DeserializeRegressor(blob);
}

common::Status ModelRegistry::StartFlight(const std::string& name,
                                          uint32_t treatment) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return common::Status::NotFound("unknown model: " + name);
  }
  Entry& e = it->second;
  if (e.deployed == 0) {
    return common::Status::FailedPrecondition(
        "cannot flight without a deployed control model");
  }
  if (treatment == 0 || treatment > e.versions.size()) {
    return common::Status::NotFound("unknown treatment version");
  }
  e.flight_active = true;
  e.flight_treatment = treatment;
  return common::Status::Ok();
}

common::Status ModelRegistry::EndFlight(const std::string& name,
                                        bool promote) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.flight_active) {
    return common::Status::FailedPrecondition("no active flight for " + name);
  }
  Entry& e = it->second;
  e.flight_active = false;
  if (promote) {
    if (e.deployed != 0) e.deploy_history.push_back(e.deployed);
    e.deployed = e.flight_treatment;
  }
  return common::Status::Ok();
}

bool ModelRegistry::FlightActive(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.flight_active;
}

std::vector<uint32_t> ModelRegistry::Versions(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> out;
  auto it = entries_.find(name);
  if (it == entries_.end()) return out;
  for (const Version& v : it->second.versions) out.push_back(v.version);
  return out;
}

common::Result<ModelRegistry::Version> ModelRegistry::GetVersion(
    const std::string& name, uint32_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || version == 0 ||
      version > it->second.versions.size()) {
    return common::Status::NotFound("unknown model version");
  }
  return it->second.versions[version - 1];
}

}  // namespace ads::ml
