#ifndef ADS_ML_REGISTRY_H_
#define ADS_ML_REGISTRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/model.h"

namespace ads::ml {

/// Versioned model registry with deploy/rollback and flighting, the MLOps
/// surface the paper's Insight 3 calls indispensable: every ML solution
/// needs tracking/versioning for continuous integration, a monitoring hook,
/// and a rollback mechanism that reacts fast.
///
/// Models are stored in their portable serialized form (the "generic
/// container"), so the registry is independent of model family.
///
/// Thread-safe: every method takes an internal mutex, so serving readers
/// (DeployedVersion / GetVersion / DeployedModel from concurrent
/// PredictBatch paths) may race promote / rollback / flight transitions
/// from a controller thread. Version swaps are atomic — Register installs
/// the full blob before the version number is ever visible, and Deploy /
/// Rollback / EndFlight flip the deployed pointer in one critical section
/// — so a reader observes either the old or the new version in its
/// entirety, never a half-registered model.
class ModelRegistry {
 public:
  /// One stored model version.
  struct Version {
    uint32_t version = 0;
    std::string blob;
    /// Free-form training metadata (e.g. validation error) for audits.
    std::map<std::string, double> metrics;
  };

  ModelRegistry() = default;
  /// Copying snapshots the registry contents under the source's lock
  /// (the copy gets its own, unlocked mutex) — handy for tests that fork
  /// a baseline registry state.
  ModelRegistry(const ModelRegistry& other);
  ModelRegistry& operator=(const ModelRegistry& other);

  /// Registers a new version of `name`; returns the assigned version
  /// number (starting at 1). Does not change the deployed version.
  uint32_t Register(const std::string& name, std::string blob,
                    std::map<std::string, double> metrics = {});

  /// Marks a version as deployed. Fails if it does not exist.
  common::Status Deploy(const std::string& name, uint32_t version);

  /// Reverts to the previously deployed version. Fails if there is no
  /// deployment history to revert to.
  common::Status Rollback(const std::string& name);

  /// The deployed version number (0 if none deployed).
  uint32_t DeployedVersion(const std::string& name) const;
  /// The version deployed immediately before the current one (0 if the
  /// deploy history is empty) — the fallback target of Rollback().
  uint32_t PreviousVersion(const std::string& name) const;
  /// Materializes the deployed model.
  common::Result<std::unique_ptr<Regressor>> DeployedModel(
      const std::string& name) const;

  /// Starts a flight (A/B test) of `treatment` against the deployed
  /// version. Which requests the treatment serves is the caller's routing
  /// decision (autonomy::VersionRouter's tenant slice); the registry only
  /// records the flight so EndFlight can promote or drop it.
  common::Status StartFlight(const std::string& name, uint32_t treatment);
  /// Ends the flight; if promote, the treatment becomes deployed.
  common::Status EndFlight(const std::string& name, bool promote);
  bool FlightActive(const std::string& name) const;

  /// All stored versions of a model (empty if unknown).
  std::vector<uint32_t> Versions(const std::string& name) const;
  common::Result<Version> GetVersion(const std::string& name,
                                     uint32_t version) const;

 private:
  struct Entry {
    std::vector<Version> versions;
    uint32_t deployed = 0;
    std::vector<uint32_t> deploy_history;
    // Flight state.
    bool flight_active = false;
    uint32_t flight_treatment = 0;
  };

  /// Locked lookup helper (requires mu_ held).
  common::Result<std::string> DeployedBlobLocked(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ads::ml

#endif  // ADS_ML_REGISTRY_H_
