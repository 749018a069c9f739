#ifndef ADS_ML_DATASET_H_
#define ADS_ML_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace ads::ml {

/// A supervised dataset: rows of numeric features plus one label per row.
/// Feature vectors are dense; all rows must share one arity.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names)
      : feature_names_(std::move(feature_names)) {}

  /// Appends one example. The first row fixes the arity; later rows must
  /// match (checked).
  void Add(std::vector<double> features, double label);

  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  size_t dimensions() const { return empty() ? 0 : features_[0].size(); }

  const std::vector<double>& row(size_t i) const { return features_[i]; }
  double label(size_t i) const { return labels_[i]; }
  const std::vector<std::vector<double>>& features() const { return features_; }
  const std::vector<double>& labels() const { return labels_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Splits into train/test with the given train fraction after a
  /// deterministic shuffle driven by `rng`.
  std::pair<Dataset, Dataset> Split(double train_fraction,
                                    common::Rng& rng) const;

  /// Returns the subset of rows whose index satisfies the predicate.
  Dataset Filter(const std::vector<size_t>& indices) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<std::vector<double>> features_;
  std::vector<double> labels_;
};

/// Per-feature affine standardization (zero mean, unit variance), fit on a
/// training set and applied to any vector. Constant features pass through.
class Standardizer {
 public:
  /// Learns means and scales from the dataset. Fails on an empty dataset.
  common::Status Fit(const Dataset& data);

  /// Applies the learned transform to one feature vector.
  std::vector<double> Transform(const std::vector<double>& x) const;

  bool fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& scales() const { return scales_; }

  /// Installs precomputed moments (model deserialization).
  void SetMoments(std::vector<double> means, std::vector<double> scales) {
    means_ = std::move(means);
    scales_ = std::move(scales);
  }

 private:
  std::vector<double> means_;
  std::vector<double> scales_;
};

}  // namespace ads::ml

#endif  // ADS_ML_DATASET_H_
