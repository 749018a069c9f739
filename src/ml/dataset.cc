#include "ml/dataset.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace ads::ml {

void Dataset::Add(std::vector<double> features, double label) {
  if (!features_.empty()) {
    ADS_CHECK(features.size() == features_[0].size())
        << "feature arity mismatch: " << features.size() << " vs "
        << features_[0].size();
  }
  features_.push_back(std::move(features));
  labels_.push_back(label);
}

std::pair<Dataset, Dataset> Dataset::Split(double train_fraction,
                                           common::Rng& rng) const {
  std::vector<size_t> idx(size());
  std::iota(idx.begin(), idx.end(), 0);
  rng.Shuffle(idx);
  size_t n_train = static_cast<size_t>(train_fraction *
                                       static_cast<double>(size()));
  Dataset train(feature_names_);
  Dataset test(feature_names_);
  for (size_t i = 0; i < idx.size(); ++i) {
    if (i < n_train) {
      train.Add(features_[idx[i]], labels_[idx[i]]);
    } else {
      test.Add(features_[idx[i]], labels_[idx[i]]);
    }
  }
  return {std::move(train), std::move(test)};
}

Dataset Dataset::Filter(const std::vector<size_t>& indices) const {
  Dataset out(feature_names_);
  for (size_t i : indices) {
    ADS_CHECK(i < size()) << "filter index out of range";
    out.Add(features_[i], labels_[i]);
  }
  return out;
}

common::Status Standardizer::Fit(const Dataset& data) {
  if (data.empty()) {
    return common::Status::InvalidArgument("standardizer fit on empty data");
  }
  size_t d = data.dimensions();
  means_.assign(d, 0.0);
  scales_.assign(d, 1.0);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < d; ++j) means_[j] += data.row(i)[j];
  }
  for (size_t j = 0; j < d; ++j) means_[j] /= static_cast<double>(data.size());
  std::vector<double> var(d, 0.0);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < d; ++j) {
      double delta = data.row(i)[j] - means_[j];
      var[j] += delta * delta;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    double s = std::sqrt(var[j] / static_cast<double>(data.size()));
    scales_[j] = s > 1e-12 ? s : 1.0;
  }
  return common::Status::Ok();
}

std::vector<double> Standardizer::Transform(const std::vector<double>& x) const {
  ADS_CHECK(x.size() == means_.size()) << "standardizer arity mismatch";
  std::vector<double> out(x.size());
  for (size_t j = 0; j < x.size(); ++j) {
    out[j] = (x[j] - means_[j]) / scales_[j];
  }
  return out;
}

}  // namespace ads::ml
