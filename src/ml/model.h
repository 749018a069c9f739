#ifndef ADS_ML_MODEL_H_
#define ADS_ML_MODEL_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "ml/dataset.h"

namespace ads::common {
class ThreadPool;
}  // namespace ads::common

namespace ads::ml {

/// A trainable regression model. This is the "generic container" interface
/// from the paper's standardization direction: every model — regardless of
/// family — trains from a Dataset, predicts from a feature vector, and
/// serializes to a portable text form so it can move between the training
/// and serving sides of the feedback loop.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on the dataset. Returns an error (and leaves the model unfitted)
  /// if the data is unusable (empty, wrong arity, ...).
  virtual common::Status Fit(const Dataset& data) = 0;

  /// Predicts the label for one feature vector. Requires a fitted model.
  virtual double Predict(const std::vector<double>& features) const = 0;

  /// Model family name, e.g. "linear", "tree", "forest".
  virtual std::string TypeName() const = 0;

  /// Portable text serialization (the ONNX stand-in).
  virtual std::string Serialize() const = 0;

  /// Rough cost accounting used by the simplicity ablation: the number of
  /// scalar operations one Predict performs.
  virtual double InferenceCost() const = 0;

  /// Batched predict: fills (*out)[i] with the prediction for row i of
  /// `rows`, bit-identical to calling Predict per row but through the
  /// family's cache-friendly kernel (flattened tree arrays, reused MLP
  /// scratch, pointer-walked linear dot). The serving batch path and the
  /// perf harness go through here; per-row results never depend on batch
  /// size or range splits.
  void PredictBatch(const common::Matrix& rows, std::vector<double>* out) const;

  /// Range hook behind PredictBatch: writes predictions for rows
  /// [begin, end) into out[begin..end). Overrides must be bit-identical to
  /// the row-at-a-time default and safe to call concurrently on disjoint
  /// ranges (PredictBatchParallel fans chunks out over a thread pool).
  virtual void PredictBatchRange(const common::Matrix& rows, size_t begin,
                                 size_t end, double* out) const;
};

/// PredictBatch chunked over `pool`: rows are split into `grain`-sized
/// ranges executed as pool tasks. Chunk boundaries depend only on (rows,
/// grain) and each row is written exactly once, so the result is
/// bit-identical to model.PredictBatch for any worker count (including
/// ThreadPool::Serial()). The win is ~linear for tree ensembles and MLPs
/// once batches reach a few hundred rows; tiny batches stay serial.
void PredictBatchParallel(const Regressor& model, const common::Matrix& rows,
                          common::ThreadPool& pool, std::vector<double>* out,
                          size_t grain = 256);

/// Reconstructs a regressor from the output of Regressor::Serialize().
/// Supports the families that the model registry ships across systems:
/// linear, tree, forest, gbt.
common::Result<std::unique_ptr<Regressor>> DeserializeRegressor(
    const std::string& blob);

}  // namespace ads::ml

#endif  // ADS_ML_MODEL_H_
