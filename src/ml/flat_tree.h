#ifndef ADS_ML_FLAT_TREE_H_
#define ADS_ML_FLAT_TREE_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/aligned.h"
#include "common/matrix.h"

namespace ads::ml {

class RegressionTree;

/// Cache-friendly flattening of one or more regression trees into a
/// contiguous arena of packed 24-byte nodes. Everything a visit needs —
/// split scalar, feature, both child indices — sits in one cache line,
/// where a parallel-array layout touches three or four lines for cold
/// nodes and the source RegressionTree::Node weighs 40 bytes. Ensemble
/// inference is memory-bound once query batches stop fitting in L1, so
/// bytes-per-visit is the throughput lever that matters.
///
/// `scalar` is overloaded per node kind: split threshold for internal
/// nodes (feature >= 0), leaf prediction for leaves (feature < 0). Leaves
/// store `right == self`, so a row parked on a leaf self-loops while the
/// level-synchronous kernel finishes the tree's remaining levels.
///
/// Aggregation across trees is chosen at build time and reproduces the
/// scalar predict arithmetic operation-for-operation, so flattened
/// predictions are bit-identical to RegressionTree / forest / GBT
/// Predict():
///   kSingle     — one tree, the leaf value verbatim.
///   kMean       — sum of tree outputs in tree order, divided at the end
///                 (RandomForestRegressor::Predict).
///   kBoostedSum — base + learning_rate * output per tree in tree order
///                 (GradientBoostedTrees::Predict).
class FlatTreeEnsemble {
 public:
  enum class Aggregation { kSingle, kMean, kBoostedSum };

  /// One flattened tree node, 24 bytes packed. Child indices are absolute
  /// positions in the shared arena; leaves self-loop (left == right ==
  /// self) so the level-synchronous kernel can run a fixed pass count.
  struct Node {
    double scalar;    // threshold (split) or value (leaf)
    int32_t feature;  // split feature, or -1 for leaf
    int32_t left;
    int32_t right;
  };
  static_assert(sizeof(Node) <= 24, "flat node outgrew its packing");

  FlatTreeEnsemble() = default;

  static FlatTreeEnsemble FromTree(const RegressionTree& tree);
  static FlatTreeEnsemble FromForest(const std::vector<RegressionTree>& trees);
  static FlatTreeEnsemble FromBoosted(const std::vector<RegressionTree>& trees,
                                      double base_prediction,
                                      double learning_rate);

  bool empty() const { return roots_.empty(); }
  size_t tree_count() const { return roots_.size(); }
  size_t node_count() const { return nodes_.size(); }
  /// Minimum feature arity a row must have (max split feature + 1).
  size_t min_arity() const { return min_arity_; }

  /// Start of the packed node arena — 64-byte aligned (AlignedBuffer), so
  /// the level-0 nodes of every tree start on a fresh cache line and no
  /// load splits lines that a mid-line base would force. Exposed for the
  /// alignment unit test.
  const Node* arena_data() const { return nodes_.data(); }
  size_t arena_bytes() const { return nodes_.size() * sizeof(Node); }

  /// Row-block width the level-synchronous kernel tiles with, picked from
  /// a compile-time table keyed on arena_bytes(): an arena that fits L2
  /// alongside the per-row block state keeps the PR 5 block; bigger arenas
  /// get wider blocks so each streaming pass over the nodes is amortised
  /// over more rows. Exposed so tests can pin the table's behaviour.
  size_t block_rows() const;

  /// Writes predictions for rows [begin, end) of `rows` into
  /// out[begin..end). Rows are processed in fixed-size blocks with a
  /// level-synchronous walk per tree: every row in the block advances one
  /// tree level per pass through a branchless select, so the node loads of
  /// independent rows overlap instead of serialising behind one row's
  /// traversal, and the variable-depth exit branch (one mispredict per
  /// row per tree in the naive loop) disappears. Large blocks also
  /// amortise streaming each tree's nodes over many rows. Rows that reach
  /// a leaf early self-loop until the tree's deepest level. Requires
  /// rows.cols() >= min_arity(). Thread-safe: const and touches no shared
  /// scratch, so disjoint ranges may run on pool workers concurrently.
  void PredictRows(const common::Matrix& rows, size_t begin, size_t end,
                   double* out) const;

 private:
  void Append(const RegressionTree& tree);
  double AggregateInit() const;
  double Finish(double acc) const;

  Aggregation mode_ = Aggregation::kMean;
  double base_ = 0.0;
  double rate_ = 1.0;
  size_t min_arity_ = 0;
  common::AlignedBuffer<Node> nodes_;  // all trees, arena order, tree by tree
  std::vector<int32_t> roots_;   // root node index per tree
  std::vector<int32_t> depths_;  // max root->leaf edge count per tree
};

}  // namespace ads::ml

#endif  // ADS_ML_FLAT_TREE_H_
