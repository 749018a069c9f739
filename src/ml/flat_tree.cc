#include "ml/flat_tree.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "ml/tree.h"

namespace ads::ml {

void FlatTreeEnsemble::Append(const RegressionTree& tree) {
  ADS_CHECK(tree.fitted()) << "flattening an unfitted tree";
  const std::vector<RegressionTree::Node>& src = tree.nodes();
  nodes_.reserve(nodes_.size() + src.size());
  const int32_t offset = static_cast<int32_t>(nodes_.size());
  roots_.push_back(offset);
  for (size_t i = 0; i < src.size(); ++i) {
    const RegressionTree::Node& n = src[i];
    const int32_t self = offset + static_cast<int32_t>(i);
    // Leaves self-loop so the level-synchronous kernel can run a fixed
    // number of passes: a row parked on a leaf keeps reselecting it.
    nodes_.push_back({n.feature >= 0 ? n.threshold : n.value, n.feature,
                      n.left >= 0 ? n.left + offset : self,
                      n.right >= 0 ? n.right + offset : self});
    if (n.feature >= 0) {
      min_arity_ = std::max(min_arity_, static_cast<size_t>(n.feature) + 1);
    }
  }
  // Deepest root->leaf edge count: the pass count that guarantees every
  // row has parked on a leaf.
  int32_t max_depth = 0;
  std::vector<std::pair<int32_t, int32_t>> walk = {{0, 0}};
  while (!walk.empty()) {
    const auto [id, d] = walk.back();
    walk.pop_back();
    const RegressionTree::Node& n = src[static_cast<size_t>(id)];
    if (n.feature >= 0) {
      walk.emplace_back(n.left, d + 1);
      walk.emplace_back(n.right, d + 1);
    } else {
      max_depth = std::max(max_depth, d);
    }
  }
  depths_.push_back(max_depth);
}

FlatTreeEnsemble FlatTreeEnsemble::FromTree(const RegressionTree& tree) {
  FlatTreeEnsemble flat;
  flat.mode_ = Aggregation::kSingle;
  flat.Append(tree);
  return flat;
}

FlatTreeEnsemble FlatTreeEnsemble::FromForest(
    const std::vector<RegressionTree>& trees) {
  FlatTreeEnsemble flat;
  flat.mode_ = Aggregation::kMean;
  for (const RegressionTree& tree : trees) flat.Append(tree);
  return flat;
}

FlatTreeEnsemble FlatTreeEnsemble::FromBoosted(
    const std::vector<RegressionTree>& trees, double base_prediction,
    double learning_rate) {
  FlatTreeEnsemble flat;
  flat.mode_ = Aggregation::kBoostedSum;
  flat.base_ = base_prediction;
  flat.rate_ = learning_rate;
  for (const RegressionTree& tree : trees) flat.Append(tree);
  return flat;
}

namespace {

/// Leaf value of one flattened tree for one row: the tight traversal loop
/// the single-row predict paths funnel through.
inline double TraverseTree(const FlatTreeEnsemble::Node* nodes, int32_t root,
                           const double* row) {
  int32_t cur = root;
  for (;;) {
    const FlatTreeEnsemble::Node n = nodes[cur];
    if (n.feature < 0) return n.scalar;
    cur = row[n.feature] <= n.scalar ? n.left : n.right;
  }
}

}  // namespace

double FlatTreeEnsemble::AggregateInit() const {
  return mode_ == Aggregation::kBoostedSum ? base_ : 0.0;
}

double FlatTreeEnsemble::Finish(double acc) const {
  return mode_ == Aggregation::kMean
             ? acc / static_cast<double>(roots_.size())
             : acc;
}

namespace {

/// Row-block widths for the level-synchronous kernel, keyed on *per-tree*
/// arena bytes — trees are walked one at a time, so the working set each
/// level pass streams is (one tree's slice + the block's row panel), not
/// the whole ensemble arena. A forest of forty L1-resident trees wants the
/// PR 5 block: 256 rows x 64 B/row of features stays in L1 alongside the
/// tree across all its levels (keying on total arena bytes here cost the
/// forest 40% — the wide block evicted the row panel once per level). A
/// lone deep tree whose slice outgrows L1 wants the opposite: widen the
/// block so each streaming pass over the nodes (the dominant cost once
/// they stop fitting) is shared by more rows — the tree.b1024 regression
/// was this kernel re-streaming a cache-cold arena once per 256 rows.
struct BlockChoice {
  size_t max_tree_bytes;
  size_t rows;
};
constexpr BlockChoice kBlockTable[] = {
    {32u << 10, 256},
    {256u << 10, 512},
    {~size_t{0}, 1024},
};
constexpr size_t kMaxBlockRows = 1024;

/// Prefetch only pays for itself when the tree being walked misses cache:
/// for an L1-resident slice it is one wasted uop per node visit in the
/// hottest loop of the kernel.
constexpr size_t kPrefetchMinTreeBytes = 32u << 10;

/// Single trees below this stay on the early-exit walk: the whole arena
/// fits a handful of L1 sets, so fixed-depth passes and block state would
/// only add instructions. Deeper single trees (the BENCH_p5 depth-10
/// tree packs ~70 KiB) go through the blocked kernel like ensembles.
constexpr size_t kSingleTreeEarlyExitBytes = 4u << 10;

/// Below this many rows a lone deep tree also keeps the early-exit walk:
/// the blocked kernel's fixed-depth passes only pay off once enough rows
/// share each streaming pass over the arena. At small batch sizes the
/// arena is re-read per block anyway, so the extra pass instructions are
/// pure overhead (BENCH_p5 showed 0.6x at b64/b256 before this gate).
constexpr size_t kSingleTreeBlockedMinRows = 512;

}  // namespace

size_t FlatTreeEnsemble::block_rows() const {
  const size_t per_tree =
      arena_bytes() / (roots_.empty() ? size_t{1} : roots_.size());
  for (const BlockChoice& choice : kBlockTable) {
    if (per_tree <= choice.max_tree_bytes) return choice.rows;
  }
  return kMaxBlockRows;
}

void FlatTreeEnsemble::PredictRows(const common::Matrix& rows, size_t begin,
                                   size_t end, double* out) const {
  ADS_CHECK(!empty()) << "predict on an empty flat ensemble";
  ADS_CHECK(end <= rows.rows()) << "flat predict range out of bounds";
  ADS_CHECK(rows.cols() >= min_arity_) << "flat predict arity mismatch";
  const Node* nodes = nodes_.data();

  // A small lone tree lives in a handful of L1 sets, where the early-exit
  // walk beats fixed-depth passes; likewise a deep lone tree fed too few
  // rows to amortise a streaming pass. Everything else — ensembles and
  // deep single trees with large batches — takes the blocked kernel.
  const bool single = mode_ == Aggregation::kSingle;
  if (single && (arena_bytes() <= kSingleTreeEarlyExitBytes ||
                 end - begin < kSingleTreeBlockedMinRows)) {
    const int32_t root = roots_[0];
    for (size_t r = begin; r < end; ++r) {
      out[r] = TraverseTree(nodes, root, rows.RowPtr(r));
    }
    return;
  }

  // Row-tiled, level-synchronous: each pass advances every row in the
  // block one tree level through a branchless select, so many independent
  // node loads are in flight per level and the naive loop's per-row
  // variable-depth exit mispredict never happens. The block width comes
  // from kBlockTable so one streaming pass over the arena (the dominant
  // cost once the nodes stop fitting in cache) is shared by as many rows
  // as possible while the block-local row-pointer/cursor/accumulator
  // arrays stay L1-resident — the (row-block x level-slice) working set
  // is what must fit in L2, not the whole arena. As soon as a row's next
  // cursor is known its node is prefetched, so the next level's slice is
  // already in flight while this pass finishes. The leaf each row lands
  // on is exactly the one the one-row-at-a-time walk reaches, and per-row
  // accumulation still runs in tree order, so results are bit-identical
  // to the scalar loop.
  const size_t block_width = block_rows();
  const double* rp[kMaxBlockRows];
  int32_t cur[kMaxBlockRows];
  double acc[kMaxBlockRows];
  const size_t num_trees = roots_.size();
  const bool boosted = mode_ == Aggregation::kBoostedSum;
  for (size_t block = begin; block < end; block += block_width) {
    const size_t n = std::min(block_width, end - block);
    for (size_t i = 0; i < n; ++i) rp[i] = rows.RowPtr(block + i);
    const double init = AggregateInit();
    for (size_t i = 0; i < n; ++i) acc[i] = init;
    for (size_t t = 0; t < num_trees; ++t) {
      const int32_t root = roots_[t];
      const int32_t levels = depths_[t];
      const size_t slice_end =
          t + 1 < num_trees ? static_cast<size_t>(roots_[t + 1]) : nodes_.size();
      const size_t tree_bytes =
          (slice_end - static_cast<size_t>(root)) * sizeof(Node);
      for (size_t i = 0; i < n; ++i) cur[i] = root;
      auto advance_level = [&](auto prefetch) {
        for (size_t i = 0; i < n; ++i) {
          const Node nd = nodes[cur[i]];
          // A leaf reached before the deepest level has feature == -1;
          // clamp the load to column 0 (depth >= 1 implies cols >= 1) and
          // let its self-loop children keep the row parked.
          const int32_t f = nd.feature < 0 ? 0 : nd.feature;
          // Bitwise select, not ?:, so the compiler cannot emit a compare
          // branch — split direction is data-dependent and mispredicts on
          // nearly every visit once query rows stop repeating.
          const int32_t mask = -static_cast<int32_t>(rp[i][f] <= nd.scalar);
          cur[i] = (nd.left & mask) | (nd.right & ~mask);
          if constexpr (prefetch.value) __builtin_prefetch(nodes + cur[i], 0, 3);
        }
      };
      if (tree_bytes > kPrefetchMinTreeBytes) {
        for (int32_t d = 0; d < levels; ++d) advance_level(std::true_type{});
      } else {
        for (int32_t d = 0; d < levels; ++d) advance_level(std::false_type{});
      }
      if (single) {
        for (size_t i = 0; i < n; ++i) out[block + i] = nodes[cur[i]].scalar;
      } else {
        for (size_t i = 0; i < n; ++i) {
          const double v = nodes[cur[i]].scalar;
          acc[i] += boosted ? rate_ * v : v;
        }
      }
    }
    if (!single) {
      for (size_t i = 0; i < n; ++i) out[block + i] = Finish(acc[i]);
    }
  }
}

}  // namespace ads::ml
