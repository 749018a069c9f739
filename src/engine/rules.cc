#include "engine/rules.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ads::engine {

RuleConfig RuleConfig::Default() {
  RuleConfig c = All();
  c.enabled.reset(static_cast<size_t>(RuleId::kEagerAggregation));
  c.enabled.reset(static_cast<size_t>(RuleId::kContradictionToEmpty));
  return c;
}

RuleConfig RuleConfig::All() {
  RuleConfig c;
  c.enabled.set();
  return c;
}

RuleConfig RuleConfig::None() { return RuleConfig(); }

std::vector<RuleConfig> RuleConfig::Neighbors() const {
  std::vector<RuleConfig> out;
  for (int i = 0; i < kNumRules; ++i) {
    RuleConfig c = *this;
    c.enabled.flip(static_cast<size_t>(i));
    out.push_back(c);
  }
  return out;
}

bool SubtreeHasColumn(const PlanNode& node, const Catalog& catalog,
                      const std::string& column) {
  bool found = false;
  node.Visit([&](const PlanNode& n) {
    if (found || n.op != OpType::kScan) return;
    const TableSpec* table = catalog.FindTable(n.table);
    if (table != nullptr && table->FindColumn(column) != nullptr) {
      found = true;
    }
  });
  return found;
}

namespace {

using NodePtr = std::unique_ptr<PlanNode>;

double EstBytes(const PlanNode& node) {
  return node.est_card * node.row_width;
}

NodePtr MakeEmptyRelation(double row_width) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kScan;
  node->table = "<empty>";
  node->table_rows = 1.0;
  node->row_width = row_width;
  return node;
}

bool IsUpperBound(CompareOp op) {
  return op == CompareOp::kLess || op == CompareOp::kLessEqual;
}
bool IsLowerBound(CompareOp op) {
  return op == CompareOp::kGreater || op == CompareOp::kGreaterEqual;
}

/// The estimator's join formula, reused by the associativity rule to score
/// a hypothetical join without building the estimator object.
double EstimateJoin(const RuleContext& ctx, double l, double r,
                    const JoinSpec& spec) {
  size_t ndv = 1000;
  if (ctx.catalog != nullptr) {
    const ColumnSpec* lk = ctx.catalog->FindColumnGlobal(spec.left_key);
    const ColumnSpec* rk = ctx.catalog->FindColumnGlobal(spec.right_key);
    size_t lndv = lk != nullptr ? lk->distinct_values : 1000;
    size_t rndv = rk != nullptr ? rk->distinct_values : 1000;
    ndv = std::max(lndv, rndv);
  }
  return std::max(1.0, l * r / static_cast<double>(std::max<size_t>(1, ndv)));
}

NodePtr RewriteNode(RuleId id, NodePtr node, const RuleContext& ctx,
                    bool* changed);

NodePtr RewriteTree(RuleId id, NodePtr node, const RuleContext& ctx,
                    bool* changed) {
  for (auto& child : node->children) {
    child = RewriteTree(id, std::move(child), ctx, changed);
  }
  return RewriteNode(id, std::move(node), ctx, changed);
}

NodePtr RewriteNode(RuleId id, NodePtr node, const RuleContext& ctx,
                    bool* changed) {
  switch (id) {
    case RuleId::kFilterMerge: {
      if (node->op == OpType::kFilter && node->children.size() == 1 &&
          node->children[0]->op == OpType::kFilter) {
        NodePtr child = std::move(node->children[0]);
        for (Predicate& p : child->predicates) {
          node->predicates.push_back(std::move(p));
        }
        node->children.clear();
        node->children.push_back(std::move(child->children[0]));
        *changed = true;
      }
      return node;
    }

    case RuleId::kFilterPushdownProject: {
      if (node->op == OpType::kFilter &&
          node->children[0]->op == OpType::kProject) {
        NodePtr project = std::move(node->children[0]);
        node->children.clear();
        node->children.push_back(std::move(project->children[0]));
        node->row_width = node->children[0]->row_width;
        project->children.clear();
        project->children.push_back(std::move(node));
        *changed = true;
        return project;
      }
      return node;
    }

    case RuleId::kFilterPushdownJoin: {
      if (node->op != OpType::kFilter ||
          node->children[0]->op != OpType::kJoin || ctx.catalog == nullptr) {
        return node;
      }
      PlanNode& join = *node->children[0];
      std::vector<Predicate> left_preds;
      std::vector<Predicate> right_preds;
      std::vector<Predicate> keep;
      for (Predicate& p : node->predicates) {
        if (SubtreeHasColumn(*join.children[0], *ctx.catalog, p.column)) {
          left_preds.push_back(std::move(p));
        } else if (SubtreeHasColumn(*join.children[1], *ctx.catalog,
                                    p.column)) {
          right_preds.push_back(std::move(p));
        } else {
          keep.push_back(std::move(p));
        }
      }
      if (left_preds.empty() && right_preds.empty()) {
        node->predicates = std::move(keep);
        return node;
      }
      if (!left_preds.empty()) {
        join.children[0] =
            MakeFilter(std::move(join.children[0]), std::move(left_preds));
        join.children[0]->est_card = join.children[0]->children[0]->est_card;
      }
      if (!right_preds.empty()) {
        join.children[1] =
            MakeFilter(std::move(join.children[1]), std::move(right_preds));
        join.children[1]->est_card = join.children[1]->children[0]->est_card;
      }
      *changed = true;
      if (keep.empty()) {
        NodePtr join_ptr = std::move(node->children[0]);
        return join_ptr;
      }
      node->predicates = std::move(keep);
      return node;
    }

    case RuleId::kFilterPushdownUnion: {
      if (node->op == OpType::kFilter &&
          node->children[0]->op == OpType::kUnion) {
        NodePtr union_node = std::move(node->children[0]);
        union_node->children[0] = MakeFilter(
            std::move(union_node->children[0]), node->predicates);
        union_node->children[1] = MakeFilter(
            std::move(union_node->children[1]), node->predicates);
        *changed = true;
        return union_node;
      }
      return node;
    }

    case RuleId::kFilterPushdownAggregate: {
      if (node->op != OpType::kFilter ||
          node->children[0]->op != OpType::kAggregate) {
        return node;
      }
      PlanNode& agg = *node->children[0];
      auto is_group_key = [&](const std::string& col) {
        return std::find(agg.agg.group_keys.begin(), agg.agg.group_keys.end(),
                         col) != agg.agg.group_keys.end();
      };
      std::vector<Predicate> movable;
      std::vector<Predicate> keep;
      for (Predicate& p : node->predicates) {
        if (is_group_key(p.column)) {
          movable.push_back(std::move(p));
        } else {
          keep.push_back(std::move(p));
        }
      }
      if (movable.empty()) {
        node->predicates = std::move(keep);
        return node;
      }
      agg.children[0] = MakeFilter(std::move(agg.children[0]),
                                   std::move(movable));
      *changed = true;
      if (keep.empty()) {
        return std::move(node->children[0]);
      }
      node->predicates = std::move(keep);
      return node;
    }

    case RuleId::kPredicateSimplify: {
      if (node->op != OpType::kFilter || ctx.catalog == nullptr) return node;
      std::vector<Predicate> keep;
      for (Predicate& p : node->predicates) {
        const ColumnSpec* col = ctx.catalog->FindColumnGlobal(p.column);
        if (col != nullptr &&
            UniformSelectivity(*col, p.op, p.value) >= 1.0 &&
            p.true_selectivity >= 1.0) {
          *changed = true;
          continue;  // provably always-true predicate
        }
        keep.push_back(std::move(p));
      }
      node->predicates = std::move(keep);
      if (node->predicates.empty()) {
        *changed = true;
        return std::move(node->children[0]);
      }
      return node;
    }

    case RuleId::kContradictionToEmpty: {
      if (node->op != OpType::kFilter) return node;
      for (const Predicate& a : node->predicates) {
        if (!IsUpperBound(a.op)) continue;
        for (const Predicate& b : node->predicates) {
          if (b.column == a.column && IsLowerBound(b.op) &&
              b.value > a.value) {
            *changed = true;
            return MakeEmptyRelation(node->row_width);
          }
        }
      }
      return node;
    }

    case RuleId::kProjectMerge: {
      if (node->op == OpType::kProject &&
          node->children[0]->op == OpType::kProject) {
        NodePtr inner = std::move(node->children[0]);
        node->children.clear();
        node->children.push_back(std::move(inner->children[0]));
        *changed = true;
      }
      return node;
    }

    case RuleId::kProjectIntoScan: {
      if (node->op == OpType::kProject &&
          node->children[0]->op == OpType::kScan &&
          node->children[0]->row_width > node->row_width) {
        NodePtr scan = std::move(node->children[0]);
        scan->row_width = node->row_width;  // columnar scan reads less
        // The real executor honors the narrowing: a scan with a column
        // list emits only those columns (in list order).
        scan->columns = node->columns;
        *changed = true;
        return scan;
      }
      return node;
    }

    case RuleId::kSortElimination: {
      if ((node->op == OpType::kAggregate || node->op == OpType::kSort) &&
          !node->children.empty() &&
          node->children[0]->op == OpType::kSort) {
        NodePtr sort = std::move(node->children[0]);
        node->children[0] = std::move(sort->children[0]);
        *changed = true;
      }
      return node;
    }

    case RuleId::kJoinCommute: {
      if (node->op != OpType::kJoin) return node;
      if (EstBytes(*node->children[1]) > EstBytes(*node->children[0])) {
        std::swap(node->children[0], node->children[1]);
        std::swap(node->join.left_key, node->join.right_key);
        *changed = true;
      }
      return node;
    }

    case RuleId::kJoinAssociativity: {
      // J2(J1(A,B), C) -> J1'(J2'(A,C), B) when J2 really joins A with C
      // and the estimates say A⋈C is smaller than A⋈B.
      if (node->op != OpType::kJoin || ctx.catalog == nullptr) return node;
      if (node->children[0]->op != OpType::kJoin) return node;
      PlanNode& j1 = *node->children[0];
      if (node->join.strategy != JoinStrategy::kShuffleHash ||
          j1.join.strategy != JoinStrategy::kShuffleHash) {
        return node;
      }
      PlanNode& a = *j1.children[0];
      PlanNode& b = *j1.children[1];
      PlanNode& c = *node->children[1];
      if (!SubtreeHasColumn(a, *ctx.catalog, node->join.left_key)) return node;
      if (!SubtreeHasColumn(a, *ctx.catalog, j1.join.left_key)) return node;
      double est_ab = j1.est_card > 0.0
                          ? j1.est_card
                          : EstimateJoin(ctx, a.est_card, b.est_card, j1.join);
      double est_ac = EstimateJoin(ctx, a.est_card, c.est_card, node->join);
      if (est_ac >= est_ab) return node;

      NodePtr j1_ptr = std::move(node->children[0]);
      NodePtr c_ptr = std::move(node->children[1]);
      NodePtr a_ptr = std::move(j1_ptr->children[0]);
      NodePtr b_ptr = std::move(j1_ptr->children[1]);
      NodePtr j2_new = MakeJoin(std::move(a_ptr), std::move(c_ptr),
                                node->join);
      j2_new->est_card = est_ac;
      NodePtr j1_new = MakeJoin(std::move(j2_new), std::move(b_ptr), j1.join);
      j1_new->est_card = node->est_card;
      *changed = true;
      return j1_new;
    }

    case RuleId::kBroadcastJoin: {
      if (node->op != OpType::kJoin) return node;
      JoinStrategy want =
          EstBytes(*node->children[1]) < ctx.broadcast_threshold_bytes
              ? JoinStrategy::kBroadcast
              : JoinStrategy::kShuffleHash;
      if (node->join.strategy != want) {
        node->join.strategy = want;
        *changed = true;
      }
      return node;
    }

    case RuleId::kEagerAggregation: {
      if (node->op != OpType::kAggregate ||
          node->children[0]->op != OpType::kJoin || ctx.catalog == nullptr) {
        return node;
      }
      PlanNode& join = *node->children[0];
      if (join.children[0]->op == OpType::kAggregate) return node;  // done
      for (const std::string& key : node->agg.group_keys) {
        if (!SubtreeHasColumn(*join.children[0], *ctx.catalog, key)) {
          return node;
        }
      }
      // The join key must survive the partial aggregation, so it joins the
      // group keys of the pushed-down aggregate.
      AggSpec partial;
      partial.group_keys = node->agg.group_keys;
      partial.group_keys.push_back(join.join.left_key);
      // Nature's convention for the partial reduction: the square root of
      // the final ratio (partial groups are finer than final groups).
      partial.true_distinct_ratio =
          std::sqrt(std::clamp(node->agg.true_distinct_ratio, 1e-6, 1.0));
      join.children[0] =
          MakeAggregate(std::move(join.children[0]), std::move(partial));
      join.children[0]->est_card = join.children[0]->children[0]->est_card;
      *changed = true;
      return node;
    }
  }
  return node;
}

}  // namespace

std::unique_ptr<PlanNode> ApplyRule(RuleId id, std::unique_ptr<PlanNode> node,
                                    const RuleContext& ctx, bool* changed) {
  ADS_CHECK(changed != nullptr) << "ApplyRule needs a changed flag";
  return RewriteTree(id, std::move(node), ctx, changed);
}

}  // namespace ads::engine
